"""Byte-identity of the build, certify and export output files.

The SHA-256 of every lattice file and ``.reports.txt`` fold report written
by ``build``, every certificate written by ``certify`` and every
``.arcs.txt``, ``.polyline.txt`` and ``.metrics.txt`` file written by
``export`` is recorded in data/output_digests.json for the corpus and for
seeded random diagrams with g <= 20.  A change that is meant to keep
results unchanged must leave all of them byte-identical.
After a deliberate change of output, rerun this file as a script
(``PYTHONPATH=src python tests/test_output_digests.py``) to record the new
digests.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from knotfold.cli import main

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"
GROUPS = {"corpus": ["--corpus", "all"]}
GROUPS.update({f"g{g}": ["--random", f"g={g},seed=0,count=2"] for g in range(2, 21)})


def output_digests(group: str, workdir: Path) -> dict[str, str]:
    """Digests of the lattice, certificate and export files for one input group."""
    digests = {}
    for command in ("build", "certify", "export"):
        out = workdir / command
        code = main([command, *GROUPS[group], "--out", str(out)])
        assert code == 0, f"{command} {group} exited {code}"
        for path in sorted(out.iterdir()):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_match_recorded_digests(group, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[group]
    assert output_digests(group, tmp_path) == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {group: output_digests(group, Path(tmp) / group) for group in sorted(GROUPS)}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, record.values()))} digests in {DIGESTS}", file=sys.stderr)
