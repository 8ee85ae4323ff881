"""Byte-identity of the build, certify and export output files.

The SHA-256 of every lattice file and ``.reports.txt`` fold report written
by ``build``, every certificate written by ``certify`` and every
``.arcs.txt``, ``.polyline.txt`` and ``.metrics.txt`` file written by
``export`` is recorded in data/output_digests.json for the corpus and for
seeded random diagrams with g <= 20.  The ``export-*`` groups run only
``export``, on corpus 3_1 and on two g = 8 diagrams, with options other
than the defaults: densities 8 and 4096, and each single format.  A
change that is meant to keep results unchanged must leave all of them
byte-identical.
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
ALL_COMMANDS = ("build", "certify", "export")
GROUPS = {"corpus": (ALL_COMMANDS, ["--corpus", "all"])}
GROUPS.update(
    {f"g{g}": (ALL_COMMANDS, ["--random", f"g={g},seed=0,count=2"]) for g in range(2, 21)}
)
EXPORT_INPUTS = {"3_1": ["--corpus", "3_1"], "g8": ["--random", "g=8,seed=0,count=2"]}
EXPORT_OPTIONS = {
    "density8": ["--density", "8"],
    "density4096": ["--density", "4096"],
    "polyline": ["--format", "polyline"],
    "arcs": ["--format", "arcs"],
}
GROUPS.update(
    {
        f"export-{name}-{option}": (("export",), [*inputs, *flags])
        for name, inputs in EXPORT_INPUTS.items()
        for option, flags in EXPORT_OPTIONS.items()
    }
)


def output_digests(group: str, workdir: Path) -> dict[str, str]:
    """Digests of the files that one group's commands write."""
    commands, args = GROUPS[group]
    digests = {}
    for command in commands:
        out = workdir / command
        code = main([command, *args, "--out", str(out)])
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
