"""Each output check accepts knotfold's real outputs and rejects corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import random_knot_grid  # noqa: E402

CORPUS = json.loads((BENCH.parent / "src" / "knotfold" / "data" / "corpus.json").read_text())
TREFOIL = CORPUS[0]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """build, certify and export outputs for the trefoil and a random g=9 diagram."""
    from knotfold.cli import main

    out = tmp_path_factory.mktemp("out")
    x_col, o_col = random_knot_grid(9, random.Random(3))
    grid = out / "rand.grid"
    grid.write_text(f"X: {','.join(map(str, x_col))}\nO: {','.join(map(str, o_col))}\n")
    for command in ("build", "certify", "export"):
        for source in (["--corpus", "3_1"], ["--input", str(grid)]):
            with redirect_stdout(io.StringIO()):
                assert main([command, *source, "--out", str(out)]) == 0
    return out, (x_col, o_col)


def _trefoil_certify(out):
    return checks.check_certify(out, "3_1", 5, TREFOIL["x_col"], TREFOIL["o_col"],
                                TREFOIL["alexander"])


def test_real_outputs_pass(outputs):
    out, (x_col, o_col) = outputs
    results = [
        checks.check_build(out, "3_1", 5),
        _trefoil_certify(out),
        checks.check_export(out, "3_1", 5),
        checks.check_build(out, "rand", 9),
        checks.check_certify(out, "rand", 9, x_col, o_col, None),
        checks.check_export(out, "rand", 9),
    ]
    assert [errors for errors, _ in results] == [[]] * 6
    assert len({edges for _, edges in results[:3]}) == 1
    assert len({edges for _, edges in results[3:]}) == 1


@pytest.fixture
def scratch(outputs, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    out, grid = outputs
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    return tmp_path, grid


def _edit(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def _lattice(path: Path, corners, step: int = 1) -> None:
    lines = ["# g: 5", f"# step: {step}"] + [" ".join(map(str, c)) for c in corners]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corners, message", [
    ([(0, 0, 1), (2, 0, 1), (2, 1, 1), (1, 1, 1), (1, -1, 1), (0, -1, 1)], "twice"),
    ([(0, 0, 1), (2, 1, 1), (2, 2, 1), (0, 2, 1)], "axis-parallel"),
    ([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (0, 1, 3), (0, 0, 3)], "z-levels"),
    ([(0, 0, 1), (10, 0, 1), (10, 10, 1), (0, 10, 1)], "bound"),
])
def test_build_check_rejects_bad_lattice(scratch, corners, message):
    out, _ = scratch
    _lattice(out / "3_1.step1.txt", corners)
    errors, _ = checks.check_build(out, "3_1", 5)
    assert any(message in e for e in errors), errors


def test_build_check_rejects_forms_that_disagree(scratch):
    out, _ = scratch
    corners, _ = checks.parse_lattice_file((out / "3_1.step2.txt").read_text())
    _lattice(out / "3_1.step2.txt", corners[1:] + corners[:1], step=2)
    errors, _ = checks.check_build(out, "3_1", 5)
    assert any("different corners" in e for e in errors), errors


def test_build_check_rejects_wrong_provenance(scratch):
    out, _ = scratch
    _edit(out / "3_1.step3.txt", "# step: 3", "# step: 2")
    errors, _ = checks.check_build(out, "3_1", 5)
    assert any("provenance" in e for e in errors), errors


def test_certify_check_rejects_failed_certificate(scratch):
    out, _ = scratch
    _edit(out / "3_1.cert.json", '"passed": true', '"passed": false')
    errors, _ = _trefoil_certify(out)
    assert any("failed" in e for e in errors), errors


def test_certify_check_rejects_edges_over_bound(scratch):
    out, _ = scratch
    certs = json.loads((out / "3_1.cert.json").read_text())
    census = certs[2]["census"]
    census["x_edges"] += 100
    census["total_edges"] += 100
    (out / "3_1.cert.json").write_text(json.dumps(certs))
    errors, _ = _trefoil_certify(out)
    assert any("bound" in e for e in errors), errors


def test_certify_check_rejects_swapped_polynomial(scratch):
    out, _ = scratch
    text = (out / "3_1.cert.json").read_text()
    (out / "3_1.cert.json").write_text(text.replace("t^-1 - 1 + t", "-t^-1 + 3 - t"))
    errors, _ = _trefoil_certify(out)
    assert any("published" in e for e in errors), errors
    assert any("identity" in e for e in errors), errors


def test_certify_check_rejects_wrong_polynomial_without_published_one(scratch):
    out, (x_col, o_col) = scratch
    certs = json.loads((out / "rand.cert.json").read_text())
    for cert in certs:
        for check in cert["checks"]:
            if check["name"] == "alexander_preserved":
                poly = check["comparison"].split(" vs ")[0]
                wrong = "t^-1 - 1 + t" if poly != "t^-1 - 1 + t" else "-t^-1 + 3 - t"
                check["comparison"] = f"{wrong} vs {wrong}"
    (out / "rand.cert.json").write_text(json.dumps(certs))
    errors, _ = checks.check_certify(out, "rand", 9, x_col, o_col, None)
    assert any("identity" in e for e in errors), errors


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_grid_identity_on_corpus(entry):
    own = checks.parse_poly(entry["alexander"])
    assert checks.grid_identity_holds(entry["x_col"], entry["o_col"], own)
    for other in CORPUS:
        poly = checks.parse_poly(other["alexander"])
        if checks.normal_form(poly) != checks.normal_form(own):
            assert not checks.grid_identity_holds(entry["x_col"], entry["o_col"], poly)


def test_parse_poly_reads_printed_forms():
    assert checks.parse_poly("-t^-1 + 3 - t") == {-1: -1, 0: 3, 1: -1}
    assert checks.parse_poly("2*t^-3 - 12*t^4") == {-3: 2, 4: -12}
    with pytest.raises(ValueError):
        checks.parse_poly("t^2 t")


def _metrics_line(out: Path, step: int) -> str:
    return (out / "3_1.metrics.txt").read_text().splitlines()[step - 1]


@pytest.mark.parametrize("field, value, message", [
    ("length", "99.000000000000", "length"),
    ("thickness", "0.900000000000", "thickness"),
    ("ropelength", "1000.000000000000", "bound"),
    ("corners", "3", "corners"),
])
def test_export_check_rejects_bad_metrics(scratch, field, value, message):
    out, _ = scratch
    line = _metrics_line(out, 2)
    words = line.split()
    words[words.index(field) + 1] = value
    _edit(out / "3_1.metrics.txt", line, " ".join(words))
    errors, _ = checks.check_export(out, "3_1", 5)
    assert any(message in e for e in errors), errors


def _arcs(out: Path) -> tuple[Path, list[str]]:
    path = out / "3_1.step1.arcs.txt"
    return path, path.read_text().splitlines()


def test_export_check_rejects_missing_piece(scratch):
    out, _ = scratch
    path, lines = _arcs(out)
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    errors, _ = checks.check_export(out, "3_1", 5)
    assert any("alternate" in e for e in errors), errors


def test_export_check_rejects_long_arc(scratch):
    out, _ = scratch
    path, lines = _arcs(out)
    parts = lines[0].split()
    parts[4:7] = [str(2 * int(v)) for v in parts[4:7]]
    path.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n")
    errors, _ = checks.check_export(out, "3_1", 5)
    assert any("unit quarter circle" in e for e in errors), errors


def test_export_check_rejects_gap(scratch):
    out, _ = scratch
    path, lines = _arcs(out)
    parts = lines[1].split()
    parts[4] = str(int(parts[4]) + 2)
    path.write_text("\n".join(lines[:1] + [" ".join(parts)] + lines[2:]) + "\n")
    errors, _ = checks.check_export(out, "3_1", 5)
    assert any("close up" in e or "tangent" in e for e in errors), errors


def test_clearance_check_finds_close_nonadjacent_sticks():
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.0, 1.5, 0], [9.0, 9, 9]])
    sticks = np.array([[0, 0], [1, 1], [5, 5], [3, 3]])
    # sticks 0 and 1 are adjacent, so only the pair on sticks 0 and 5 counts
    assert checks.min_nonadjacent_distance(pts, sticks, 10) == pytest.approx(1.5)
    assert checks.min_nonadjacent_distance(pts[[0, 1, 3]], sticks[[0, 1, 3]], 10) > 2


def test_random_knot_grid_is_a_knot():
    from knotfold.grid import GridDiagram, validate_grid

    rng = random.Random(0)
    for g in (2, 3, 8, 31):
        x_col, o_col = random_knot_grid(g, rng)
        assert validate_grid(GridDiagram(g, x_col, o_col)).ok
