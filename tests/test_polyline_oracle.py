"""The column-cached polyline export against the per-vertex oracle.

The export formats each arc coordinate column once per call, and
`knotfold export` once per input diagram, its stages sharing one table;
the oracle formats every coordinate of every vertex.  The text must agree
byte for byte, at every density and wherever the curve lies.
"""

import pytest

from knotfold.cli import main
from knotfold.corpus import load_corpus
from knotfold.grid import random_grid
from knotfold.pipeline import run_pipeline
from knotfold.rope import _MAX_ROPE_COORD, export_geometry, import_geometry, smooth
from polyline_oracle import export_polyline_oracle

DENSITIES = (8, 9, 31, 32, 33, 64, 90, 257)


def assert_same_text(got, want, label):
    # as lines, so that a failure reports the first line that differs
    # instead of diffing texts of up to a million lines
    assert got.splitlines(True) == want.splitlines(True), label


def assert_matches_oracle(s, density, label):
    got = export_geometry(s, "polyline", density=density)
    assert_same_text(got, export_polyline_oracle(s, density), (label, density))


def shifted(s, offset):
    """The curve moved by `offset`, through its exact arcs text and import_geometry."""
    lines = []
    for line in export_geometry(s, "arcs").splitlines():
        kind, *vals = line.split()
        vals = [int(v) for v in vals]
        moved = 6 if kind == "SEG" else 3  # SEG: both ends; ARC: the centre only
        vals[:moved] = [v + offset[k % 3] for k, v in enumerate(vals[:moved])]
        lines.append(" ".join([kind, *map(str, vals)]))
    return import_geometry("\n".join(lines) + "\n")


def extremes(s):
    """Per axis, the least and greatest coordinate of any piece end.

    An arc centre takes each coordinate from one of its arc's two ends, so
    it lies within these bounds too.
    """
    points = [q for p in s.pieces for q in (p.start, p.end)]
    return [min(q[k] for q in points) for k in range(3)], [max(q[k] for q in points) for k in range(3)]


def test_corpus_every_density(corpus_pipelines):
    for entry, res in corpus_pipelines:
        for step, stage in sorted(res.stages.items()):
            s = smooth(stage.knot)
            for density in DENSITIES:
                assert_matches_oracle(s, density, (entry.name, step))


@pytest.mark.parametrize("g", range(2, 65))
def test_random_every_stage(g):
    # the default density: the other densities run on the corpus and on the
    # moved curves below, at a fraction of the oracle's time
    for seed in range(3):
        res = run_pipeline(random_grid(g, seed))
        for step, stage in sorted(res.stages.items()):
            assert_matches_oracle(smooth(stage.knot), 32, (g, seed, step))


def test_imported_curves_far_from_the_origin(corpus_pipelines):
    curves = [smooth(res.stages[3].knot) for _, res in corpus_pipelines]
    curves.append(smooth(run_pipeline(random_grid(16, 0)).stages[3].knot))
    for s in curves:
        lo, hi = extremes(s)
        # wholly negative, and touching -(2**51 + 1) and 2**51 + 1, the
        # largest magnitude import_geometry accepts
        for offset in (
            [-1 - h for h in hi],
            [-_MAX_ROPE_COORD - m for m in lo],
            [_MAX_ROPE_COORD - h for h in hi],
        ):
            moved = shifted(s, offset)
            for density in DENSITIES:
                assert_matches_oracle(moved, density, offset)


def assert_export_matches_oracle(out, inputs, density):
    """Every stage's .polyline.txt under `out` equals the oracle's text."""
    names = []
    for label, diagram in inputs:
        res = run_pipeline(diagram)
        for step, stage in sorted(res.stages.items()):
            names.append(f"{label}.step{step}.polyline.txt")
            want = export_polyline_oracle(smooth(stage.knot), density)
            assert_same_text((out / names[-1]).read_text(), want, (label, step, density))
    assert sorted(p.name for p in out.glob("*.polyline.txt")) == sorted(names) != []


def random_inputs(g):
    return [(f"random_g{g}_s{seed}", random_grid(g, seed)) for seed in (0, 1)]


@pytest.mark.parametrize(
    "g, density",
    [(g, d) for g in ("all", 8, 20, 48, 64) for d in (8, 32)] + [("3_1,4_1", 4096), (8, 4096)],
)
def test_cli_export_shares_columns_across_stages(g, density, tmp_path):
    # one command, several diagrams: each diagram's stages share one table;
    # a str g names corpus knots (4096 on the whole corpus takes the oracle 12 s)
    if isinstance(g, str):
        names = g.split(",")
        entries = [e for e in load_corpus() if g == "all" or e.name in names]
        args, inputs = ["--corpus", g], [(e.name, e.diagram) for e in entries]
    else:
        args, inputs = ["--random", f"g={g},seed=0,count=2"], random_inputs(g)
    out = tmp_path / "o"
    flags = ["--format", "polyline", "--density", str(density), "--out", str(out)]
    assert main(["export", *args, *flags]) == 0
    assert_export_matches_oracle(out, inputs, density)


def test_cli_export_tables_end_with_their_diagram(tmp_path):
    # the same diagrams at two densities in a row share every column key, so
    # a table kept from the first command would give the second wrong text
    inputs = random_inputs(8)
    for density in (32, 9):
        out = tmp_path / f"d{density}"
        args = ["--random", "g=8,seed=0,count=2", "--density", str(density), "--out", str(out)]
        assert main(["export", *args]) == 0
        assert_export_matches_oracle(out, inputs, density)
