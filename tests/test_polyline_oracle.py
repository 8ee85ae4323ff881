"""The column-cached polyline export against the per-vertex oracle.

The export formats each arc coordinate column once per call; the oracle
formats every coordinate of every vertex.  The text must agree byte for
byte, at every density and wherever the curve lies.
"""

import pytest

from knotfold.grid import random_grid
from knotfold.pipeline import run_pipeline
from knotfold.rope import _MAX_COORD, export_geometry, import_geometry, smooth
from polyline_oracle import export_polyline_oracle

DENSITIES = (8, 9, 31, 32, 33, 64, 90, 257)


def assert_matches_oracle(s, density, label):
    got = export_geometry(s, "polyline", density=density)
    assert got == export_polyline_oracle(s, density), (label, density)


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
        # wholly negative, and touching -2**50 and +2**50, the largest
        # magnitude import_geometry accepts
        for offset in (
            [-1 - h for h in hi],
            [-_MAX_COORD - m for m in lo],
            [_MAX_COORD - h for h in hi],
        ):
            moved = shifted(s, offset)
            for density in DENSITIES:
                assert_matches_oracle(moved, density, offset)
