"""The cell-hash thickness scan against the brute-force all-pairs oracle.

The oracle measures arc-segment pairs with the scalar kernel that the
scan's batched one reproduces operation for operation, and shares the
other kernels with the scan, so the minimum must agree to the last bit
(==), not within a tolerance.
"""

import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from knotfold.errors import KnotfoldError
from knotfold.grid import random_grid
from knotfold.lattice import LatticeKnot, canonicalize
from knotfold.pipeline import run_pipeline
from knotfold import rope
from knotfold.rope import (
    ArcPiece,
    _near_pairs,
    _piece_arrays,
    _piece_boxes,
    _scan_pairs,
    rope_metrics,
    smooth,
)
from scan_oracle import min_self_distance_oracle


def assert_matches_oracle(knot, label):
    s = smooth(knot)
    got = rope_metrics(s).min_doubled_self_distance
    assert got == min_self_distance_oracle(s), label
    return got


@pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 16])
def test_near_pairs_are_exactly_the_boxes_within_r(r):
    rng = np.random.default_rng(r)
    lo = rng.integers(-20, 20, size=(150, 3))
    size = rng.integers(0, 3, size=(150, 3))
    size[np.arange(150), rng.integers(0, 3, size=150)] = rng.integers(0, 40, size=150)
    hi = lo + size
    want = {
        (a, b)
        for a, b in itertools.combinations(range(150), 2)
        if max(max(lo[b] - hi[a]), max(lo[a] - hi[b])) <= r
    }
    i, j = _near_pairs(lo, hi, r)
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(want)


def test_piece_boxes_hold_their_pieces(corpus_pipelines):
    s = smooth(corpus_pipelines[-1][1].stages[3].knot)
    lo, hi = _piece_boxes(*_piece_arrays(s.pieces))
    for p, a, b in zip(s.pieces, lo, hi):
        if isinstance(p, ArcPiece):
            points = [p.point(k * math.pi / 16) for k in range(9)]
            assert sorted((b - a).tolist()) == [0, 2, 2]  # center +-1 in the arc's plane
        else:
            points = [p.start, p.end]
        for q in points:
            assert all(a[x] - 1e-12 <= q[x] <= b[x] + 1e-12 for x in range(3))


def test_corpus(corpus_pipelines):
    for entry, res in corpus_pipelines:
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (entry.name, step))


def test_acceptance_suite(pipelines200):
    for g, seed, res in pipelines200:
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (g, seed, step))


@pytest.mark.parametrize("g", range(2, 21))
def test_random_small(g):
    for seed in range(3):
        res = run_pipeline(random_grid(g, seed))
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (g, seed, step))


@pytest.mark.parametrize("seed", [1, 2])
def test_random_g48(seed):
    res = run_pipeline(random_grid(48, seed))
    for step in (1, 2, 3):
        assert_matches_oracle(res.stages[step].knot, (48, seed, step))


def test_chunk_size_does_not_change_the_minimum(corpus_pipelines, monkeypatch):
    knots = [res.stages[step].knot for _, res in corpus_pipelines for step in (1, 2, 3)]
    for g in range(2, 21):
        res = run_pipeline(random_grid(g, 0))
        knots += [res.stages[step].knot for step in (1, 2, 3)]
    smoothed = [smooth(k) for k in knots]
    want = [rope_metrics(s).min_doubled_self_distance for s in smoothed]
    monkeypatch.setattr(rope, "_CHUNK", 7)
    assert [rope_metrics(s).min_doubled_self_distance for s in smoothed] == want


def scan_peak(g):
    """tracemalloc peak of the first scan round on step 3 of random_grid(g, 1), and its pair count."""
    pieces = smooth(run_pipeline(random_grid(g, 1)).stages[3].knot).pieces
    arrays = _piece_arrays(pieces)
    i, j = _near_pairs(*_piece_boxes(*arrays), 2)
    m = len(pieces) // 2
    far = np.minimum((j - 1) // 2 - i // 2, (i - 1) // 2 + m - j // 2) > 1
    arrays = tuple(x.astype(float) for x in arrays)
    tracemalloc.start()
    try:
        _scan_pairs(pieces, arrays, i[far], j[far], 2)
        return tracemalloc.get_traced_memory()[1], int(far.sum())
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_pairs():
    # the kernels run on chunks of pairs, so from g=256 to g=512 the pairs
    # triple but the scan's peak stays well under twice as large; measuring
    # every pair at once (a chunk as large as the pair count) more than triples it
    peak256, pairs256 = scan_peak(256)
    peak512, pairs512 = scan_peak(512)
    assert pairs512 > 2.5 * pairs256
    assert peak512 < 2 * peak256


@pytest.mark.parametrize("w,h", [(10, 3), (3, 10), (40, 25), (2, 2), (5, 1)])
def test_rectangle_grows_radius(w, h):
    # only opposite straights are non-adjacent, 2*min(w, h) apart once doubled,
    # so for min(w, h) > 1 no candidate lies within the starting radius
    rect = LatticeKnot(((0, 0, 0), (w, 0, 0), (w, h, 0), (0, h, 0)))
    assert assert_matches_oracle(rect, (w, h)) == 2.0 * min(w, h)


def test_one_debug_record_per_round(caplog):
    # the rectangle's only non-adjacent pairs are its opposite straights,
    # 6 and 20 apart once doubled, so r grows from 2 to 8
    caplog.set_level(logging.DEBUG, logger="knotfold.rope")
    rect = LatticeKnot(((0, 0, 0), (10, 0, 0), (10, 3, 0), (0, 3, 0)))
    rope_metrics(smooth(rect))
    tail = "arc-segment, 0 arc-arc candidate pairs; 0 arc-arc pairs to the scalar kernel"
    assert [rec.getMessage() for rec in caplog.records if rec.name == "knotfold.rope"] == [
        f"scan round r=2: 0 segment-segment, 0 {tail}",
        f"scan round r=4: 0 segment-segment, 0 {tail}",
        f"scan round r=8: 1 segment-segment, 0 {tail}",
    ]


def test_hexagon_through_three_planes():
    # a 6x6x6 loop whose nearest non-adjacent pieces are 12 or more apart
    hexagon = LatticeKnot(
        ((0, 0, 0), (6, 0, 0), (6, 6, 0), (6, 6, 6), (0, 6, 6), (0, 0, 6))
    )
    assert assert_matches_oracle(hexagon, "hexagon") > 12.0


def random_turning_polygon(rng, sticks):
    """A closed lattice polygon with right-angle corners; it may cross itself."""
    while True:
        corners = [(0, 0, 0)]
        axis = rng.randrange(3)
        for _ in range(sticks):
            axis = rng.choice([a for a in range(3) if a != axis])
            step = [0, 0, 0]
            step[axis] = rng.choice((-1, 1)) * rng.randint(1, 3)
            corners.append(tuple(c + s for c, s in zip(corners[-1], step)))
        for axis in range(3):  # walk back to the origin one axis at a time
            back = list(corners[-1])
            back[axis] = 0
            corners.append(tuple(back))
        corners = corners[:-1]
        try:
            knot = canonicalize(LatticeKnot(tuple(corners)))
        except KnotfoldError:
            continue
        c = knot.corners
        dirs = [tuple(b - a for a, b in zip(c[i], c[(i + 1) % len(c)])) for i in range(len(c))]
        if all(sum(x * y for x, y in zip(d, e)) == 0 for d, e in zip(dirs, dirs[1:] + dirs[:1])):
            return knot


@pytest.mark.parametrize("seed", [1, 5])
def test_random_crossing_polygons(seed):
    # unlike lattice knots these come closer than 2, down to touching, so
    # a candidate the cell hash loses cannot hide behind another pair at 2
    rng = random.Random(seed)
    below_two = 0
    for idx in range(300):
        knot = random_turning_polygon(rng, 4 + idx % 10)
        below_two += assert_matches_oracle(knot, knot.corners) < 2.0
    assert below_two > 80

