"""The cell-hash thickness scan against the brute-force all-pairs oracle.

The scan stops at the clearance 2, and the oracle does not: twice the
thickness radius must equal min(d, 2), where d is the oracle's minimum
over all non-adjacent pairs.  The oracle measures arc-segment pairs with
the scalar kernel that the scan's batched one reproduces operation for
operation, and shares the arc-arc kernel with the scan; two straights the
scan measures as boxes, which is exact.  So the two must agree to the last
bit (==), not within a tolerance.
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
    import_geometry,
    rope_metrics,
    smooth,
)
from scan_oracle import min_self_distance_oracle


def assert_matches_oracle(knot, label):
    s = smooth(knot)
    got = 2 * rope_metrics(s).thickness_radius
    assert got == min(min_self_distance_oracle(s), 2.0), label
    return got


def box_distance_squared(lo1, hi1, lo2, hi2):
    """Squared Euclidean distance between two integer boxes, in Python ints."""
    return sum(max(0, l2 - h1, l1 - h2) ** 2 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 7, 16])
def test_near_pairs_are_exactly_the_boxes_within_r(seed):
    # r = 2: the pairs whose boxes are less than 2 apart, in Euclidean distance
    rng = np.random.default_rng(seed)
    lo = rng.integers(-20, 20, size=(150, 3))
    size = rng.integers(0, 3, size=(150, 3))
    size[np.arange(150), rng.integers(0, 3, size=150)] = rng.integers(0, 40, size=150)
    hi = lo + size
    want = {
        (a, b)
        for a, b in itertools.combinations(range(150), 2)
        if box_distance_squared(lo[a].tolist(), hi[a].tolist(), lo[b].tolist(), hi[b].tolist()) < 4
    }
    i, j = _near_pairs(lo, hi)
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(want)


def test_near_pairs_pinned_gaps():
    # gaps (1, 1, 1) are sqrt(3) < 2 apart and kept; (2, 0, 0) is 2 apart and
    # dropped, and so is a gap of 2**52, whose square overflows int64
    big = 2**51
    lo = np.array([(0, 0, 0), (2, 2, 2), (3, 0, 0), (-big, 0, 0), (big, 0, 0)], dtype=np.int64)
    hi = np.array([(1, 1, 1), (5, 2, 2), (4, 1, 1), (-big, 0, 0), (big, 0, 0)], dtype=np.int64)
    i, j = _near_pairs(lo, hi)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 2)]


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
    want = [rope_metrics(s).thickness_radius for s in smoothed]
    monkeypatch.setattr(rope, "_CHUNK", 7)
    assert [rope_metrics(s).thickness_radius for s in smoothed] == want


def weave(n):
    """n rows along x, crossed by n columns along y, all in the plane z = 0:
    a closed lattice curve (n even) that meets itself n * n times."""
    top = 2 * n + 1
    corners = []
    for k in range(n):  # rows at odd y, alternately rightwards and back
        ends = (0, 2 * n) if k % 2 == 0 else (2 * n, 0)
        corners += [(ends[0], 2 * k + 1, 0), (ends[1], 2 * k + 1, 0)]
    for k in range(n):  # columns at odd x, alternately down and back up
        ends = (top, -1) if k % 2 == 0 else (-1, top)
        corners += [(2 * k + 1, ends[0], 0), (2 * k + 1, ends[1], 0)]
    corners += [(2 * n - 1, top + 2, 0), (-2, top + 2, 0), (-2, 1, 0)]
    return LatticeKnot(tuple(corners))


def scan_peak(n):
    """tracemalloc peak of the pair scan on weave(n), and its pair count."""
    pieces = smooth(weave(n)).pieces
    arrays = _piece_arrays(pieces)
    i, j = _near_pairs(*_piece_boxes(*arrays))
    m = len(pieces) // 2
    far = np.minimum((j - 1) // 2 - i // 2, (i - 1) // 2 + m - j // 2) > 1
    arrays = tuple(x.astype(float) for x in arrays)
    tracemalloc.start()
    try:
        assert _scan_pairs(pieces, arrays, i[far], j[far]) == 0.0
        return tracemalloc.get_traced_memory()[1], int(far.sum())
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_pairs():
    # the kernels run on chunks of pairs, so from weave(100) to weave(174)
    # the pairs triple but the scan's peak stays well under twice as large;
    # measuring every pair at once (a chunk as large as the pair count)
    # nearly triples it
    peak_small, pairs_small = scan_peak(100)
    peak_large, pairs_large = scan_peak(174)
    assert pairs_large > 2.5 * pairs_small
    assert peak_large < 2 * peak_small


@pytest.mark.parametrize("w,h", [(10, 3), (3, 10), (40, 25), (2, 2), (5, 1)])
def test_rectangle_clearance_is_two(w, h):
    # only opposite straights are non-adjacent, 2*min(w, h) apart once
    # doubled; the scan stops at 2, and for min(w, h) > 1 it has no candidate
    rect = LatticeKnot(((0, 0, 0), (w, 0, 0), (w, h, 0), (0, h, 0)))
    assert assert_matches_oracle(rect, (w, h)) == 2.0


def test_one_debug_record_per_scan(caplog):
    # the rectangle's only non-adjacent pairs are its opposite straights,
    # 6 and 20 apart once doubled, so no pair is a candidate
    caplog.set_level(logging.DEBUG, logger="knotfold.rope")
    rect = LatticeKnot(((0, 0, 0), (10, 0, 0), (10, 3, 0), (0, 3, 0)))
    assert rope_metrics(smooth(rect)).thickness_radius == 1.0
    assert [rec.getMessage() for rec in caplog.records if rec.name == "knotfold.rope"] == [
        "scan: 0 segment-segment, 0 arc-segment, 0 arc-arc candidate pairs; "
        "0 arc-arc pairs to the scalar kernel"
    ]


def test_hexagon_through_three_planes():
    # a 6x6x6 loop whose nearest non-adjacent pieces are 12 or more apart
    hexagon = LatticeKnot(
        ((0, 0, 0), (6, 0, 0), (6, 6, 0), (6, 6, 6), (0, 6, 6), (0, 0, 6))
    )
    assert assert_matches_oracle(hexagon, "hexagon") == 2.0


def rope_of(corners):
    """The rope that `smooth` makes of these corners, but without doubling
    them, so two pieces may come closer than 2.  Every stick is at least 2 long."""
    records = []
    for p, q, r in zip(corners[-1:] + corners[:-1], corners, corners[1:] + corners[:1]):
        u = [(b > a) - (b < a) for a, b in zip(p, q)]  # into the corner q
        v = [(b > a) - (b < a) for a, b in zip(q, r)]  # out of it
        arc = [c - x + y for c, x, y in zip(q, u, v)] + [-y for y in v] + u
        seg = [c + y for c, y in zip(q, v)] + [c - y for c, y in zip(r, v)]
        records += ["ARC " + " ".join(map(str, arc)), "SEG " + " ".join(map(str, seg))]
    return import_geometry("\n".join(records))


@pytest.mark.parametrize(
    "corners,d",
    [
        # the straight of (4, -3, 1) -> (4, 3, 1) passes 1 over that of (0, 0, 0) -> (8, 0, 0)
        (
            [(0, 0, 0), (8, 0, 0), (8, 0, 3), (4, 0, 3), (4, -3, 3), (4, -3, 1),
             (4, 3, 1), (0, 3, 1), (0, 3, -2), (0, 0, -2)],
            1.0,
        ),
        # the straight of (6, 1, 1) -> (2, 1, 1) runs sqrt(2) from that of (-3, 0, 0) -> (8, 0, 0)
        (
            [(-3, 0, 0), (8, 0, 0), (8, 0, 3), (11, 0, 3), (11, 4, 3), (11, 4, 1), (6, 4, 1),
             (6, 1, 1), (2, 1, 1), (2, 1, 4), (-3, 1, 4), (-3, -3, 4), (-3, -3, 0)],
            math.sqrt(2.0),
        ),
    ],
)
def test_straights_closer_than_two(corners, d):
    s = rope_of(corners)
    assert rope_metrics(s).thickness_radius == d / 2
    assert min_self_distance_oracle(s) == d


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

