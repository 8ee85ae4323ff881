"""Fuzz the exact distance kernels against dense sampling.  These kernels
decide the lattice windows of the unit-thickness lemma and the brute-force
self-distance oracle, so each one is checked under random axis-aligned
configurations of the kind the pipeline produces (integer centers, unit
axis frames, axis-parallel segments), and the arc-arc kernel also under
every perpendicular frame pair at unit offsets."""

import itertools
import math
import random

import numpy as np
import pytest

from knotfold.rope import ArcPiece
from scan_oracle import (
    _arc_arc_dist,
    _arc_seg_dist,
    _pmul,
    _point_arc_dist,
    _seg_seg_batch,
    _unit_roots,
)

AXES = [
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
]


FRAMES = [(u, v) for u in AXES for v in AXES if sum(x * y for x, y in zip(u, v)) == 0]


def random_arc(rng):
    u = rng.choice(AXES)
    v = rng.choice([a for a in AXES if abs(sum(x * y for x, y in zip(a, u))) == 0])
    center = tuple(rng.randint(-4, 4) for _ in range(3))
    return ArcPiece(center=center, u=u, v=v)


def random_seg(rng):
    a = tuple(rng.randint(-5, 5) for _ in range(3))
    axis = rng.randrange(3)
    length = rng.randint(0, 6)
    b = list(a)
    b[axis] += length * rng.choice((-1, 1))
    return a, tuple(b)


def sample_arc(arc, n=2000):
    return [arc.point(i * (math.pi / 2) / (n - 1)) for i in range(n)]


def sample_seg(a, b, n=2000):
    return [
        tuple(a[j] + (b[j] - a[j]) * i / (n - 1) for j in range(3)) for i in range(n)
    ]


def brute_min(points_a, points_b):
    pa = np.array(points_a)
    pb = np.array(points_b)
    best = math.inf
    for chunk in np.array_split(pa, 8):
        d = np.linalg.norm(chunk[:, None, :] - pb[None, :, :], axis=2)
        best = min(best, float(d.min()))
    return best


def test_point_arc_against_sampling():
    rng = random.Random(11)
    for _ in range(200):
        arc = random_arc(rng)
        p = tuple(rng.randint(-5, 5) for _ in range(3))
        exact = _point_arc_dist(p, arc)
        approx = min(math.dist(p, q) for q in sample_arc(arc, 3001))
        assert exact <= approx + 1e-9
        assert exact >= approx - 1e-6  # sampling resolution


def test_seg_seg_batch_against_sampling():
    rng = random.Random(13)
    p1s, q1s, p2s, q2s, refs = [], [], [], [], []
    for _ in range(120):
        a1, b1 = random_seg(rng)
        a2, b2 = random_seg(rng)
        p1s.append(a1)
        q1s.append(b1)
        p2s.append(a2)
        q2s.append(b2)
        refs.append(brute_min(sample_seg(a1, b1, 400), sample_seg(a2, b2, 400)))
    out = _seg_seg_batch(
        np.array(p1s, float), np.array(q1s, float), np.array(p2s, float), np.array(q2s, float)
    )
    for got, ref in zip(out, refs):
        assert got <= ref + 1e-9
        assert got >= ref - 2e-2  # sampling resolution on long segments


def test_arc_seg_against_sampling():
    rng = random.Random(17)
    for _ in range(180):
        arc = random_arc(rng)
        a, b = random_seg(rng)
        exact = _arc_seg_dist(arc, np.array(a, float), np.array(b, float))
        ref = brute_min(sample_arc(arc, 900), sample_seg(a, b, 900))
        assert exact <= ref + 1e-9, (arc, a, b)
        assert exact >= ref - 5e-3, (arc, a, b)


def test_arc_arc_against_sampling():
    rng = random.Random(19)
    for _ in range(150):
        a1 = random_arc(rng)
        a2 = random_arc(rng)
        exact = _arc_arc_dist(a1, a2, cutoff=math.inf)
        ref = brute_min(sample_arc(a1, 900), sample_arc(a2, 900))
        assert exact <= ref + 1e-9, (a1, a2)
        assert exact >= ref - 5e-3, (a1, a2)


def test_arc_arc_flat_valleys_terminate():
    # coaxial stacked pairs: distance constant along the sweep
    base = ArcPiece(center=(1, 1, 0), u=(1, 0, 0), v=(0, 1, 0))
    stacked = ArcPiece(center=(1, 1, 2), u=(1, 0, 0), v=(0, 1, 0))
    assert _arc_arc_dist(base, stacked, cutoff=math.inf) == pytest.approx(2.0, abs=1e-9)
    rotated = ArcPiece(center=(1, 1, 4), u=(0, 1, 0), v=(-1, 0, 0))
    d = _arc_arc_dist(base, rotated, cutoff=math.inf)
    ref = brute_min(sample_arc(base, 3000), sample_arc(rotated, 3000))
    assert d == pytest.approx(ref, abs=1e-6)


def test_arc_seg_flat_valley_terminates():
    # segment along the arc normal through the circle: constant distance
    arc = ArcPiece(center=(0, 0, 0), u=(1, 0, 0), v=(0, 1, 0))
    a = np.array((2, 0, -3), float)
    b = np.array((2, 0, 3), float)
    assert _arc_seg_dist(arc, a, b) == pytest.approx(1.0, abs=1e-12)
    # and the off-plane clamped version
    a2 = np.array((0, 0, 2), float)
    b2 = np.array((0, 0, 5), float)
    assert _arc_seg_dist(arc, a2, b2) == pytest.approx(math.sqrt(1 + 4), abs=1e-12)


def test_arc_seg_in_plane_through_an_arc_end_is_exactly_zero():
    # an in-plane segment through an arc end touches the arc there.  The
    # endpoint candidates alone miss 0 by rounding: the foot of u on
    # (-14, 0, 0) -> (8, 0, 0) comes out 1.78e-15 away from it.  The pole
    # and crossing candidates land on the end exactly.
    arcs, segs = [], []
    for u, v in FRAMES:
        arc = ArcPiece(center=(0, 0, 0), u=u, v=v)
        for end, axis in itertools.product((u, v), range(3)):
            if u[axis] == v[axis] == 0:
                continue  # the plane's normal
            for length in range(1, 31):
                for before in range(length + 1):
                    a, b = list(end), list(end)
                    a[axis] -= before
                    b[axis] += length - before
                    arcs += [arc, arc]
                    segs += [(tuple(a), tuple(b)), (tuple(b), tuple(a))]
    assert len(arcs) == 24 * 2 * 2 * 495 * 2
    assert not any(_arc_seg_dist(arc, a, b) for arc, (a, b) in zip(arcs, segs))


def test_adversarial_product_valley_is_exact():
    # arcs meeting each other's axes: a product-form valley in the two
    # angles, at distance exactly 1
    a1 = ArcPiece(center=(-5, -4, 6), u=(-1, 0, 0), v=(0, -1, 0))
    a2 = ArcPiece(center=(-5, -5, 6), u=(0, 1, 0), v=(0, 0, -1))
    assert _arc_arc_dist(a1, a2, cutoff=math.inf) == pytest.approx(1.0, abs=1e-12)


def test_unit_roots_repeated_and_at_the_ends():
    # t (t - 1) (t - 2) (4t - 1) (2t - 1)^2 (8t - 7)^3: the distinct roots in
    # (0, 1] are 1/4, 1/2, 7/8 and 1, each reported once; 0 is left out
    p = [1]
    for factor in ([0, 1], [-1, 1], [-2, 1], [-1, 4], [-1, 2], [-1, 2], [-7, 8], [-7, 8], [-7, 8]):
        p = _pmul(p, factor)
    assert sorted(_unit_roots(p)) == pytest.approx([0.25, 0.5, 0.875, 1.0], abs=1e-15)
    assert _unit_roots([3]) == [] and _unit_roots([1, 1]) == []


def plane_normal(u, v):
    return next(i for i in range(3) if u[i] == 0 and v[i] == 0)


def test_arc_arc_perpendicular_frames_at_unit_offsets():
    # every frame pair in perpendicular planes, arc 2 offset by a vector in
    # {-1, 0, 1}^3.  This holds the pairs whose stationarity polynomial
    # vanishes identically (a unit offset along the axis both planes
    # share) and the touching pairs; two such circles meet only at integer
    # points, which on a quarter arc are its ends.
    n = 33
    theta = np.linspace(0.0, math.pi / 2, n)
    cos_sin = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    gap = (math.pi / 2) / (n - 1)  # the distance is 1-Lipschitz in each angle
    offsets = list(itertools.product((-1, 0, 1), repeat=3))
    touching = 0
    for u1, v1 in FRAMES:
        a1 = ArcPiece(center=(0, 0, 0), u=u1, v=v1)
        pts1 = cos_sin @ np.array([u1, v1], float)
        for u2, v2 in FRAMES:
            if plane_normal(u1, v1) == plane_normal(u2, v2):
                continue
            pts2 = cos_sin @ np.array([u2, v2], float)
            diff = pts1[None, :, None] - pts2[None, None] - np.array(offsets, float)[:, None, None]
            sampled = np.linalg.norm(diff, axis=3).min(axis=(1, 2))
            for offset, ref in zip(offsets, sampled):
                a2 = ArcPiece(center=offset, u=u2, v=v2)
                d = _arc_arc_dist(a1, a2, cutoff=math.inf)
                assert ref - gap <= d <= ref + 1e-9, (a1, a2)
                if {a1.start, a1.end} & {a2.start, a2.end}:
                    touching += 1
                    assert d == pytest.approx(0.0, abs=1e-12), (a1, a2)
    assert touching > 0
