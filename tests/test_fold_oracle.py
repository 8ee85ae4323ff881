"""The corner fold and lowering against the point-walking oracles.

``knotfold.lattice._fold`` walks the sticks of its input knot and emits a
corner cycle; the oracle in ``fold_oracle.py`` walks the knot's
unit-point cycle point by point.  The unit points of the corner cycle
must equal the oracle's point cycle, with the same removed-edge count and
bridge count, or both must fail with the same error, for both fold axes
and both sides.  The one exception is a stick that runs back along the
stick before it (a U-turn): the fold refuses it, since such a curve
always overlaps itself.  ``_lower_stick`` drops two corners where its
oracle replaces a block of points; both must trace the same curve.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import test_lattice
from fold_oracle import _lower_stick as lower_stick_oracle
from fold_oracle import fold_oracle
from knotfold.errors import FoldCollision
from knotfold.grid import random_grid
from knotfold.lattice import (
    LatticeKnot,
    _fold,
    _fold_line,
    _lower_stick,
    canonicalize,
    edge_census,
    fold_horizontal,
    fold_vertical,
    settle,
)
from lattice_oracle import unit_points

SIDES = ("high", "low")


def outcome(fold, *args):
    """What a fold returns, or the type and text of the error it raises."""
    try:
        return fold(*args)
    except Exception as exc:  # the two must fail alike, whatever the error
        return type(exc).__name__, str(exc)


def fold_as_points(k, axis, line, level, side):
    corners, removed, broken = _fold(k, axis, line, level, side)
    return unit_points(LatticeKnot(corners)), removed, broken


def assert_folds_match(k, axis, line, level, side):
    got = outcome(fold_as_points, k, axis, line, level, side)
    want = outcome(lambda: fold_oracle(unit_points(k), axis, line, level, side))
    assert got == want, (axis, line, level, side)


def has_u_turn(corners):
    """Whether some stick runs back along the stick before it."""
    n = len(corners)
    dirs = [
        tuple((b > a) - (b < a) for a, b in zip(corners[i], corners[(i + 1) % n]))
        for i in range(n)
    ]
    return any(any(d) and e == tuple(-v for v in d) for d, e in zip(dirs[-1:] + dirs, dirs))


def assert_diagram_matches(d):
    """Both folds of the pipeline, on every side, against the oracle."""
    g = d.size
    k1 = settle(d)
    for h_side in SIDES:
        assert_folds_match(k1, 0, _fold_line(g, h_side), 1, h_side)
        _, _, unlowered = fold_horizontal(k1, g, h_side)
        for v_side in SIDES:
            assert_folds_match(unlowered, 1, _fold_line(g, v_side), 2, v_side)


def test_corpus(corpus):
    for entry in corpus:
        assert_diagram_matches(entry.diagram)


@pytest.mark.parametrize("g", range(2, 65))
def test_random_grids(g):
    for seed in range(3):
        assert_diagram_matches(random_grid(g, seed))


def test_random_grid_g128():
    assert_diagram_matches(random_grid(128, 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_random_grids_hypothesis(g, seed):
    assert_diagram_matches(random_grid(g, seed))


@st.composite
def lattice_polygons(draw, level):
    """Closed axis-parallel corner lists near a fold plane, valid or not."""
    coords = [st.integers(0, 6), st.integers(0, 6), st.integers(level - 2, level + 1)]
    corner = tuple(draw(c) for c in coords)
    corners = [corner]
    for _ in range(draw(st.integers(2, 10))):
        axis = draw(st.integers(0, 2))
        value = draw(coords[axis])
        corner = tuple(value if j == axis else corner[j] for j in range(3))
        corners.append(corner)
    first = corners[0]
    # close up axis by axis, then drop the zero-length sticks this made
    corners.append((first[0], corner[1], corner[2]))
    corners.append((first[0], first[1], corner[2]))
    cycle = [c for c, nxt in zip(corners, corners[1:] + corners[:1]) if c != nxt]
    return LatticeKnot(tuple(cycle))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 1), st.integers(1, 5), st.sampled_from(SIDES))
def test_arbitrary_polygons_hypothesis(data, axis, line, side):
    # overlaps, collisions, bridges, colliding bridges and off-level sticks
    # all occur here; the errors must match too
    level = axis + 1
    k = data.draw(lattice_polygons(level))
    if has_u_turn(k.corners):
        with pytest.raises(ValueError, match="runs back along the stick before it"):
            _fold(k, axis, line, level, side)
    else:
        assert_folds_match(k, axis, line, level, side)


@st.composite
def turning_polygons(draw, level):
    """Closed corner lists near a fold plane whose consecutive sticks never share an axis.

    Coordinate j changes at each stick along axis j and runs through a
    cyclic sequence of values, each unlike the one before, so the curve
    closes and never turns back; it may still cross or overlap itself.
    """
    # the fold refuses fold-axis sticks off z-levels level and level - 2, so
    # half the draws keep to those two levels
    levels = [level - 2, level] if draw(st.booleans()) else range(level - 2, level + 2)
    ranges = [range(7), range(7), levels]
    axes = [draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(3, 11))):
        axes.append(draw(st.sampled_from([a for a in range(3) if a != axes[-1]])))
    # the stick that closes the cycle must turn too, and no axis may move only once
    axes[-1:] = [a for a in range(3) if a not in (axes[-2], axes[0])][:1]
    counts = [axes.count(a) for a in range(3)]
    assume(1 not in counts)
    values = []
    for j in range(3):
        seq = [draw(st.sampled_from(ranges[j]))]
        for t in range(1, counts[j]):
            avoid = (seq[-1], seq[0]) if t == counts[j] - 1 else (seq[-1],)
            choices = [v for v in ranges[j] if v not in avoid]
            assume(choices)
            seq.append(draw(st.sampled_from(choices)))
        values.append(seq)
    corner, moves, corners = [seq[0] for seq in values], [0, 0, 0], []
    for a in axes:
        corners.append(tuple(corner))
        moves[a] += 1
        corner[a] = values[a][moves[a] % counts[a]]
    return LatticeKnot(tuple(corners))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 1), st.integers(1, 5), st.sampled_from(SIDES))
def test_turning_polygons_hypothesis(data, axis, line, side):
    # no U-turns, so every draw is compared with the oracle
    level = axis + 1
    k = data.draw(turning_polygons(level))
    assert not has_u_turn(k.corners)
    assert_folds_match(k, axis, line, level, side)


def test_bridge_collision():
    # hypothesis meets this failure rarely; the message names the least
    # repeated point
    k = LatticeKnot(
        ((0, 2, 2), (0, 5, 2), (0, 5, 0), (0, 1, 0), (2, 1, 0), (2, 6, 0), (0, 6, 0), (0, 2, 0))
    )
    message = "broken-stick bridge collides with existing geometry at (0, -1, 4)"
    assert outcome(_fold, k, 1, 2, 2, "high") == ("ReconnectFailure", message)
    assert_folds_match(k, 1, 2, 2, "high")


def same_cycle(a, b):
    """Whether two point lists trace one cycle from maybe different starts."""
    return len(a) == len(b) and any(b[i:] + b[:i] == a for i, p in enumerate(b) if p == a[0])


def assert_lowering_matches(corners, col):
    try:
        got = unit_points(LatticeKnot(_lower_stick(corners, col)))
    except FoldCollision as exc:
        got = str(exc)
    try:
        want = lower_stick_oracle(unit_points(LatticeKnot(corners)), col)
    except FoldCollision as exc:
        want = str(exc)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, col
    else:
        assert same_cycle(got, want), col


def assert_lowerings_match(d):
    """Every column either horizontal fold lowers, on both unlowered curves."""
    g = d.size
    k1 = settle(d)
    cols = {_fold_line(g, side) for side in SIDES} | ({1, g} if g % 2 == 0 else set())
    for side in SIDES:
        unlowered, _, _ = _fold(k1, 0, _fold_line(g, side), 1, side)
        for col in sorted(cols):
            assert_lowering_matches(unlowered, col)


def test_lowering_corpus(corpus):
    for entry in corpus:
        assert_lowerings_match(entry.diagram)


def test_lowering_split():
    # two z=2 y-sticks over x=3, and single ones over x=1 and x=5
    for col in range(7):
        assert_lowering_matches(test_lattice.TestLowerStick.SPLIT.corners, col)


@pytest.mark.parametrize("g", range(2, 65))
def test_lowering_random_grids(g):
    for seed in range(3):
        assert_lowerings_match(random_grid(g, seed))


def noncanonical(k):
    """k with an extra collinear corner in its longest stick and a rotated start."""
    corners = list(k.corners)
    n = len(corners)
    ends = [(corners[i], corners[(i + 1) % n]) for i in range(n)]
    i = max(range(n), key=lambda i: sum(abs(a - b) for a, b in zip(*ends[i])))
    p, q = ends[i]
    mid = tuple((a + b) // 2 for a, b in zip(p, q))
    corners.insert(i + 1, mid)
    return LatticeKnot(tuple(corners[3:] + corners[:3]))


def test_noncanonical_input_folds_as_before():
    for g, seed in ((5, 1), (8, 2), (16, 3), (33, 4)):
        k1 = settle(random_grid(g, seed))
        odd = noncanonical(k1)
        assert canonicalize(odd) == k1 and odd != k1
        assert len(odd) == len(k1) + 1
        for h_side in SIDES:
            xf = _fold_line(g, h_side)
            assert_folds_match(odd, 0, xf, 1, h_side)
            want_k2, want_r2, unlowered = fold_horizontal(k1, g, h_side)
            k2, r2, unlowered_of_odd = fold_horizontal(odd, g, h_side)
            assert (k2, unlowered_of_odd) == (want_k2, unlowered)
            assert r2 == replace(want_r2, pre=edge_census(odd))
            odd_unlowered = noncanonical(unlowered)
            assert canonicalize(odd_unlowered) == unlowered
            for v_side in SIDES:
                yf = _fold_line(g, v_side)
                assert_folds_match(odd_unlowered, 1, yf, 2, v_side)
                want_k3, want_r3 = fold_vertical(unlowered, g, v_side)
                k3, r3 = fold_vertical(odd_unlowered, g, v_side)
                assert k3 == want_k3
                assert r3 == replace(want_r3, pre=edge_census(odd_unlowered))
