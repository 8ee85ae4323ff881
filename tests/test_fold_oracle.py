"""The stick-walking fold against the point-walking oracle.

``knotfold.lattice._fold`` walks the sticks of its input knot; the oracle
in ``fold_oracle.py`` walks the knot's unit-point cycle point by point.
Both must return the same folded point cycle, removed-edge count and
bridge count, or fail with the same error, for both fold axes and both
sides.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fold_oracle import fold_oracle
from knotfold.grid import random_grid
from knotfold.lattice import (
    LatticeKnot,
    _fold,
    _fold_line,
    canonicalize,
    edge_census,
    fold_horizontal,
    fold_vertical,
    settle,
    unit_points,
)

SIDES = ("high", "low")


def outcome(fold, *args):
    """What a fold returns, or the type and text of the error it raises."""
    try:
        return fold(*args)
    except Exception as exc:  # the two must fail alike, whatever the error
        return type(exc).__name__, str(exc)


def assert_folds_match(k, axis, line, level, side):
    got = outcome(_fold, k, axis, line, level, side)
    want = outcome(lambda: fold_oracle(unit_points(k), axis, line, level, side))
    assert got == want, (axis, line, level, side)


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
    assert_folds_match(data.draw(lattice_polygons(level)), axis, line, level, side)


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
