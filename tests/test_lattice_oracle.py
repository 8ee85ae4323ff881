"""validate_lattice against the point-walking oracle in ``lattice_oracle.py``.

validate_lattice tests self-avoidance on the covered intervals of sticks;
the oracle expands the curve into unit points.  Their reports must agree
exactly: ``ok``, the codes, and every message, including the point a
SelfIntersection names.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from knotfold.grid import random_grid
from knotfold.lattice import LatticeKnot, validate_lattice
from knotfold.pipeline import run_pipeline
from lattice_oracle import validate_lattice as validate_lattice_oracle


def assert_reports_match(k):
    got, want = validate_lattice(k), validate_lattice_oracle(k)
    assert (got.ok, got.codes(), str(got)) == (want.ok, want.codes(), str(want)), k


@st.composite
def short_stick_polygons(draw):
    """Closed corner lists of short sticks in a small box, so they often collide.

    The sticks overlap collinearly, cross, turn back along themselves and
    pass one point several times.  The list starts at a random corner and
    runs either way round, so a colliding stick may wrap the list start,
    and a scale stretches every stick alike.
    """
    box = range(4)
    corner = tuple(draw(st.sampled_from(box)) for _ in range(3))
    corners = [corner]
    for _ in range(draw(st.integers(2, 12))):
        axis = draw(st.integers(0, 2))
        value = draw(st.sampled_from([v for v in box if v != corner[axis]]))
        corner = tuple(value if j == axis else corner[j] for j in range(3))
        corners.append(corner)
    first = corners[0]
    # close up axis by axis, then drop the zero-length sticks this made
    corners.append((first[0], corner[1], corner[2]))
    corners.append((first[0], first[1], corner[2]))
    cycle = [c for c, nxt in zip(corners, corners[1:] + corners[:1]) if c != nxt]
    if draw(st.booleans()):
        cycle.reverse()
    shift = draw(st.integers(0, max(len(cycle) - 1, 0)))
    scale = draw(st.integers(1, 3))
    return LatticeKnot(
        tuple(tuple(scale * v for v in c) for c in cycle[shift:] + cycle[:shift])
    )


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(short_stick_polygons())
# the stick (3, 0, 0) -> (1, 0, 0) runs back over the first stick, and in
# the second list it wraps the list start
@example(LatticeKnot(((0, 0, 0), (4, 0, 0), (4, 1, 0), (3, 1, 0), (3, 0, 0), (1, 0, 0),
                      (1, -1, 0), (0, -1, 0))))
@example(LatticeKnot(((1, 0, 0), (1, -1, 0), (0, -1, 0), (0, 0, 0), (4, 0, 0), (4, 1, 0),
                      (3, 1, 0), (3, 0, 0))))
# a y-stick crosses an x-stick at (1, 1, 0)
@example(LatticeKnot(((0, 1, 0), (3, 1, 0), (3, 2, 0), (1, 2, 0), (1, 0, 0), (0, 0, 0))))
# a z-stick passes through an x-stick at (1, 0, 1)
@example(LatticeKnot(((0, 0, 1), (2, 0, 1), (2, 1, 1), (1, 1, 1), (1, 1, 2), (1, 0, 2),
                      (1, 0, 0), (0, 0, 0))))
# the last stick runs back along the first
@example(LatticeKnot(((3, 0, 2), (3, 1, 2), (0, 1, 2), (0, 4, 2), (0, 5, 2), (3, 5, 2))))
# an x-, a y- and a z-stick all pass through (1, 1, 0)
@example(LatticeKnot(((0, 1, 0), (2, 1, 0), (2, 0, 0), (1, 0, 0), (1, 2, 0), (1, 2, -1),
                      (1, 1, -1), (1, 1, 1), (0, 1, 1))))
def test_short_stick_polygons_hypothesis(k):
    assert_reports_match(k)


@pytest.mark.parametrize(
    "corners",
    [
        ((0, 0, 0),),
        ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0)),
        ((0, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)),
        ((0, 0, 0), (3, 0, 0), (3, 2, 0), (5, 2, 1)),
    ],
)
def test_structural_faults(corners):
    assert_reports_match(LatticeKnot(corners))


def test_pipeline_stages(corpus):
    diagrams = [entry.diagram for entry in corpus]
    diagrams += [random_grid(g, seed) for g in (2, 3, 8, 17, 32) for seed in range(3)]
    for d in diagrams:
        for stage in run_pipeline(d).stages.values():
            assert_reports_match(stage.knot)


def test_many_overlaps_in_bounded_memory():
    # 2000 sticks run back and forth over one segment, so every pair of
    # them overlaps; the report must not list the 2 million pairs
    k = LatticeKnot(tuple((10 * (i % 2), 0, 0) for i in range(2000)))
    tracemalloc.start()
    try:
        validate_lattice(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert_reports_match(k)
