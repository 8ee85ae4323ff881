"""Cube-symmetry invariance of the stage polynomials.

The Alexander polynomial does not change under rotation or mirroring
(Lickorish, An Introduction to Knot Theory, GTM 175, 1997, ch. 6), so
each of the 48 signed axis permutations of a stage knot must project to
the grid diagram's polynomial.  Most of them project with other
crossings, so a sign or orientation error in the projection, the
collapsed rows or the core determinant shows up at sizes that the Conway
oracle cannot reach.
"""

import itertools
import random

import pytest

from knotfold.alexander import alexander, project
from knotfold.grid import grid_to_planar, random_grid
from knotfold.lattice import LatticeKnot
from knotfold.pipeline import run_pipeline

SYMMETRIES = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def transformed(knot: LatticeKnot, perm, signs) -> LatticeKnot:
    return LatticeKnot(tuple(tuple(s * c[a] for a, s in zip(perm, signs)) for c in knot.corners))


def assert_invariant(g, seed, symmetries):
    diagram = random_grid(g, seed)
    base = alexander(grid_to_planar(diagram))
    res = run_pipeline(diagram)
    counts = set()
    for step in (1, 2, 3):
        knot = res.stages[step].knot
        for perm, signs in symmetries:
            pd = project(transformed(knot, perm, signs))
            counts.add(pd.crossing_count)
            assert alexander(pd) == base, (g, seed, step, perm, signs)
    return counts


def test_symmetry_group_has_48_elements():
    assert len(SYMMETRIES) == len(set(SYMMETRIES)) == 48


@pytest.mark.parametrize("g", range(4, 17, 2))
def test_all_symmetries_small(g):
    seen = set()
    for seed in range(3):
        seen |= assert_invariant(g, seed, SYMMETRIES)
    assert len(seen) > 3  # the projections differ, so the check is not vacuous


@pytest.mark.parametrize("g", [24, 32, 48, 64])
def test_sampled_symmetries_large(g):
    for seed in range(2):
        assert_invariant(g, seed, random.Random(g + seed).sample(SYMMETRIES, 8))
