"""The engine's base polynomials against the grid-matrix determinant identity.

`grid_matrix_oracle` imports nothing from `knotfold.alexander`, so it
checks the base polynomial of a random grid diagram at sizes the Conway
oracle cannot reach.  Every stage polynomial is certified against the
base one, so this backs the whole chain.
"""

import pytest

from grid_matrix_oracle import identity_holds, winding_numbers
from knotfold.alexander import alexander
from knotfold.grid import grid_to_planar, parse_grid, random_grid


def test_winding_numbers_of_the_two_by_two_unknot():
    # one loop around the lattice point (1, 1), the only one inside it
    assert winding_numbers((1, 2), (2, 1)) == [[0, 0], [0, -1]]


def test_winding_numbers_vanish_on_the_boundary():
    d = random_grid(40, 3)
    w = winding_numbers(d.x_col, d.o_col)
    assert all(v == 0 for v in w[0]) and all(row[0] == 0 for row in w)
    assert any(v for row in w for v in row)


def test_corpus_published_polynomials(corpus):
    for entry in corpus:
        d = entry.diagram
        assert identity_holds(d.x_col, d.o_col, entry.alexander.coeffs), entry.name


@pytest.mark.parametrize("g,seed", [
    (g, seed) for g in (2, 3, 5, 8, 13, 20, 32, 48, 64, 96, 128) for seed in range(4)
])
def test_base_polynomial(g, seed):
    d = random_grid(g, seed)
    assert identity_holds(d.x_col, d.o_col, alexander(grid_to_planar(d)).coeffs)


def test_unit_multiples_pass_and_a_bumped_pair_fails():
    d = random_grid(48, 1)
    coeffs = alexander(grid_to_planar(d)).coeffs
    assert max(coeffs) >= 2
    # the identity holds up to +-t^k
    assert identity_holds(d.x_col, d.o_col, {e + 3: -c for e, c in coeffs.items()})
    bumped = dict(coeffs)
    bumped[2] += 1
    bumped[-2] += 1
    assert not identity_holds(d.x_col, d.o_col, bumped)
    # Delta + (t - 3) agrees with Delta at t = 3, the first point, only
    shifted = dict(coeffs)
    shifted[1] += 1
    shifted[0] -= 3
    assert not identity_holds(d.x_col, d.o_col, shifted)


def test_another_knots_polynomial_fails():
    trefoil = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    figure_eight = {-1: -1, 0: 3, 1: -1}
    assert not identity_holds(trefoil.x_col, trefoil.o_col, figure_eight)
    assert identity_holds(trefoil.x_col, trefoil.o_col, {-1: 1, 0: -1, 1: 1})
