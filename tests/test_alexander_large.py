"""Large-g checks of the Alexander polynomial that share no code with it.

The grid-determinant identity (Ozsvath-Stipsicz-Szabo, Grid Homology for
Knots and Links, ch. 3) is the benchmark's own output check, loaded from
perfbench/checks.py, which imports nothing from knotfold.  Cromwell moves
(cyclic permutation, commutation, stabilisation; Cromwell 1995, Dynnikov
2006) change a grid diagram without changing its knot, so they must leave
the polynomial alone and the diagram must still certify.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from knotfold.alexander import alexander
from knotfold.cli import main
from knotfold.grid import GridDiagram, grid_to_planar, random_grid, serialize_grid, validate_grid

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
)
_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_checks)
grid_identity_holds = _checks.grid_identity_holds


def identity_holds(d: GridDiagram, poly) -> bool:
    return grid_identity_holds(d.x_col, d.o_col, poly.coeffs)


@pytest.mark.parametrize("g,seed", [(12, 0), (24, 1), (40, 2), (52, 3), (64, 4)])
def test_grid_identity(g, seed):
    d = random_grid(g, seed)
    poly = alexander(grid_to_planar(d))
    assert identity_holds(d, poly)
    wrong = poly.coeffs
    wrong[0] += 2  # still odd at t=-1, but not this knot's polynomial
    assert not grid_identity_holds(d.x_col, d.o_col, wrong)


# ---------------------------------------------------------------------------
# Cromwell moves on (x_col, o_col): row r holds X in column x_col[r-1]


def cycle_rows(d: GridDiagram) -> GridDiagram:
    """The bottom row moves to the top."""
    return GridDiagram(d.size, d.x_col[1:] + d.x_col[:1], d.o_col[1:] + d.o_col[:1])


def cycle_columns(d: GridDiagram) -> GridDiagram:
    """The rightmost column moves to the left edge."""
    g = d.size
    return GridDiagram(
        g, tuple(c % g + 1 for c in d.x_col), tuple(c % g + 1 for c in d.o_col)
    )


def commute_columns(d: GridDiagram, c: int) -> GridDiagram | None:
    """Swap columns c and c+1 if their vertical strands do not interleave."""
    rows = []
    for col in (c, c + 1):
        rows.append(sorted((d.x_col.index(col), d.o_col.index(col))))
    (a, b), (p, q) = rows
    if not (b < p or q < a or a < p < q < b or p < a < b < q):
        return None
    swap = {c: c + 1, c + 1: c}
    return GridDiagram(
        d.size,
        tuple(swap.get(x, x) for x in d.x_col),
        tuple(swap.get(o, o) for o in d.o_col),
    )


def stabilise(d: GridDiagram, r: int) -> GridDiagram:
    """Replace the X of row r by a 2x2 block: a new row above, a new column right."""
    c = d.x_col[r - 1]
    x = [col + (col > c) for col in d.x_col]
    o = [col + (col > c) for col in d.o_col]
    x[r - 1] = c + 1
    x.insert(r, c)
    o.insert(r, c + 1)
    return GridDiagram(d.size + 1, tuple(x), tuple(o))


def cromwell_walk(d: GridDiagram, rng: random.Random, moves: int, g_max: int):
    """Apply random Cromwell moves; yields each diagram reached."""
    for _ in range(moves):
        kind = rng.choice(["rows", "columns", "commute", "stabilise"])
        if kind == "rows":
            d = cycle_rows(d)
        elif kind == "columns":
            d = cycle_columns(d)
        elif kind == "commute":
            d = commute_columns(d, rng.randint(1, d.size - 1)) or d
        elif d.size < g_max:
            d = stabilise(d, rng.randint(1, d.size))
        assert validate_grid(d).ok
        yield d


@pytest.mark.parametrize("g,seed", [(8, 0), (30, 1), (58, 2)])
def test_cromwell_moves_keep_the_polynomial(g, seed, tmp_path):
    d = random_grid(g, seed)
    poly = alexander(grid_to_planar(d))
    rng = random.Random(seed)
    for idx, d in enumerate(cromwell_walk(d, rng, 60, 64)):
        if idx % 10 == 9:
            assert alexander(grid_to_planar(d)) == poly, (g, seed, idx)
    assert d.size > g
    assert identity_holds(d, poly)
    grid = tmp_path / "moved.grid"
    grid.write_text(serialize_grid(d))
    assert main(["certify", "--input", str(grid), "--out", str(tmp_path / "out")]) == 0
