import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfold.diagram import build_diagram
from knotfold.errors import (
    MalformedInput,
    NotAPermutation,
    SameCellXO,
    SizeTooSmall,
)
from knotfold.grid import (
    GridDiagram,
    component_count,
    grid_to_planar,
    parse_grid,
    random_grid,
    serialize_grid,
    validate_grid,
)

TREFOIL = "X: 1,2,3,4,5\nO: 3,4,5,1,2\n"
UNKNOT2 = "X: 1,2\nO: 2,1\n"


def brute_force_crossings(d: GridDiagram) -> int:
    """Independent double-loop count of strictly crossing (row, col) pairs."""
    count = 0
    x_row = {c: r + 1 for r, c in enumerate(d.x_col)}
    o_row = {c: r + 1 for r, c in enumerate(d.o_col)}
    for r in range(1, d.size + 1):
        a, b = d.x_col[r - 1], d.o_col[r - 1]
        for c in range(1, d.size + 1):
            lo, hi = x_row[c], o_row[c]
            if min(a, b) < c < max(a, b) and min(lo, hi) < r < max(lo, hi):
                count += 1
    return count


def brute_force_components(d: GridDiagram) -> int:
    """Cycle count by marking markers along strand traversals."""
    unvisited = {("x", r) for r in range(1, d.size + 1)}
    x_row = {c: r + 1 for r, c in enumerate(d.x_col)}
    cycles = 0
    while unvisited:
        cycles += 1
        start = next(iter(unvisited))
        r = start[1]
        while ("x", r) in unvisited:
            unvisited.discard(("x", r))
            r = x_row[d.o_col[r - 1]]
    return cycles


def walk_code(d: GridDiagram) -> list:
    """Signed Gauss code by walking the grid curve one unit step at a time.

    The walk starts at row 1's X marker and runs along the row to its O
    marker, then along that column to its X marker, and so on until it is
    back.  A point strictly inside both a row strand and a column strand
    is a crossing, keyed (row, column), with the column strand over.  Its
    sign is +1 when the under strand points a quarter turn counterclockwise
    from the over strand (up over left, down over right), else -1.
    """
    x_row = {c: r for r, c in enumerate(d.x_col, start=1)}
    o_row = {c: r for r, c in enumerate(d.o_col, start=1)}

    def inside_row(r, c):
        return min(d.x_col[r - 1], d.o_col[r - 1]) < c < max(d.x_col[r - 1], d.o_col[r - 1])

    def inside_column(r, c):
        return min(x_row[c], o_row[c]) < r < max(x_row[c], o_row[c])

    def sign(r, c):
        up = x_row[c] > o_row[c]  # columns run O -> X
        left = d.o_col[r - 1] < d.x_col[r - 1]  # rows run X -> O
        return 1 if up == left else -1

    code = []
    r, c = 1, d.x_col[0]
    while True:
        while c != d.o_col[r - 1]:
            c += 1 if d.o_col[r - 1] > c else -1
            if inside_row(r, c) and inside_column(r, c):
                code.append(((r, c), False, sign(r, c)))
        while r != x_row[c]:
            r += 1 if x_row[c] > r else -1
            if inside_row(r, c) and inside_column(r, c):
                code.append(((r, c), True, sign(r, c)))
        if r == 1:
            return code


class TestParse:
    def test_list_form_trefoil(self):
        d = parse_grid(TREFOIL)
        assert d.size == 5
        assert d.x_col == (1, 2, 3, 4, 5)
        assert d.o_col == (3, 4, 5, 1, 2)

    def test_matrix_form(self):
        text = serialize_grid(parse_grid(TREFOIL), form="matrix")
        assert parse_grid(text) == parse_grid(TREFOIL)

    def test_comments_and_whitespace(self):
        d = parse_grid("# a trefoil\n X :  1, 2,3,4,5\nO: 3,4,5,1,2  # shifted\n\n")
        assert d == parse_grid(TREFOIL)

    def test_unknot_rectangle(self):
        d = parse_grid(UNKNOT2)
        assert d.size == 2

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            parse_grid("X: 1,1\nO: 2,2\n")

    def test_same_cell(self):
        with pytest.raises(SameCellXO):
            parse_grid("X: 1,2\nO: 1,2\n")

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            parse_grid("garbage\n")
        with pytest.raises(MalformedInput):
            parse_grid("")
        with pytest.raises(MalformedInput):
            parse_grid("X: 1,2\n")
        with pytest.raises(MalformedInput):
            parse_grid("X.O\nOX.\n..X\n")

    def test_round_trip_both_forms(self, corpus):
        for entry in corpus:
            d = entry.diagram
            assert parse_grid(serialize_grid(d, "lists")) == d
            assert parse_grid(serialize_grid(d, "matrix")) == d


class TestValidate:
    def test_trefoil_clean(self):
        assert validate_grid(parse_grid(TREFOIL)).ok

    def test_g1_forced_same_cell(self):
        report = validate_grid(GridDiagram(1, (1,), (1,)))
        assert "SameCellXO" in report.codes()

    def test_two_components_flagged(self):
        # X identity, O swapping two disjoint pairs: two rectangles
        d = GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3))
        report = validate_grid(d)
        assert "MultiComponent" in report.codes()
        assert brute_force_components(d) == 2

    def test_component_count_matches_brute_force(self):
        for g in range(2, 8):
            for seed in range(20):
                d = random_grid(g, seed)
                assert component_count(d) == brute_force_components(d) == 1


class TestPlanar:
    def test_unknot_no_crossings(self):
        assert grid_to_planar(parse_grid(UNKNOT2)).crossing_count == 0

    def test_trefoil_crossings(self):
        assert grid_to_planar(parse_grid(TREFOIL)).crossing_count == 3

    def test_unit_step_walk_gives_the_same_code(self, corpus):
        diagrams = [entry.diagram for entry in corpus]
        diagrams += [random_grid(g, seed) for g in range(2, 13) for seed in range(20)]
        for d in diagrams:
            assert build_diagram(walk_code(d)) == grid_to_planar(d), d

    def test_crossing_count_matches_brute_force(self):
        for g in range(2, 9):
            for seed in range(15):
                d = random_grid(g, seed)
                assert grid_to_planar(d).crossing_count == brute_force_crossings(d)

    def test_crossing_count_bound(self):
        for g in range(2, 9):
            for seed in range(15):
                d = random_grid(g, seed)
                assert grid_to_planar(d).crossing_count <= (g - 1) ** 2


class TestRandom:
    def test_size_too_small(self):
        with pytest.raises(SizeTooSmall):
            random_grid(1, 0)

    def test_g2_is_rectangle(self):
        for seed in range(10):
            d = random_grid(2, seed)
            assert sorted((d.x_col, d.o_col)) == [(1, 2), (2, 1)]

    def test_deterministic(self):
        assert random_grid(6, 7) == random_grid(6, 7)
        assert random_grid(5, 1) != random_grid(5, 2) or True  # seeds may rarely agree

    def test_validity_over_seeds(self):
        for seed in range(1, 501):
            assert validate_grid(random_grid(5, seed)).ok

    def test_distribution_g4(self):
        for seed in range(1000):
            d = random_grid(4, seed)
            assert validate_grid(d).ok
            assert component_count(d) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_random_grid_always_valid(g, seed):
    assert validate_grid(random_grid(g, seed)).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_serialize_round_trip_random(g, seed):
    d = random_grid(g, seed)
    assert parse_grid(serialize_grid(d, "lists")) == d
    assert parse_grid(serialize_grid(d, "matrix")) == d
