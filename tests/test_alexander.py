import importlib
import itertools
import logging
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conway_oracle import alexander_via_conway, gauss_code, torus_alexander
from knotfold import cli
from knotfold.alexander import _primes, _wirtinger_rows, alexander, project, same_knot_certificate
from knotfold.bounds import Provenance
from knotfold.cli import _along_x
from knotfold.diagram import build_diagram, same_r1_reduced_code
from knotfold.errors import MultiComponent, NoRegularShear
from knotfold.grid import grid_to_planar, parse_grid, random_grid
from knotfold.lattice import LatticeKnot, settle
from knotfold.laurent import LaurentPoly, parse_poly
from knotfold.pipeline import run_pipeline

TREFOIL_POLY = LaurentPoly({-1: 1, 0: -1, 1: 1})
FIG8_POLY = LaurentPoly({-1: -1, 0: 3, 1: -1})
CINQ_POLY = LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})


class TestAlexander:
    def test_unknot(self):
        pd = grid_to_planar(parse_grid("X: 1,2\nO: 2,1\n"))
        assert alexander(pd) == LaurentPoly.one()

    def test_corpus_published_values(self, corpus):
        by_name = {e.name: e for e in corpus}
        assert alexander(grid_to_planar(by_name["3_1"].diagram)) == TREFOIL_POLY
        assert alexander(grid_to_planar(by_name["4_1"].diagram)) == FIG8_POLY
        assert alexander(grid_to_planar(by_name["5_1"].diagram)) == CINQ_POLY

    def test_corpus_determinants(self, corpus):
        expected = {"3_1": 3, "4_1": 5, "5_1": 5, "7_1": 7, "9_1": 9}
        for entry in corpus:
            poly = alexander(grid_to_planar(entry.diagram))
            det = abs(poly(-1))
            assert det % 2 == 1  # knot determinants are odd
            if entry.name in expected:
                assert det == expected[entry.name]

    def test_corpus_matches_stored(self, corpus):
        for entry in corpus:
            assert alexander(grid_to_planar(entry.diagram)) == entry.alexander.normalize()

    def test_torus_formula_agreement(self, corpus):
        torus = {"3_1": (2, 3), "5_1": (2, 5), "t3_5": (3, 5), "7_1": (2, 7),
                 "t3_7": (3, 7), "9_1": (2, 9), "t5_7": (5, 7)}
        for entry in corpus:
            if entry.name in torus:
                p, q = torus[entry.name]
                assert alexander(grid_to_planar(entry.diagram)) == torus_alexander(p, q)

    def test_state_sum_oracle_small_diagrams(self, corpus):
        checked = 0
        for entry in corpus:
            pd = grid_to_planar(entry.diagram)
            if pd.crossing_count <= 8:
                assert alexander(pd) == alexander_via_conway(pd), entry.name
                checked += 1
        assert checked >= 4
        for g in (4, 5, 6):
            for seed in range(25):
                pd = grid_to_planar(random_grid(g, seed))
                if pd.crossing_count <= 8:
                    assert alexander(pd) == alexander_via_conway(pd), (g, seed)

    def test_normalization_properties(self):
        for g in (5, 6, 7):
            for seed in range(20):
                poly = alexander(grid_to_planar(random_grid(g, seed)))
                assert poly(1) == 1
                assert abs(poly(-1)) % 2 == 1  # knot determinants are odd
                assert poly.coeffs == {-k: v for k, v in poly.coeffs.items()}
                assert poly.normalize() == poly
                assert poly.min_exp == -poly.max_exp if poly.span else True

    def test_odd_span_determinant_fails_self_test(self, monkeypatch):
        # 1 + t passes the palindrome test but cannot be centred; it must
        # fail as a self-test, not escape from normalize() as ValueError
        engine = importlib.import_module("knotfold.alexander")  # the package attribute is the function
        monkeypatch.setattr(engine, "_core_det", lambda dense, rows_before: [1, 1])
        with pytest.raises(ArithmeticError, match="self-test failed: 1 \\+ t cannot be centred"):
            alexander(grid_to_planar(parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")))

    def test_dense_core_logged_at_debug(self, caplog):
        pd = grid_to_planar(random_grid(48, 1))  # its dense core has 7 rows
        with caplog.at_level(logging.DEBUG, logger="knotfold.alexander"):
            poly = alexander(pd)
        records = [r for r in caplog.records if r.name == "knotfold.alexander"]
        assert len(records) == 1
        rows, rows_before, lo, hi, centre, h, bits, primes = records[0].args
        assert rows == 7
        # the Wirtinger rows the core was eliminated from
        assert rows_before == len(_wirtinger_rows(pd)) == 28
        assert records[0].getMessage().startswith("dense core: 7 rows of 28, degrees ")
        # the polynomial's span is at most twice the distance from the
        # centre to the nearer end of the degree range [lo, hi]
        assert lo <= centre <= hi and h == min(centre - lo, hi - centre)
        assert 0 < poly.span <= 2 * h
        # the engine takes primes until their product exceeds twice the
        # coefficient bound B, and the record's bits say 2^(bits-1) <= B < 2^bits
        used = list(itertools.islice(_primes(), primes))
        assert math.prod(used) > 2**bits and math.prod(used[:-1]) < 2 ** (bits + 1)
        assert alexander(pd) == poly  # logging changes nothing



class TestDiagram:
    def test_refuses_a_role_passed_twice(self):
        code = [("a", True, 1), ("b", False, 1), ("a", True, 1), ("b", True, 1)]
        with pytest.raises(MultiComponent, match="'a' passed twice with the same role"):
            build_diagram(code)

    def test_refuses_a_crossing_passed_once(self):
        code = [("a", True, -1), ("b", False, 1), ("a", False, -1)]
        with pytest.raises(MultiComponent, match="'b' missing an over or under pass"):
            build_diagram(code)


@st.composite
def signed_codes(draw):
    """A signed Gauss code: every key passed once over and once under, one sign per key."""
    n = draw(st.integers(min_value=0, max_value=8))
    key = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    keys = draw(st.lists(key, min_size=n, max_size=n, unique=True))
    positions = draw(st.permutations(range(2 * n)))
    code = [None] * (2 * n)
    for key, p, q in zip(keys, positions[::2], positions[1::2]):
        over_first = draw(st.booleans())
        sign = draw(st.sampled_from((-1, 1)))
        code[p] = (key, over_first, sign)
        code[q] = (key, not over_first, sign)
    return code


@settings(max_examples=300, deadline=None)
@given(signed_codes())
def test_signed_code_round_trips(code):
    # crossings are numbered by first pass, so the code comes back with
    # its keys relabelled by first appearance
    first: dict = {}
    relabelled = tuple(
        (first.setdefault(key, len(first)), is_over, sign) for key, is_over, sign in code
    )
    assert gauss_code(build_diagram(code)) == (relabelled,)


class TestProject:
    def test_unknot_pipeline(self):
        res = run_pipeline(parse_grid("X: 1,2\nO: 2,1\n"))
        for step in (1, 2, 3):
            assert alexander(project(res.stages[step].knot)) == LaurentPoly.one()

    def test_trefoil_settle(self):
        k = settle(parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n"))
        assert alexander(project(k)) == TREFOIL_POLY

    def test_projection_carries_shear(self):
        k = settle(parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n"))
        pd = project(k)
        diam = max(max(c[i] for c in k.corners) - min(c[i] for c in k.corners) for i in range(3))
        assert pd.shear == (1, 2)
        assert pd.scale == 7 * (diam + 2)

    def test_self_intersecting_knot_is_refused(self):
        # the x-stick at y = 0 and the y-stick at x = 1 share (1, 0, 0)
        k = LatticeKnot(((0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, -1, 0), (0, -1, 0)))
        with pytest.raises(NoRegularShear, match=re.escape("lattice point (1, 0, 0) visited twice")):
            project(k)

    def test_preservation_across_stages(self, corpus_pipelines):
        for entry, res in corpus_pipelines:
            base = alexander(grid_to_planar(entry.diagram))
            for step in (1, 2, 3):
                knot = res.stages[step].knot
                poly = alexander(project(knot))
                assert same_knot_certificate(base, poly) == "consistent", (
                    entry.name,
                    step,
                )
                if step > 1:  # `certify` computes these along x
                    assert alexander(project(_along_x(knot))) == poly, (entry.name, step)


def test_step1_code_match_gives_the_base_polynomial_on_the_corpus(corpus_pipelines):
    for entry, res in corpus_pipelines:
        base = grid_to_planar(entry.diagram)
        pd = project(res.stages[1].knot)
        assert same_r1_reduced_code(pd, base), entry.name
        assert alexander(pd) == alexander(base) == entry.alexander, entry.name


# the stage gates' random diagrams: seeds 0-5 up to g = 64, seed 1 above
STAGE_GATE_GRIDS = [
    *((g, seed) for g in (2, 3, 5, 8, 13, 20, 32, 48, 64) for seed in range(6)),
    (96, 1),
    (128, 1),
]


@pytest.mark.parametrize("g,seed", STAGE_GATE_GRIDS)
def test_step1_code_match_gives_the_base_polynomial(g, seed):
    # `certify` takes the base polynomial for step 1 on a match, so the
    # polynomial it skips must be that one
    d = random_grid(g, seed)
    base = grid_to_planar(d)
    pd = project(run_pipeline(d, max_step=1).stages[1].knot)
    assert same_r1_reduced_code(pd, base)
    assert alexander(pd) == alexander(base)


def test_along_x_maps_every_corner_to_y_z_x():
    knot = settle(parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n"))
    turned = _along_x(knot)
    assert turned.corners == tuple((y, z, x) for x, y, z in knot.corners)
    assert _along_x(LatticeKnot(((1, 2, 3), (4, 2, 3)))).corners == ((2, 3, 1), (2, 3, 4))
    # three turns are the identity: a cyclic permutation, never a mirror
    assert _along_x(_along_x(turned)) == knot


@pytest.mark.parametrize("g,seed", STAGE_GATE_GRIDS)
def test_x_projection_gives_the_base_polynomial(g, seed):
    # `certify` computes the step-2 and step-3 polynomials along x, where
    # the Wirtinger matrix has fewer rows; they must be the z-projection's
    d = random_grid(g, seed)
    base = alexander(grid_to_planar(d))
    res = run_pipeline(d)
    for step in (2, 3):
        knot = res.stages[step].knot
        assert alexander(project(_along_x(knot))) == alexander(project(knot)) == base, step


def test_certify_projects_steps_2_and_3_along_x(monkeypatch):
    diagram = random_grid(20, 1)
    stages = run_pipeline(diagram).stages
    seen = []
    monkeypatch.setattr(cli, "project", lambda knot: seen.append(knot) or project(knot))
    certificates = cli._certify_spec(Provenance(label="r", g=20), diagram, None, 3)
    assert all(c.passed for c in certificates)
    # step 1 along z for its code match, then steps 2 and 3 along x
    assert seen == [stages[1].knot, _along_x(stages[2].knot), _along_x(stages[3].knot)]


class TestCertificates:
    def test_consistent(self):
        assert same_knot_certificate(TREFOIL_POLY, TREFOIL_POLY) == "consistent"

    def test_unknot_vs_trefoil(self):
        assert same_knot_certificate(TREFOIL_POLY, LaurentPoly.one()) == "inconsistent"

    def test_fig8_vs_cinquefoil(self):
        assert same_knot_certificate(FIG8_POLY, CINQ_POLY) == "inconsistent"

    def test_unnormalized_inputs(self):
        shifted = LaurentPoly({e + 4: v for e, v in TREFOIL_POLY.coeffs.items()})
        assert same_knot_certificate(shifted, TREFOIL_POLY) == "consistent"


def test_parse_poly_corpus_round_trip(corpus):
    for entry in corpus:
        assert parse_poly(str(entry.alexander)) == entry.alexander
