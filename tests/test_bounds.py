from fractions import Fraction

import pytest

from knotfold.bounds import (
    PiExpr,
    Provenance,
    certify,
    comparator_bounds,
    rop_step_bound,
    step_bound,
    theorem_len_bound,
    theorem_rop_bound,
    theorem_rop_decimal,
)
from knotfold.errors import CrossingTooSmall, SizeTooSmall
from knotfold.grid import parse_grid
from knotfold.lattice import LatticeKnot, settle

F = Fraction

# hand-evaluated step bounds for g = 4..13
STEP_TABLE = {
    1: {4: 24, 5: 34, 6: 48, 7: 62, 8: 80, 9: 98, 10: 120, 11: 142, 12: 168, 13: 194},
    2: {4: 16, 5: 26, 6: 36, 7: 48, 8: 60, 9: 76, 10: 92, 11: 110, 12: 128, 13: 150},
    3: {4: 24, 5: 37, 6: 48, 7: 62, 8: 74, 9: 92, 10: 108, 11: 127, 12: 144, 13: 167},
}

# hand-evaluated quadratic forms at c = 3..16: (general a, general b, nap a, nap b)
THEOREM_TABLE = {
    3: (F(26), F(37), F(10), F(17)),
    4: (F(145, 4), F(391, 8), F(69, 4), F(211, 8)),
    5: (F(48), F(62), F(26), F(37)),
    6: (F(245, 4), F(611, 8), F(145, 4), F(391, 8)),
    7: (F(76), F(92), F(48), F(62)),
    8: (F(369, 4), F(871, 8), F(245, 4), F(611, 8)),
    9: (F(110), F(127), F(76), F(92)),
    10: (F(517, 4), F(1171, 8), F(369, 4), F(871, 8)),
    11: (F(150), F(167), F(110), F(127)),
    12: (F(689, 4), F(1511, 8), F(517, 4), F(1171, 8)),
    13: (F(196), F(212), F(150), F(167)),
    14: (F(885, 4), F(1891, 8), F(689, 4), F(1511, 8)),
    15: (F(248), F(262), F(196), F(212)),
    16: (F(1105, 4), F(2311, 8), F(885, 4), F(1891, 8)),
}


class TestStepBound:
    def test_hand_values(self):
        for step, table in STEP_TABLE.items():
            for g, expected in table.items():
                assert step_bound(step, g).value == F(expected), (step, g)

    def test_parity_cases(self):
        assert step_bound(2, 5).parity_case == "odd"
        assert step_bound(2, 8).parity_case == "4k"
        assert step_bound(2, 6).parity_case == "4k+2"
        assert step_bound(3, 2).value == F(8)  # 4k+2 case at g=2

    def test_examples(self):
        assert step_bound(1, 5).value == 34
        assert step_bound(2, 5).value == 26
        assert step_bound(3, 8).value == 74

    def test_small_g(self):
        with pytest.raises(SizeTooSmall):
            step_bound(1, 1)

    def test_nonnegative_up_to_100(self):
        for g in range(2, 101):
            for step in (1, 2, 3):
                assert step_bound(step, g).value >= 0
                assert rop_step_bound(step, g).value.lo() >= 0

    def test_denominators_divide_8(self):
        for g in range(2, 41):
            for step in (1, 2, 3):
                assert 8 % step_bound(step, g).value.denominator == 0

    def test_step2_always_below_step1(self):
        for g in range(2, 41):
            assert step_bound(2, g).value < step_bound(1, g).value

    def test_step3_below_step1_from_g8(self):
        # equality holds at g=4 and g=7; strict improvement needs g >= 8
        for g in range(8, 41):
            assert step_bound(3, g).value < step_bound(1, g).value
        assert step_bound(3, 4).value == step_bound(1, 4).value
        assert step_bound(3, 7).value == step_bound(1, 7).value

    def test_step3_vs_step2_crossover(self):
        # the two quadratics cross at 12 + sqrt(137) + ... i.e. between 23 and 24
        for g in range(4, 24):
            assert step_bound(2, g).value < step_bound(3, g).value
        for g in range(24, 60):
            assert step_bound(3, g).value <= step_bound(2, g).value


class TestTheoremLen:
    def test_hand_values(self):
        for c, (ga, gb, na, nb) in THEOREM_TABLE.items():
            g = theorem_len_bound(c)
            n = theorem_len_bound(c, nonalternating_prime=True)
            assert g.form_a.value == ga, c
            assert g.form_b.value == gb, c
            assert n.form_a.value == na, c
            assert n.form_b.value == nb, c
            assert g.value == min(ga, gb)
            assert n.value == min(na, nb)

    def test_c3_general(self):
        tb = theorem_len_bound(3)
        assert tb.value == 26
        assert (tb.form_a.value, tb.form_b.value) == (26, 37)

    def test_c10(self):
        assert theorem_len_bound(10).value == F(517, 4)  # 129.25
        assert theorem_len_bound(10, nonalternating_prime=True).value == F(369, 4)

    def test_min_form_crossover(self):
        # derived from the quadratic root 10 + sqrt(137) ~ 21.70
        b21 = theorem_len_bound(21)
        b22 = theorem_len_bound(22)
        assert b21.value == b21.form_a.value < b21.form_b.value
        assert b22.value == b22.form_b.value < b22.form_a.value

    def test_crossing_too_small(self):
        with pytest.raises(CrossingTooSmall):
            theorem_len_bound(2)


class TestTheoremRop:
    def test_c3_values(self):
        tb = theorem_rop_bound(3)
        # first form: 32 + 5*pi
        assert tb.form_a.value == PiExpr(F(32), F(5))
        assert abs(float(tb.form_a.value) - 47.70796) < 1e-4
        dec_a, _dec_b = theorem_rop_decimal(3)
        assert dec_a == F(4774, 100)
        assert PiExpr(F(32), F(5)).le(dec_a)

    def test_decimal_dominates_exact_3_to_100(self):
        for c in range(3, 101):
            tb = theorem_rop_bound(c)
            dec_a, dec_b = theorem_rop_decimal(c)
            assert tb.form_a.value.le(dec_a), c
            assert tb.form_b.value.le(dec_b), c

    def test_nap_c4_forms(self):
        tb = theorem_rop_bound(4, nonalternating_prime=True)
        assert tb.form_a.value == PiExpr(F(24) - F(11, 2), F(4))
        assert tb.form_b.value == PiExpr(F(20) + F(32) - F(29, 4), F(2))

    def test_crossing_too_small(self):
        with pytest.raises(CrossingTooSmall):
            theorem_rop_bound(2)


class TestComparators:
    def test_c3_values(self):
        comps = {b.formula_id: b for b in comparator_bounds(3)}
        assert comps["cantarella_rop"].value == F(4457, 100)
        assert comps["prior_len"].value == F(20)
        assert abs(comps["diao_len"].value - (136 * 3**1.5 + 84 * 3 + 22 * 3**0.5 + 11)) < 1e-9

    def test_c100_dominance(self):
        ours = theorem_rop_bound(100).form_a.value
        comps = {b.formula_id: b.value for b in comparator_bounds(100)}
        assert float(ours) < float(comps["cantarella_rop"])

    def test_quadratic_below_diao_up_to_60(self):
        for c in range(3, 61):
            ours = float(theorem_rop_bound(c).form_a.value)
            diao = next(b.value for b in comparator_bounds(c) if b.formula_id == "diao_rop")
            assert ours < diao, c


class TestPiExpr:
    def test_exact_comparisons(self):
        a = PiExpr(F(0), F(1))  # pi
        b = PiExpr(F(4))
        assert a.le(b)
        assert not b.le(a)
        assert PiExpr(F(2)).le(PiExpr(F(2)))

    def test_rational_only_is_exact(self):
        assert PiExpr(F(1, 3)).le(F(1, 3))
        assert not PiExpr(F(1, 3) + F(1, 10**15)).le(F(1, 3))

    def test_float_value(self):
        import math

        assert abs(float(PiExpr(F(1), F(2))) - (1 + 2 * math.pi)) < 1e-12


class TestCertify:
    def test_trefoil_step2_passes(self):
        from knotfold.lattice import fold_horizontal

        d = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
        for side in ("high", "low"):
            k, _, _ = fold_horizontal(settle(d), 5, side)
            cert = certify(
                k,
                Provenance(label="3_1", g=5, step=2, crossing_number=3, known_minimum_edges=24),
            )
            assert cert.passed
            names = {c.name for c in cert.checks}
            assert "edges_le_step2_bound" in names
            assert "edges_le_len_bound_c3" in names
            assert "edges_ge_known_minimum" in names

    def test_invalid_knot_fails(self):
        bad = LatticeKnot(((0, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)))
        cert = certify(bad, Provenance(label="bad", g=2, step=1))
        assert not cert.passed
        assert not cert.checks[0].passed

    def test_known_minimum_violation_fails(self):
        d = parse_grid("X: 1,2\nO: 2,1\n")
        cert = certify(
            settle(d), Provenance(label="u", g=2, step=1, known_minimum_edges=100)
        )
        assert not cert.passed

    def test_render_and_dict(self):
        d = parse_grid("X: 1,2\nO: 2,1\n")
        cert = certify(settle(d), Provenance(label="u", g=2, step=1))
        text = cert.render_text()
        assert "certificate u step 1" in text
        assert "overall: PASS" in text
        blob = cert.as_dict()
        assert blob["passed"] is True
        assert blob["census"]["total_edges"] == 8
