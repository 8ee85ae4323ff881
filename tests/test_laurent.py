from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotfold.laurent import LaurentPoly, parse_poly


def test_evaluation():
    p = LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert p(1) == 1
    assert p(-1) == -3


def test_evaluation_at_integers_matches_fractions():
    polys = [
        LaurentPoly({-1: 1, 0: -1, 1: 1}),
        LaurentPoly({-3: 2, -1: -5, 2: 7}),
        LaurentPoly({0: 4, 3: -1}),
        LaurentPoly({-2: 3, 1: 1}),
        LaurentPoly.zero(),
    ]
    for p in polys:
        for t in (-3, -2, -1, 1, 2, 5):
            want = sum(v * Fraction(t) ** k for k, v in p.coeffs.items())
            got = p(t)
            assert got == want
            # an integral value comes back as an int, as before
            assert type(got) is (int if want.denominator == 1 else Fraction)
    assert LaurentPoly({-2: 3, 1: 1})(2) == Fraction(11, 4)
    assert LaurentPoly({-2: 3, 1: 1})(-2) == Fraction(-5, 4)
    assert LaurentPoly({-1: 4, 1: 1})(2) == 4


def test_evaluation_at_zero():
    assert LaurentPoly({0: 5, 2: 1})(0) == 5
    assert LaurentPoly({1: 1})(0) == 0
    assert LaurentPoly.zero()(0) == 0
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: 1, 0: 1})(0)


def test_evaluation_at_integers_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built at an integer point")

    monkeypatch.setattr("knotfold.laurent.Fraction", no_fraction)
    assert LaurentPoly({-4: 1, -3: -1, -1: 1, 0: -1, 1: 1, 3: -1, 4: 1})(1) == 1
    assert LaurentPoly({-1: 2, 0: -3, 1: 2})(-1) == -7


def test_normalize_centers_and_signs():
    assert LaurentPoly({3: 1, 5: -1, 7: 1}).normalize() == LaurentPoly({-2: 1, 0: -1, 2: 1})
    assert LaurentPoly({0: -1, 1: 3, 2: -1}).normalize() == LaurentPoly({-1: -1, 0: 3, 1: -1})
    # sign convention: positive at t=1
    assert LaurentPoly({0: -1}).normalize() == LaurentPoly({0: 1})


def test_normalize_rejects_odd_span():
    with pytest.raises(ValueError):
        LaurentPoly({0: 1, 1: 1}).normalize()


def test_printing_examples():
    assert str(LaurentPoly({-1: 1, 0: -1, 1: 1})) == "t^-1 - 1 + t"
    assert str(LaurentPoly({0: 3})) == "3"
    assert str(LaurentPoly({1: -2, 3: 1})) == "-2*t + t^3"
    assert str(LaurentPoly.zero()) == "0"


def test_parse_examples():
    assert parse_poly("t^-1 - 1 + t") == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert parse_poly("-t^-1 + 3 - t") == LaurentPoly({-1: -1, 0: 3, 1: -1})
    assert parse_poly("0") == LaurentPoly.zero()
    assert parse_poly("5") == LaurentPoly({0: 5})
    with pytest.raises(ValueError):
        parse_poly("t^")
    with pytest.raises(ValueError):
        parse_poly("")


@given(
    st.dictionaries(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-50, max_value=50),
        max_size=8,
    )
)
def test_print_parse_round_trip(coeffs):
    p = LaurentPoly(coeffs)
    assert parse_poly(str(p)) == p
