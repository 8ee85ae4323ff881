"""Integer Laurent polynomials in one variable t.

A small, exact, dictionary-backed value type: construction, evaluation at
an integer, the normalized form, equality, printing and parsing.  It has
no ring arithmetic; the engine computes on its own coefficient dicts and
lists and wraps only the result.  The normalized form used for knot
certificates centers the exponent range and fixes the sign so the value
at t=1 is positive; that resolves the usual unit ambiguity of
determinant-derived invariants.
"""

from __future__ import annotations

import re
from fractions import Fraction


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in dict(coeffs).items():
                if v:
                    c[int(k)] = int(v)
        object.__setattr__(self, "_c", c)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- basic protocol ------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __call__(self, value: int):
        """Evaluate at an int; t=0 requires no negative exponents.

        The value is taken in integers as num / t**-low, where low is the
        least exponent or 0, whichever is smaller, and a Fraction is built
        only when t**-low does not divide num.
        """
        low = min([0, *self._c])
        num = sum(v * value ** (k - low) for k, v in self._c.items())
        den = value**-low
        return num // den if num % den == 0 else Fraction(num, den)

    # -- structure -----------------------------------------------------

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    @property
    def span(self) -> int:
        return 0 if not self._c else self.max_exp - self.min_exp

    def normalize(self) -> "LaurentPoly":
        """Canonical representative of {+-t^k * p}.

        Centers the exponent range (so p(t) and p(1/t) agree termwise for
        palindromic polynomials) and makes the value at t=1 positive, falling
        back to a positive leading coefficient when p(1) == 0.
        """
        if not self._c:
            return self
        s = self.min_exp + self.max_exp
        if s % 2 != 0:
            raise ValueError("exponent range cannot be centered; span is odd")
        at_one = sum(self._c.values())
        sign = -1 if at_one < 0 or (at_one == 0 and self._c[self.max_exp] < 0) else 1
        return LaurentPoly({e - s // 2: sign * v for e, v in self._c.items()})

    # -- printing / parsing ---------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c):
            v = self._c[k]
            if k == 0:
                body = str(abs(v))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                body = tpow if abs(v) == 1 else f"{abs(v)}*{tpow}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(("+ " if v > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"


_TERM_RE = re.compile(
    r"^(?P<coef>\d+)?(?:(?(coef)\*?)(?P<t>t)(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the output of LaurentPoly.__str__ back into a polynomial."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return LaurentPoly.zero()
    s = s.replace("-", " - ").replace("+", " + ")
    # undo the split inside exponents like t^ - 3
    s = re.sub(r"\^\s*-\s*", "^-", s)
    tokens = s.split()
    coeffs: dict[int, int] = {}
    sign = 1
    expect_term = True
    for tok in tokens:
        if tok == "+":
            sign = 1
            expect_term = True
            continue
        if tok == "-":
            sign = -1
            expect_term = True
            continue
        if not expect_term:
            raise ValueError(f"unexpected term {tok!r} in {text!r}")
        m = _TERM_RE.match(tok)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise ValueError(f"cannot parse term {tok!r} in {text!r}")
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError(f"dangling sign in {text!r}")
    return LaurentPoly(coeffs)
