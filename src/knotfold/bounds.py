"""Bound formulas and certificates for folded lattice knots.

Edge-count bounds are exact rationals (denominators divide 8); rope
bounds are exact combinations a + b*pi compared through outward-rounded
interval arithmetic, so a certificate can never pass because of floating
point rounding.  Square-root comparator values are floats accurate to
1e-12 and are only used for reporting and coarse comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossingTooSmall, SizeTooSmall
from .lattice import EdgeCensus, LatticeKnot, edge_census, validate_lattice

__all__ = [
    "PiExpr",
    "BoundValue",
    "TheoremBound",
    "step_bound",
    "rop_step_bound",
    "theorem_len_bound",
    "theorem_rop_bound",
    "theorem_rop_decimal",
    "comparator_bounds",
    "Provenance",
    "BoundCheck",
    "Certificate",
    "certify",
]

# rational enclosure of pi, sufficient for 1e-12 outward rounding
_PI_LO = Fraction(3141592653589793, 10**15)
_PI_HI = Fraction(3141592653589794, 10**15)


@dataclass(frozen=True)
class PiExpr:
    """Exact value rational + pi_coeff * pi."""

    rational: Fraction
    pi_coeff: Fraction = Fraction(0)

    def lo(self) -> Fraction:
        return self.rational + self.pi_coeff * (_PI_LO if self.pi_coeff >= 0 else _PI_HI)

    def hi(self) -> Fraction:
        return self.rational + self.pi_coeff * (_PI_HI if self.pi_coeff >= 0 else _PI_LO)

    def __float__(self) -> float:
        return float(self.rational) + float(self.pi_coeff) * math.pi

    def __add__(self, other: "PiExpr") -> "PiExpr":
        return PiExpr(self.rational + other.rational, self.pi_coeff + other.pi_coeff)

    def __sub__(self, other: "PiExpr") -> "PiExpr":
        return PiExpr(self.rational - other.rational, self.pi_coeff - other.pi_coeff)

    def le(self, other) -> bool:
        """Certified self <= other; ambiguity inside the pi interval fails."""
        diff = _as_piexpr(other) - self
        if diff.pi_coeff == 0:
            return diff.rational >= 0
        return diff.lo() >= 0

    def __eq__(self, other) -> bool:
        o = _as_piexpr(other)
        return self.rational == o.rational and self.pi_coeff == o.pi_coeff

    def __hash__(self):
        return hash((self.rational, self.pi_coeff))

    def __str__(self) -> str:
        if self.pi_coeff == 0:
            return str(self.rational)
        if self.rational == 0:
            return f"{self.pi_coeff}*pi"
        return f"{self.rational} + {self.pi_coeff}*pi"


def _as_piexpr(v) -> PiExpr:
    if isinstance(v, PiExpr):
        return v
    return PiExpr(Fraction(v))


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: exact where possible, float for root forms."""

    value: object  # Fraction | PiExpr | float
    formula_id: str
    parity_case: str = "n/a"

    def __float__(self) -> float:
        return float(self.value)


def _parity(g: int) -> str:
    if g % 2:
        return "odd"
    return "4k" if g % 4 == 0 else "4k+2"


def step_bound(step: int, g: int) -> BoundValue:
    """Maximum edge count after a pipeline step, by parity class of g."""
    if g < 2:
        raise SizeTooSmall(f"bounds need g >= 2, got {g}")
    parity = _parity(g)
    if step == 1:
        value = Fraction(g * g + 2 * g - (1 if g % 2 else 0))
    elif step == 2:
        c = {"odd": 11, "4k": 16, "4k+2": 12}[parity]
        value = Fraction(3 * g * g + 8 * g - c, 4)
    elif step == 3:
        c = {"odd": 29, "4k": 48, "4k+2": 36}[parity]
        value = Fraction(5 * g * g + 40 * g - c, 8)
    else:
        raise ValueError(f"step must be 1, 2 or 3, not {step}")
    return BoundValue(value=value, formula_id=f"step{step}", parity_case=parity)


def rop_step_bound(step: int, g: int) -> BoundValue:
    """Ropelength bound for the smoothed output of a pipeline step."""
    if g < 2:
        raise SizeTooSmall(f"bounds need g >= 2, got {g}")
    gf = Fraction(g)
    if step == 1:
        value = PiExpr(2 * gf * gf - 4 * gf, 2 * gf)
    elif step == 2:
        value = PiExpr(Fraction(3, 2) * gf * gf - Fraction(11, 2), gf)
    elif step == 3:
        value = PiExpr(Fraction(5, 4) * gf * gf + 8 * gf - Fraction(29, 4), gf / 2)
    else:
        raise ValueError(f"step must be 1, 2 or 3, not {step}")
    return BoundValue(value=value, formula_id=f"rop_step{step}", parity_case=_parity(g))


@dataclass(frozen=True)
class TheoremBound:
    """min of the two quadratic forms, with both component values kept."""

    value: object
    chosen: str
    form_a: BoundValue
    form_b: BoundValue


def theorem_len_bound(c: int, nonalternating_prime: bool = False) -> TheoremBound:
    """Edge-count bound in the crossing number; min of two quadratics.

    The first form comes from the horizontal fold, the second from the
    vertical fold; the first is smaller up to c = 21, the second from
    c = 22 on (they cross between, at 10 + sqrt(137)).
    """
    if c < 3:
        raise CrossingTooSmall(f"crossing-number bounds need c >= 3, got {c}")
    if nonalternating_prime:
        a = Fraction(3 * c * c + 8 * c - 11, 4)
        b = Fraction(5 * c * c + 40 * c - 29, 8)
        ids = ("thm_len_nap_a", "thm_len_nap_b")
    else:
        a = Fraction(3 * c * c + 20 * c + 17, 4)
        b = Fraction(5 * c * c + 60 * c + 71, 8)
        ids = ("thm_len_general_a", "thm_len_general_b")
    fa = BoundValue(a, ids[0])
    fb = BoundValue(b, ids[1])
    if a <= b:
        return TheoremBound(value=a, chosen="a", form_a=fa, form_b=fb)
    return TheoremBound(value=b, chosen="b", form_a=fa, form_b=fb)


def theorem_rop_bound(c: int, nonalternating_prime: bool = False) -> TheoremBound:
    """Ropelength bound in the crossing number; exact pi forms."""
    if c < 3:
        raise CrossingTooSmall(f"crossing-number bounds need c >= 3, got {c}")
    cf = Fraction(c)
    if nonalternating_prime:
        a = PiExpr(Fraction(3, 2) * cf * cf - Fraction(11, 2), cf)
        b = PiExpr(Fraction(5, 4) * cf * cf + 8 * cf - Fraction(29, 4), cf / 2)
        ids = ("thm_rop_nap_a", "thm_rop_nap_b")
    else:
        a = PiExpr(Fraction(3, 2) * cf * cf + 6 * cf + Fraction(1, 2), cf + 2)
        b = PiExpr(Fraction(5, 4) * cf * cf + 13 * cf + Fraction(55, 4), cf / 2 + 1)
        ids = ("thm_rop_general_a", "thm_rop_general_b")
    fa = BoundValue(a, ids[0])
    fb = BoundValue(b, ids[1])
    if a.le(b):
        return TheoremBound(value=a, chosen="a", form_a=fa, form_b=fb)
    return TheoremBound(value=b, chosen="b", form_a=fa, form_b=fb)


def theorem_rop_decimal(c: int) -> tuple[Fraction, Fraction]:
    """Decimal-coefficient forms of the general rope bound.

    Each decimal form upper-bounds the corresponding exact pi form for
    every positive c because it dominates coefficient by coefficient.
    """
    if c < 3:
        raise CrossingTooSmall(f"crossing-number bounds need c >= 3, got {c}")
    cf = Fraction(c)
    dec_a = Fraction(3, 2) * cf * cf + Fraction(183, 20) * cf + Fraction(679, 100)
    dec_b = Fraction(5, 4) * cf * cf + Fraction(1458, 100) * cf + Fraction(169, 10)
    return dec_a, dec_b


def comparator_bounds(c: int) -> list[BoundValue]:
    """Published comparator bounds evaluated at c (roots to 1e-12)."""
    if c < 3:
        raise CrossingTooSmall(f"crossing-number bounds need c >= 3, got {c}")
    root_c = math.sqrt(c)
    c32 = c * root_c
    cf = Fraction(c)
    return [
        BoundValue(136 * c32 + 84 * c + 22 * root_c + 11, "diao_len"),
        BoundValue(272 * c32 + 168 * c + 44 * root_c + 22, "diao_rop"),
        BoundValue(
            Fraction(41, 25) * cf * cf + Fraction(769, 100) * cf + Fraction(337, 50),
            "cantarella_rop",
        ),
        BoundValue(Fraction(3, 2) * cf * cf + 2 * cf + Fraction(1, 2), "prior_len"),
    ]


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Provenance:
    """What is known about a lattice knot when certifying it."""

    label: str
    g: int
    step: int | None = None
    crossing_number: int | None = None
    nonalternating_prime: bool = False
    known_minimum_edges: int | None = None


@dataclass(frozen=True)
class BoundCheck:
    name: str
    comparison: str
    passed: bool


@dataclass(frozen=True)
class Certificate:
    label: str
    step: int | None
    census: EdgeCensus
    checks: tuple[BoundCheck, ...]
    passed: bool

    def render_text(self) -> str:
        head = f"certificate {self.label}" + (f" step {self.step}" if self.step else "")
        c = self.census
        lines = [
            head,
            f"  edges x/y/z: {c.x_edges}/{c.y_edges}/{c.z_edges}  "
            f"total: {c.total_edges}  corners: {c.corners}",
        ]
        for chk in self.checks:
            lines.append(f"  [{'PASS' if chk.passed else 'FAIL'}] {chk.name}: {chk.comparison}")
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        c = self.census
        return {
            "label": self.label,
            "step": self.step,
            "census": {
                "x_edges": c.x_edges,
                "y_edges": c.y_edges,
                "z_edges": c.z_edges,
                "x_sticks": c.x_sticks,
                "y_sticks": c.y_sticks,
                "z_sticks": c.z_sticks,
                "corners": c.corners,
                "total_edges": c.total_edges,
            },
            "checks": [
                {"name": k.name, "comparison": k.comparison, "passed": k.passed}
                for k in self.checks
            ],
            "passed": self.passed,
        }


def smooth_length_exact(census: EdgeCensus) -> PiExpr:
    """Closed-form length of the doubled, corner-rounded curve.

    Doubling gives 2E; each of the C corners trades 2 units of straight
    line for a quarter circle, subtracting 2 - pi/2.
    """
    e, c = census.total_edges, census.corners
    return PiExpr(Fraction(2 * e - 2 * c), Fraction(c, 2))


def certify(k: LatticeKnot, provenance: Provenance) -> Certificate:
    """Evaluate every applicable bound against the knot's actual counts.

    Failures become failed checks rather than exceptions; the certificate
    passes only if every applicable comparison holds.
    """
    checks: list[BoundCheck] = []
    report = validate_lattice(k)
    checks.append(
        BoundCheck("lattice_valid", "self-avoiding closed axis-parallel polygon", report.ok)
    )
    if report.ok:
        census = edge_census(k)
    else:
        census = EdgeCensus(0, 0, 0, 0, 0, 0, len(k.corners))
    total = census.total_edges
    g = provenance.g
    step = provenance.step
    if report.ok and step in (1, 2, 3):
        sb = step_bound(step, g)
        checks.append(
            BoundCheck(
                f"edges_le_step{step}_bound",
                f"{total} <= {sb.value} ({sb.parity_case})",
                Fraction(total) <= sb.value,
            )
        )
        if step == 1:
            checks.append(
                BoundCheck("z_edges_eq_2g", f"{census.z_edges} == {2 * g}", census.z_edges == 2 * g)
            )
            checks.append(
                BoundCheck("corners_eq_4g", f"{census.corners} == {4 * g}", census.corners == 4 * g)
            )
        elif step == 2:
            checks.append(
                BoundCheck("corners_ge_2g", f"{census.corners} >= {2 * g}", census.corners >= 2 * g)
            )
        else:
            checks.append(
                BoundCheck("corners_ge_g", f"{census.corners} >= {g}", census.corners >= g)
            )
            zmax = 4 * g - 2 if g % 2 else 4 * g - 4
            checks.append(
                BoundCheck("z_edges_le_max", f"{census.z_edges} <= {zmax}", census.z_edges <= zmax)
            )
        length = smooth_length_exact(census)
        rb = rop_step_bound(step, g)
        checks.append(
            BoundCheck(
                f"rope_le_rop_step{step}_bound",
                f"{length} <= {rb.value}",
                length.le(rb.value),
            )
        )
        checks.append(
            BoundCheck(
                "rope_le_twice_edges", f"{length} <= {2 * total}", length.le(Fraction(2 * total))
            )
        )
        c = provenance.crossing_number
        if c is not None and step in (2, 3):
            tb = theorem_len_bound(c, provenance.nonalternating_prime)
            form = tb.form_a if step == 2 else tb.form_b
            checks.append(
                BoundCheck(
                    f"edges_le_len_bound_c{c}",
                    f"{total} <= {form.value} [{form.formula_id}]",
                    Fraction(total) <= form.value,
                )
            )
            rtb = theorem_rop_bound(c, provenance.nonalternating_prime)
            rform = rtb.form_a if step == 2 else rtb.form_b
            checks.append(
                BoundCheck(
                    f"rope_le_rop_bound_c{c}",
                    f"{length} <= {rform.value} [{rform.formula_id}]",
                    length.le(rform.value),
                )
            )
    if provenance.known_minimum_edges is not None and report.ok:
        m = provenance.known_minimum_edges
        checks.append(BoundCheck("edges_ge_known_minimum", f"{total} >= {m}", total >= m))
    return Certificate(
        label=provenance.label,
        step=step,
        census=census,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )
