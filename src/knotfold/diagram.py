"""Combinatorial crossing diagrams of knots: signed Gauss codes.

A diagram is read from its signed Gauss code, the cyclic sequence of
crossing passes made while traversing the knot once, each pass a
``(key, is_over, sign)`` triple.  Crossings are numbered by first pass.
Edge p enters pass p and edge p + 1 (mod 2n) leaves it, so a crossing
stores only the positions of its under and over passes and its sign.

A crossing whose two passes follow each other in the cyclic code is a
Reidemeister I kink.  `r1_reduced_code` strips the kinks, and
`same_r1_reduced_code` compares two reduced codes up to start point and
orientation, without mirroring.  A signed Gauss diagram determines a
classical knot (Goussarov, Polyak and Viro, Topology 39, 2000), so two
diagrams that compare equal show the same knot, up to orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MultiComponent


@dataclass(frozen=True)
class Crossing:
    """A crossing by the code positions of its under and over passes, and its sign."""

    under_in: int
    over_in: int
    sign: int


@dataclass(frozen=True)
class PlanarDiagram:
    """Knot diagram with one component; vertical-over convention is the
    producer's responsibility."""

    crossings: tuple[Crossing, ...]

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def build_diagram(code: list[tuple[object, bool, int]]) -> PlanarDiagram:
    """Assemble a PlanarDiagram from the signed Gauss code of a single closed curve.

    Each crossing's sign is taken from its first pass.

    Raises:
        MultiComponent: if a key is passed twice in one role, or only once.
    """
    index: dict[object, int] = {}
    at: tuple[list, list] = ([], [])  # under and over pass positions by crossing
    signs = []
    for pos, (key, is_over, sign) in enumerate(code):
        i = index.setdefault(key, len(signs))
        if i == len(signs):
            signs.append(sign)
            at[0].append(None)
            at[1].append(None)
        if at[is_over][i] is not None:
            raise MultiComponent(f"crossing {key!r} passed twice with the same role")
        at[is_over][i] = pos
    for key, i in index.items():
        if at[0][i] is None or at[1][i] is None:
            raise MultiComponent(f"crossing {key!r} missing an over or under pass")
    return PlanarDiagram(tuple(map(Crossing, at[0], at[1], signs)))


def r1_reduced_code(pd: PlanarDiagram) -> list[tuple[bool, int, int]]:
    """The signed Gauss code with every Reidemeister I kink removed.

    A stack pass over the code drops each pass that meets its partner on
    top of the stack, and pairs left at the two cyclic ends cancel after
    it.  Each of the m remaining passes is given as ``(is_over, sign,
    offset)``, where its partner pass lies offset steps on, mod m, so the
    code no longer names crossings.
    """
    partner = [0] * (2 * len(pd.crossings))
    is_over = [False] * len(partner)
    sign = [0] * len(partner)
    for c in pd.crossings:
        partner[c.under_in], partner[c.over_in] = c.over_in, c.under_in
        is_over[c.over_in] = True
        sign[c.under_in] = sign[c.over_in] = c.sign
    stack: list[int] = []
    for p, q in enumerate(partner):
        if stack and stack[-1] == q:
            stack.pop()
        else:
            stack.append(p)
    lo = 0
    while len(stack) - lo > 1 and partner[stack[lo]] == stack[-1]:
        lo += 1
        stack.pop()
    kept = stack[lo:]
    at = {p: i for i, p in enumerate(kept)}
    m = len(kept)
    return [(is_over[p], sign[p], (at[partner[p]] - i) % m) for i, p in enumerate(kept)]


def same_r1_reduced_code(a: PlanarDiagram, b: PlanarDiagram) -> bool:
    """Whether the R1-reduced codes of a and b agree up to start point and orientation.

    Reversing the traversal reverses the code and negates each offset mod m;
    it keeps every sign and role, since both strands of a crossing turn
    round.  A mirror image, with every sign and role flipped, is not a match.
    """
    code_a, code_b = r1_reduced_code(a), r1_reduced_code(b)
    if len(code_a) != len(code_b):
        return False
    m = len(code_b)
    reverse = [(over, s, -d % m) for over, s, d in reversed(code_b)]

    def text(code):
        # one integer per pass, each followed by a comma, so a substring
        # that starts after a comma is a rotation
        return "".join(f"{4 * d + 2 * over + (s > 0)}," for over, s, d in code)

    needle = "," + text(code_a)
    return any(needle in "," + text(code) * 2 for code in (code_b, reverse))
