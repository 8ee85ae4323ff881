"""Combinatorial crossing diagrams of knots: signed Gauss codes.

A diagram is read from its signed Gauss code, the cyclic sequence of
crossing passes made while traversing the knot once, each pass a
``(key, is_over, sign)`` triple.  Crossings are numbered by first pass.
Edge p enters pass p and edge p + 1 (mod 2n) leaves it, so a crossing
stores only the positions of its under and over passes and its sign.
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
