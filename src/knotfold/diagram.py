"""Combinatorial crossing diagrams of knots.

A diagram is assembled from the cyclic sequence of crossing passes made
while traversing the knot once.  Edges are the diagram segments between
consecutive passes; every crossing stores its four incident edges by role
(under/over, in/out).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MultiComponent


def cross2(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class CrossingPass:
    """One pass of the traversal through a crossing.

    over_dir / under_dir are the 2D travel directions of the respective
    strands at this crossing (shared by both passes of the crossing).
    """

    key: object
    is_over: bool
    over_dir: tuple[int, int]
    under_dir: tuple[int, int]


@dataclass(frozen=True)
class Crossing:
    key: object
    under_in: int
    under_out: int
    over_in: int
    over_out: int
    sign: int


@dataclass(frozen=True)
class PlanarDiagram:
    """Knot diagram with one component; vertical-over convention is the
    producer's responsibility."""

    crossings: tuple[Crossing, ...]
    n_edges: int
    components: int = 1

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def wirtinger_arcs(self) -> tuple[list[int], int]:
        """Label every edge with its overpass arc.

        Arcs are the maximal runs of edges not separated by an underpass;
        returns (arc id per edge, arc count).  Arc ids are 0-based and the
        arc containing edge 0 may wrap around the traversal start.
        """
        n = len(self.crossings)
        if n == 0:
            return [], 0
        under_positions = sorted(c.under_in for c in self.crossings)
        # edge e runs from pass e to pass e+1; a new arc starts after each
        # under pass, i.e. edges are split at boundaries under_out = p+1.
        arc_of_edge = [0] * self.n_edges
        starts = sorted((p + 1) % self.n_edges for p in under_positions)
        for arc_id in range(len(starts)):
            lo = starts[arc_id]
            hi = starts[(arc_id + 1) % len(starts)]
            e = lo
            while True:
                arc_of_edge[e] = arc_id
                e = (e + 1) % self.n_edges
                if e == hi:
                    break
        return arc_of_edge, len(starts)


def build_diagram(passes: list[CrossingPass]) -> PlanarDiagram:
    """Assemble a PlanarDiagram from traversal passes of a single closed curve."""
    by_key: dict[object, dict[bool, int]] = {}
    for pos, ev in enumerate(passes):
        slot = by_key.setdefault(ev.key, {})
        if ev.is_over in slot:
            raise MultiComponent(f"crossing {ev.key!r} passed twice with the same role")
        slot[ev.is_over] = pos
    crossings = []
    n_edges = len(passes)
    for key, slot in sorted(by_key.items(), key=lambda kv: str(kv[0])):
        if set(slot) != {True, False}:
            raise MultiComponent(f"crossing {key!r} missing an over or under pass")
        q, p = slot[True], slot[False]
        ev = passes[p]
        u, v = ev.under_dir, ev.over_dir
        sign = 1 if cross2(v, u) > 0 else -1
        under_in, under_out = p, (p + 1) % n_edges
        over_in, over_out = q, (q + 1) % n_edges
        crossings.append(
            Crossing(
                key=key,
                under_in=under_in,
                under_out=under_out,
                over_in=over_in,
                over_out=over_out,
                sign=sign,
            )
        )
    return PlanarDiagram(crossings=tuple(crossings), n_edges=n_edges)
