"""Corner rounding: lattice knots to unit-thickness smooth ropes.

The lattice knot is doubled (all corners scaled by 2) and every corner is
replaced by a quarter circle of radius 1 tangent to both incident sticks.
Straight pieces shrink by 1 at each end, so a stick of length L yields a
straight piece of length 2L - 2; length-1 sticks leave an explicit
zero-length piece so that pieces always alternate arc, straight, arc, ...
and the piece count stays exactly twice the corner count.

Thickness is proved, not measured.  It is min(curvature radius, d/2)
(Cantarella, Kusner and Sullivan, Invent. Math. 150, 2002), where d is the
least distance between non-adjacent pieces: pieces whose sticks are two or
more apart round the cycle.  Every arc has radius 1, and on the rounding of
a self-avoiding lattice polygon d >= 2, by a lemma that reduces to a
finite list of local lattice windows, each checked exactly in
tests/test_thickness_lemma.py.  So `rope_metrics` recovers the polygon
from the rope, refuses a rope that is not the rounding of a self-avoiding
one, and reports thickness 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .bounds import PiExpr
from .errors import BadDensity, DegenerateKnot, MalformedInput
from .lattice import _MAX_COORD, LatticeKnot, canonicalize, validate_lattice


@dataclass(frozen=True)
class StraightPiece:
    start: tuple[int, int, int]
    end: tuple[int, int, int]

    @property
    def length(self) -> int:
        return sum(abs(a - b) for a, b in zip(self.start, self.end))


@dataclass(frozen=True)
class ArcPiece:
    """Quarter circle: point(theta) = center + cos(theta)*u + sin(theta)*v.

    u and v are unit axis vectors; the sweep is exactly pi/2 and the
    radius exactly 1.  The arc starts tangent to the incoming stick and
    ends tangent to the outgoing one.
    """

    center: tuple[int, int, int]
    u: tuple[int, int, int]
    v: tuple[int, int, int]

    @property
    def start(self) -> tuple[int, int, int]:
        return tuple(c + d for c, d in zip(self.center, self.u))

    @property
    def end(self) -> tuple[int, int, int]:
        return tuple(c + d for c, d in zip(self.center, self.v))

    def point(self, theta: float) -> tuple[float, float, float]:
        ct, st = math.cos(theta), math.sin(theta)
        return tuple(c + ct * a + st * b for c, a, b in zip(self.center, self.u, self.v))


@dataclass(frozen=True)
class SmoothKnot:
    """Alternating cyclic pieces [arc0, straight0, arc1, straight1, ...]."""

    pieces: tuple[object, ...]

    @property
    def arcs(self) -> list[ArcPiece]:
        return [p for p in self.pieces if isinstance(p, ArcPiece)]

    @property
    def straights(self) -> list[StraightPiece]:
        return [p for p in self.pieces if isinstance(p, StraightPiece)]


@dataclass(frozen=True)
class RopeMetrics:
    length: float
    length_exact: PiExpr
    corner_count: int
    thickness_radius: float
    ropelength: float


def smooth(k: LatticeKnot) -> SmoothKnot:
    """Double the knot and round every corner with a quarter circle."""
    for i, c in enumerate(k.corners):
        if c == k.corners[(i + 1) % len(k.corners)]:
            raise DegenerateKnot(f"zero-length stick at corner {c}")
    return SmoothKnot(pieces=_round(canonicalize(k).corners))


def _round(corners) -> tuple[object, ...]:
    """The pieces of the doubled corners, each rounded by a quarter circle."""
    corners = [(2 * c[0], 2 * c[1], 2 * c[2]) for c in corners]
    after = corners[1:] + corners[:1]
    # dirs[i] is the unit step from corner i to corner i + 1
    dirs = [
        ((qx > px) - (qx < px), (qy > py) - (qy < py), (qz > pz) - (qz < pz))
        for (px, py, pz), (qx, qy, qz) in zip(corners, after)
    ]
    pieces: list[object] = []
    # at each corner p, u is the incoming direction and v the outgoing one
    for (px, py, pz), (qx, qy, qz), (ux, uy, uz), (vx, vy, vz) in zip(
        corners, after, dirs[-1:] + dirs, dirs
    ):
        arc = ArcPiece((px - ux + vx, py - uy + vy, pz - uz + vz), (-vx, -vy, -vz), (ux, uy, uz))
        seg = StraightPiece((px + vx, py + vy, pz + vz), (qx - vx, qy - vy, qz - vz))
        pieces += (arc, seg)
    return tuple(pieces)


# ---------------------------------------------------------------------------
# metrics


def rope_metrics(s: SmoothKnot) -> RopeMetrics:
    """Length in closed form, and thickness 1 once `_require_polygon` accepts the rope."""
    _require_polygon(s)
    n_arcs = len(s.arcs)
    straight_total = sum(p.length for p in s.straights)
    length_exact = PiExpr(Fraction(straight_total), Fraction(n_arcs, 2))
    length = float(length_exact)
    return RopeMetrics(
        length=length,
        length_exact=length_exact,
        corner_count=n_arcs,
        thickness_radius=1.0,
        ropelength=length,
    )


def _require_polygon(s: SmoothKnot) -> None:
    """Refuse with MalformedInput a rope that is not `smooth` of a self-avoiding
    lattice polygon, up to its start and direction.  The polygon's corners
    are (arc start + arc end - centre) / 2 = (centre + u + v) / 2."""
    arcs = s.pieces[0::2]
    if not all(isinstance(p, ArcPiece) for p in arcs):
        raise MalformedInput("rope pieces must alternate arc, straight, ... from an arc")
    doubled = [
        (cx + ux + vx, cy + uy + vy, cz + uz + vz)
        for (cx, cy, cz), (ux, uy, uz), (vx, vy, vz) in ((p.center, p.u, p.v) for p in arcs)
    ]
    if any((x | y | z) & 1 for x, y, z in doubled):
        raise MalformedInput("rope arcs do not round the corners of a doubled lattice polygon")
    k = LatticeKnot(tuple((x >> 1, y >> 1, z >> 1) for x, y, z in doubled))
    report = validate_lattice(k)
    if not report.ok:
        raise MalformedInput(f"rope corners are not a self-avoiding lattice polygon: {report}")
    sticks = k.sticks  # every corner must turn: no two consecutive sticks share an axis
    if any(a[0] == b[0] for a, b in zip(sticks, sticks[1:] + sticks[:1])) or _round(k.corners) != s.pieces:
        raise MalformedInput("rope is not the rounding of its lattice polygon")


# ---------------------------------------------------------------------------
# geometry export / import


_MIN_DENSITY, _MAX_DENSITY = 8, 4096
_QUARTER = math.pi / 2
# a doubled corner plus a unit step: no rope of a parseable knot reaches farther
_MAX_ROPE_COORD = 2 * _MAX_COORD + 1


def check_density(density: int) -> None:
    """Refuse a polyline sample count outside 8..4096 per arc."""
    if not _MIN_DENSITY <= density <= _MAX_DENSITY:
        raise BadDensity(
            f"polyline export needs {_MIN_DENSITY}..{_MAX_DENSITY} points per arc, got {density}"
        )


def export_geometry(s: SmoothKnot, form: str = "polyline", density: int = 32) -> str:
    """Emit the smooth curve for external tools.

    polyline: closed 3D polyline, one `x y z` line per vertex, each
    coordinate printed with `.17g`: `density` samples per arc (8..4096,
    else BadDensity), at theta_j = j*(pi/2)/density for j < density, plus
    one vertex at the start of every positive-length straight piece.  Each
    arc coordinate column is formatted once per call (`_polyline`).
    arcs: exact piece records `SEG x0 y0 z0 x1 y1 z1` and
    `ARC cx cy cz ux uy uz vx vy vz`, integer coordinates throughout.
    """
    if form == "arcs":
        return "".join(
            ("ARC" + " %d" * 9 + "\n") % (*p.center, *p.u, *p.v)
            if isinstance(p, ArcPiece)
            else ("SEG" + " %d" * 6 + "\n") % (*p.start, *p.end)
            for p in s.pieces
        )
    if form != "polyline":
        raise ValueError(f"unknown form {form!r}")
    check_density(density)
    return _polyline(s, density, {})


def _polyline(s: SmoothKnot, density: int, columns: dict) -> str:
    """`export_geometry`'s polyline text.  An arc sample's axis is c + cos*a +
    sin*b, ArcPiece.point's float expression, so its column of text depends
    only on (c, a, b) and the separator after each number, a space or a newline;
    `columns` holds them by that key, and curves at one density may share it."""
    trig = [(math.cos(t), math.sin(t)) for t in (j * _QUARTER / density for j in range(density))]

    def column(key: tuple[int, int, int, str]) -> list[str]:
        col = columns.get(key)
        if col is None:
            c, a, b, sep = key
            col = columns[key] = [f"{c + ct * a + st * b:.17g}{sep}" for ct, st in trig]
        return col

    parts: list[str] = []
    for p in s.pieces:
        if isinstance(p, ArcPiece):
            xyz = map(column, zip(p.center, p.u, p.v, "  \n"))
            parts.append("".join(chain.from_iterable(zip(*xyz))))
        elif p.start != p.end:
            parts.append("%.17g %.17g %.17g\n" % p.start)
    return "".join(parts)


def import_polyline(text: str) -> list[tuple[float, float, float]]:
    verts = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, y, z = map(float, line.split())
        except ValueError as exc:
            raise MalformedInput(f"expected 'x y z', got {line!r}") from exc
        if not all(abs(v) <= _MAX_ROPE_COORD for v in (x, y, z)):  # nan compares false too
            raise MalformedInput(f"coordinate not finite or beyond 2**51 + 1 in magnitude in {line!r}")
        verts.append((x, y, z))
    if not verts:
        raise MalformedInput("no vertices found")
    return verts


def _unit_axis(w) -> bool:
    return sorted(map(abs, w)) == [0, 0, 1]


def import_geometry(text: str) -> SmoothKnot:
    """Invert the arc-exact export; the pieces must close up, alternating arc and straight."""
    pieces: list[object] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (parts[0], len(parts)) not in (("SEG", 7), ("ARC", 10)):
            raise MalformedInput(f"unrecognized record {line!r}")
        try:
            vals = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise MalformedInput(f"non-integer field in {line!r}") from exc
        if any(abs(v) > _MAX_ROPE_COORD for v in vals):
            raise MalformedInput(f"coordinate beyond 2**51 + 1 in magnitude in {line!r}")
        if parts[0] == "SEG":
            if sum(a != b for a, b in zip(vals[:3], vals[3:])) > 1:
                raise MalformedInput(f"straight piece is not axis-parallel: {line!r}")
            pieces.append(StraightPiece(start=tuple(vals[:3]), end=tuple(vals[3:])))
        else:
            u, v = vals[3:6], vals[6:]
            if not (_unit_axis(u) and _unit_axis(v) and sum(a * b for a, b in zip(u, v)) == 0):
                raise MalformedInput(f"arc axes are not perpendicular unit axis vectors: {line!r}")
            pieces.append(ArcPiece(center=tuple(vals[:3]), u=tuple(u), v=tuple(v)))
    if not pieces:
        raise MalformedInput("no pieces found")
    n = len(pieces)
    kinds = (ArcPiece, StraightPiece)
    if n % 2 or not all(isinstance(p, kinds[i % 2]) for i, p in enumerate(pieces)):
        raise MalformedInput("pieces must alternate ARC, SEG, ARC, SEG, ... from an ARC")
    for i, p in enumerate(pieces):
        nxt = pieces[(i + 1) % n]
        if p.end != nxt.start:
            raise MalformedInput(f"piece {i} ends at {p.end} but the next starts at {nxt.start}")
    return SmoothKnot(pieces=tuple(pieces))
