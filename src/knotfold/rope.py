"""Corner rounding: lattice knots to unit-thickness smooth ropes.

The lattice knot is doubled (all corners scaled by 2) and every corner is
replaced by a quarter circle of radius 1 tangent to both incident sticks.
Straight pieces shrink by 1 at each end, so a stick of length L yields a
straight piece of length 2L - 2; length-1 sticks leave an explicit
zero-length piece so that pieces always alternate arc, straight, arc, ...
and the piece count stays exactly twice the corner count.

Thickness is measured, not assumed: every arc has radius exactly 1, and
the thickness is min(1, d/2), where d is the least distance between
non-adjacent pieces (at least 2 on a doubled lattice knot).  No d of 2 or
more can change it, so the scan measures the clearance min(d, 2),
exactly, in one round over the non-adjacent pairs whose integer bounding
boxes are less than 2 apart.  Two straights are two boxes; parallel arcs
have closed forms; arcs in perpendicular planes reduce to one angle,
whose stationary points are roots of an integer polynomial isolated by
Sturm sequences.  numpy is imported inside the scan's functions, not with
the module, so that commands which never scan start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest

from .bounds import PiExpr
from .errors import BadDensity, DegenerateKnot, MalformedInput
from .lattice import _MAX_COORD, LatticeKnot, canonicalize


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
    k = canonicalize(k)
    corners = [(2 * c[0], 2 * c[1], 2 * c[2]) for c in k.corners]
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
        if arc.end != seg.start:
            raise AssertionError("arc/straight tangency broke; construction bug")
        pieces += (arc, seg)
    return SmoothKnot(pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# metrics


def rope_metrics(s: SmoothKnot) -> RopeMetrics:
    """Length in closed form; thickness min(1, clearance / 2), since every
    corner is an arc of radius 1."""
    n_arcs = len(s.arcs)
    straight_total = sum(p.length for p in s.straights)
    length_exact = PiExpr(Fraction(straight_total), Fraction(n_arcs, 2))
    length = float(length_exact)
    thickness = min(1.0, _clearance(s) / 2.0)
    return RopeMetrics(
        length=length,
        length_exact=length_exact,
        corner_count=n_arcs,
        thickness_radius=thickness,
        ropelength=length / thickness if thickness else math.inf,
    )


def _point_arc_dist(p, arc: ArcPiece) -> float:
    """Exact distance from a point to a quarter arc.

    The arc occupies the closed cone { a*u + b*v : a, b >= 0 } around its
    center; when the in-plane direction of the point leaves that cone the
    minimum moves to the nearer arc endpoint, folded into one formula via
    the clamped cosine.
    """
    w = tuple(p[i] - arc.center[i] for i in range(3))
    wu = sum(w[i] * arc.u[i] for i in range(3))
    wv = sum(w[i] * arc.v[i] for i in range(3))
    h2 = sum(x * x for x in w) - wu * wu - wv * wv
    rho = math.hypot(wu, wv)
    if rho == 0.0:
        return math.sqrt(1.0 + max(h2, 0.0))
    maxcos = 1.0 if (wu >= 0.0 and wv >= 0.0) else max(wu, wv) / rho
    return math.sqrt(max(1.0 + rho * rho - 2.0 * rho * maxcos + max(h2, 0.0), 0.0))


_QUARTER = math.pi / 2
_TOL = 1e-10


def _in_cone(wu: float, wv: float) -> bool:
    return wu >= -1e-12 and wv >= -1e-12


def _point_arc_batch(w, u, v):
    """`_point_arc_dist` on rows: w is the point minus the arc's center.

    The float operations are the scalar ones in the same order, except
    that rho is sqrt(wu^2 + wv^2): on integer-valued rows that sum is exact,
    so rho is math.hypot's correctly rounded result, and otherwise the two
    may differ in the last bit.  rho = 0 needs no branch, since then the
    clamped cosine is 1 and the general formula reduces to 1 + h2.
    """
    import numpy as np

    wu = w[:, 0] * u[:, 0] + w[:, 1] * u[:, 1] + w[:, 2] * u[:, 2]
    wv = w[:, 0] * v[:, 0] + w[:, 1] * v[:, 1] + w[:, 2] * v[:, 2]
    h2 = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2] - wu * wu - wv * wv
    rho = np.sqrt(wu * wu + wv * wv)
    with np.errstate(divide="ignore", invalid="ignore"):
        maxcos = np.where((wu >= 0.0) & (wv >= 0.0), 1.0, np.maximum(wu, wv) / rho)
    return np.sqrt(np.maximum(1.0 + rho * rho - 2.0 * rho * maxcos + np.maximum(h2, 0.0), 0.0))


def _point_seg_batch(p, a, b):
    """Distances from points to segments of positive length, one row each."""
    import numpy as np

    ab, ap = b - a, p - a
    denom = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1] + ab[:, 2] * ab[:, 2]
    t = (ap[:, 0] * ab[:, 0] + ap[:, 1] * ab[:, 1] + ap[:, 2] * ab[:, 2]) / denom
    t = np.clip(t, 0.0, 1.0)
    dx = p[:, 0] - (a[:, 0] + t * ab[:, 0])
    dy = p[:, 1] - (a[:, 1] + t * ab[:, 1])
    dz = p[:, 2] - (a[:, 2] + t * ab[:, 2])
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _seg_seg_gap(p1, q1, p2, q2):
    """Exact distances between axis-parallel segments, one row per pair: each
    is its own box, and two boxes are as far apart as the norm of their axis gaps."""
    import numpy as np

    gap = np.maximum(np.minimum(p2, q2) - np.maximum(p1, q1), np.minimum(p1, q1) - np.maximum(p2, q2))
    gap = np.maximum(gap, 0.0)
    return np.sqrt((gap * gap).sum(axis=1))


def _arc_seg_batch(c, u, v, a, b):
    """Exact min distances from quarter arcs to axis-parallel segments, one
    row per pair: arc center, u and v, then segment start and end.

    Split by the segment direction: along the arc-plane normal the nearest
    segment point is the one at the arc's level, so the point-to-arc
    formula applies; in-plane directions reduce to 2D circle vs segment,
    where the minimum is at one of finitely many critical candidates
    (endpoints, poles, crossings).  The cases and their float operations
    are those of the scalar `_arc_seg_dist` in tests/scan_oracle.py, so
    on integer coordinates below 2**24 in magnitude, where every integer
    intermediate is exact in float64, the result is the same to the last bit.

    The pole is left out.  u and v span the segment's axis s and the axis
    q across it, so the pole in the quarter is an arc end, c + u or c + v.
    Over the segment, that end's point-to-segment candidate differs from it
    only by the rounding of fl(fl(x/y)*y) in s, whose square vanishes in
    the integer sum of the others unless that sum is 0; then |k| = 1,
    h = 0, and a crossing candidate gives exactly 0.
    """
    import numpy as np

    rows = np.arange(len(c))
    n = np.argmin(np.abs(u) + np.abs(v), axis=1)  # the arc plane's normal axis
    an, bn, cn = a[rows, n], b[rows, n], c[rows, n]
    # along the normal (or a point): the segment point nearest the arc has
    # its normal coordinate clamped to the arc's level; in the plane that
    # clamp leaves a, the first end
    p = a.copy()
    p[rows, n] = np.minimum(np.maximum(cn, np.minimum(an, bn)), np.maximum(an, bn))
    best = _point_arc_batch(p - c, u, v)
    flat = np.flatnonzero((an == bn) & (a != b).any(axis=1))
    if not len(flat):
        return best
    c, u, v, a, b, n = c[flat], u[flat], v[flat], a[flat], b[flat], n[flat]
    rows = np.arange(len(flat))
    s = np.argmax(np.abs(b - a), axis=1)  # the segment's axis
    q = 3 - n - s  # the in-plane axis across it
    lo, hi = np.minimum(a[rows, s], b[rows, s]), np.maximum(a[rows, s], b[rows, s])
    h = a[rows, n] - c[rows, n]
    cands = [
        _point_arc_batch(b - c, u, v),
        _point_seg_batch(c + u, a, b),
        _point_seg_batch(c + v, a, b),
    ]
    # crossings: the segment passes over or under the arc
    k = a[rows, q] - c[rows, q]
    off = np.sqrt(np.maximum(1.0 - k * k, 0.0))
    for sgn in (1.0, -1.0):
        ws = sgn * off
        wu = k * u[rows, q] + ws * u[rows, s]
        wv = k * v[rows, q] + ws * v[rows, s]
        x = c[rows, s] + ws
        hit = (np.abs(k) <= 1.0) & (wu >= -1e-12) & (wv >= -1e-12) & (lo <= x) & (x <= hi)
        cands.append(np.where(hit, np.abs(h), math.inf))
    best[flat] = np.minimum(best[flat], np.min(cands, axis=0))
    return best


def _arc_arc_parallel_dist(a1: ArcPiece, a2: ArcPiece, n_axis: int) -> float:
    """Exact min distance between quarter arcs in parallel planes."""
    h = float(a2.center[n_axis] - a1.center[n_axis])
    axes = [i for i in range(3) if i != n_axis]
    o1 = tuple(float(a1.center[i]) for i in axes)
    o2 = tuple(float(a2.center[i]) for i in axes)
    dx, dy = o2[0] - o1[0], o2[1] - o1[1]
    rho = math.hypot(dx, dy)

    def in_q(arc, w2d) -> bool:
        w = [0.0, 0.0, 0.0]
        w[axes[0]], w[axes[1]] = w2d
        wu = sum(w[i] * arc.u[i] for i in range(3))
        wv = sum(w[i] * arc.v[i] for i in range(3))
        return _in_cone(wu, wv)

    cands = [
        _point_arc_dist(a1.start, a2),
        _point_arc_dist(a1.end, a2),
        _point_arc_dist(a2.start, a1),
        _point_arc_dist(a2.end, a1),
    ]
    if rho > 0.0:
        mx, my = dx / rho, dy / rho
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                if in_q(a1, (s1 * mx, s1 * my)) and in_q(a2, (-s2 * mx, -s2 * my)):
                    d2d = abs(rho - s1 - s2)
                    cands.append(math.hypot(d2d, h))
        if rho <= 2.0:
            beta = math.acos(min(rho / 2.0, 1.0))
            cb, sb = math.cos(beta), math.sin(beta)
            for sgn in (1.0, -1.0):
                # intersection point of the two unit circles
                px = cb * mx - sgn * sb * my
                py = cb * my + sgn * sb * mx
                if in_q(a1, (px, py)) and in_q(a2, (px - dx, py - dy)):
                    cands.append(abs(h))
    return min(cands)


def _arc_arc_dist(a1: ArcPiece, a2: ArcPiece, cutoff: float) -> float:
    """Exact min distance between two quarter arcs.

    Parallel planes have a closed form.  For perpendicular planes, g(phi)
    is the exact distance from arc 2's point at angle phi to arc 1; its
    minimum is at an arc end or at a root of `_stationary_poly` (Neff
    1990; Eberly, "Distance to Circles in 3D").  g is evaluated at each
    candidate, so the answer is a true distance between the arcs.

    g is 1-Lipschitz in phi: when g sampled every pi/8 stays pi/16 above
    `cutoff`, so does the true minimum, and the sampled one is returned.
    """
    n1 = next(i for i in range(3) if a1.u[i] == 0 and a1.v[i] == 0)
    n2 = next(i for i in range(3) if a2.u[i] == 0 and a2.v[i] == 0)
    if n1 == n2:
        return _arc_arc_parallel_dist(a1, a2, n1)
    points = [a2.start, *(a2.point(k * _QUARTER / 4) for k in (1, 2, 3)), a2.end]
    best = min(_point_arc_dist(p, a1) for p in points)
    if best - _QUARTER / 8 >= cutoff - _TOL:
        return best
    cands = [best, _point_arc_dist(a1.start, a2), _point_arc_dist(a1.end, a2)]
    for t in _unit_roots(_stationary_poly(a1, a2)):
        cands.append(_point_arc_dist(a2.point(2.0 * math.atan(t)), a1))
    return min(cands)


def _stationary_poly(a1: ArcPiece, a2: ArcPiece) -> list[int]:
    """Integer polynomial in t = tan(phi/2), coefficients from t^0 up, that
    vanishes wherever the arcs are nearest at points inside both of them.

    With w = p - c1, X = w.u1, Y = w.v1 and A = w.w' (only the center
    offset adds to A), the distance to arc 1's circle is stationary where
    A hypot(X, Y) = X X' + Y Y'.  Squared, in the numerators over
    1 + t^2: An^2 (Xn^2 + Yn^2) = (Xn Xn' + Yn Yn')^2, of degree <= 8.
    If that vanishes identically, An Xn Yn is used: stationary |w| and the
    edges of arc 1's quarter.
    """
    dc = tuple(b - a for a, b in zip(a1.center, a2.center))

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    def numerators(axis):
        k, c, s = dot(dc, axis), dot(a2.u, axis), dot(a2.v, axis)
        return [k + c, 2 * s, k - c], [s, -2 * c, -s]

    xn, xd = numerators(a1.u)
    yn, yd = numerators(a1.v)
    an = [dot(dc, a2.v), -2 * dot(dc, a2.u), -dot(dc, a2.v)]
    cross = _padd(_pmul(xn, xd), _pmul(yn, yd))
    poly = _padd(
        _pmul(_pmul(an, an), _padd(_pmul(xn, xn), _pmul(yn, yn))),
        [-c for c in _pmul(cross, cross)],
    )
    if poly:
        return poly
    for factor in (an, xn, yn):
        if _trim(factor):
            poly = _pmul(poly or [1], factor)
    return poly


def _trim(p: list[int]) -> list[int]:
    """Drop zero leading coefficients in place; the zero polynomial is []."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a: list[int], b: list[int]) -> list[int]:
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: (q, r) with |lc(b)|^k a = q b + r for some k, deg r < deg b."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        k, c = len(r) - len(b), sign * r[-1]
        q = [scale * x for x in q]
        q[k] += c
        r = [scale * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        _trim(r)
    return _trim(q), r


def _primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    return [c // g for c in p]


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm sequence of p, each member scaled by a positive constant."""
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _sign_at(p: list[int], x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    val = sum(c * n**i * d ** (len(p) - 1 - i) for i, c in enumerate(p))
    return (val > 0) - (val < 0)


def _unit_roots(p: list[int]) -> list[float]:
    """The distinct real roots of p in (0, 1], as floats.

    The Sturm sequence of p's square-free part counts its roots in any
    (a, b] exactly, even where a or b is a root; halving isolates them.
    """
    if len(p) < 2:
        return []
    chain = _sturm(p)
    if len(chain[-1]) > 1:  # the last member is gcd(p, p'): divide repeated roots out
        p = _primitive(_pdivmod(p, chain[-1])[0])
        chain = _sturm(p)

    def variations(x):
        signs = [s for s in (_sign_at(c, x) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    roots = []
    todo = [(Fraction(0), variations(Fraction(0)), Fraction(1), variations(Fraction(1)))]
    while todo:
        a, va, b, vb = todo.pop()
        if va - vb == 1:
            roots.append(_refine_root(p, a, b))
        elif va > vb:
            m = (a + b) / 2
            vm = variations(m)
            todo += [(a, va, m, vm), (m, vm, b, vb)]
    return roots


def _refine_root(p: list[int], a: Fraction, b: Fraction) -> float:
    """The one root of the square-free p in (a, b], by float bisection."""
    side = _sign_at(p, b)
    top = max(map(abs, p))
    coeffs = [c / top for c in reversed(p)]
    lo, hi = float(a), float(b)
    while side and lo < (mid := 0.5 * (lo + hi)) < hi:
        val = 0.0
        for c in coeffs:
            val = val * mid + c
        if (val > 0.0) == (side > 0):
            hi = mid
        else:
            lo = mid
    return hi


_CELL = 4
_CHUNK = 4096  # candidate pairs per batch, which bounds the kernels' scratch memory


def _piece_arrays(pieces) -> tuple[np.ndarray, ...]:
    """The pieces as int64 rows of 3-vectors, one row per stick: arc center,
    u and v (the arcs are the even pieces), straight start and end (the odd)."""
    import numpy as np

    rows = [(*a.center, *a.u, *a.v, *b.start, *b.end) for a, b in zip(pieces[0::2], pieces[1::2])]
    table = np.array(rows, dtype=np.int64).reshape(-1, 5, 3)
    return tuple(table[:, k] for k in range(5))


def _piece_boxes(center, u, v, start, end) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounding boxes (lo, hi), one row per piece, from `_piece_arrays`.

    An arc's box is its center +-1 in its plane and its center along the
    normal; a straight's box spans its two endpoints.
    """
    import numpy as np

    ext = np.abs(u) + np.abs(v)
    lo = np.empty((2 * len(center), 3), dtype=np.int64)
    hi = np.empty_like(lo)
    lo[0::2], hi[0::2] = center - ext, center + ext
    lo[1::2], hi[1::2] = np.minimum(start, end), np.maximum(start, end)
    return lo, hi


def _near_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j whose integer boxes are less than 2 apart, which is
    exactly when they are at most 1 apart along every axis: the gaps
    (1, 1, 1) are sqrt(3) apart, and a gap of 2 is 2 apart on its own.

    Every box, grown by 1/2 on each side, is filed under each hash cell it
    meets; two boxes at most 1 apart along every axis then share a cell.
    Cells have side 4, so a grown box meets at most two cells across its
    short axes.  Cells are also at least a sixteenth of the mean box size
    (summed over the axes), so a few very long pieces cannot file an
    unbounded number of cells.
    """
    import numpy as np

    n = len(lo)
    min_side = -(-int((hi - lo).sum()) // (16 * n))
    cell = 2 * max(_CELL, min_side)  # in half units
    clo = (2 * lo - 1) // cell
    chi = (2 * hi + 1) // cell
    span = chi - clo + 1
    count = span.prod(axis=1)
    owner = np.repeat(np.arange(n), count)
    k = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
    sx, sy = span[owner, 0], span[owner, 1]
    cells = clo[owner] + np.stack([k % sx, (k // sx) % sy, k // (sx * sy)], axis=1)
    base = clo.min(axis=0)
    dims = chi.max(axis=0) - base + 1
    c = cells - base
    key = (c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]
    order = np.argsort(key, kind="stable")  # owners stay ascending within a cell
    key, owner, cells = key[order], owner[order], cells[order]
    firsts, seconds = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for d in range(1, len(key)):
        same = np.flatnonzero(key[d:] == key[:-d])
        if not len(same):
            break
        a, b = owner[same], owner[same + d]
        # a pair shares a block of cells; keep it only in the block's lowest cell
        lowest = (np.maximum(clo[a], clo[b]) == cells[same]).all(axis=1)
        firsts.append(a[lowest])
        seconds.append(b[lowest])
    i, j = np.concatenate(firsts), np.concatenate(seconds)
    keep = (np.maximum(lo[j] - hi[i], lo[i] - hi[j]) <= 1).all(axis=1)
    return i[keep], j[keep]


def _per_chunk(kernel, x, y, xs, ys):
    """kernel on rows x of the arrays xs and rows y of ys, _CHUNK pairs at a time."""
    for k in range(0, len(x), _CHUNK):
        cx, cy = x[k : k + _CHUNK], y[k : k + _CHUNK]
        yield kernel(*(w[cx] for w in xs), *(w[cy] for w in ys))


def _scan_pairs(pieces, arrays, i: np.ndarray, j: np.ndarray) -> float:
    """min(2, the least distance over the piece pairs i < j), arcs at even indices.

    `arrays` is `_piece_arrays` in float64.  Segment-segment and
    arc-segment pairs go through the exact batched kernels.  Arc-arc pairs
    go through the scalar `_arc_arc_dist` in order of the lower bound
    |c1 - c2| - 2, against the running minimum.
    """
    import numpy as np

    arc, seg = arrays[:3], arrays[3:]
    kind = (i % 2) + 2 * (j % 2)  # 0 arc-arc, 1 seg-arc, 2 arc-seg, 3 seg-seg
    ss, mixed = kind == 3, (kind == 1) | (kind == 2)
    arcs = np.where(kind == 1, j, i)[mixed] // 2
    segs = np.where(kind == 1, i, j)[mixed] // 2
    best = 2.0
    for d in chain(
        _per_chunk(_seg_seg_gap, i[ss] // 2, j[ss] // 2, seg, seg),
        _per_chunk(_arc_seg_batch, arcs, segs, arc, seg),
    ):
        best = min(best, float(d.min()))

    aa = kind == 0
    arc_arc_cands = sorted(
        (math.dist(pieces[a].center, pieces[b].center) - 2.0, a, b)
        for a, b in zip(i[aa].tolist(), j[aa].tolist())
    )
    calls = 0
    for lb, a, b in arc_arc_cands:
        if lb >= best - _TOL:
            break
        calls += 1
        best = min(best, _arc_arc_dist(pieces[a], pieces[b], cutoff=best))

    # imported here, not with the module: `import logging` adds time and
    # memory to the start-up of every command, and only a scan needs it
    import logging

    logging.getLogger(__name__).debug(
        "scan: %d segment-segment, %d arc-segment, %d arc-arc candidate pairs; "
        "%d arc-arc pairs to the scalar kernel",
        int(ss.sum()), len(arcs), len(arc_arc_cands), calls,
    )
    return best


def _clearance(s: SmoothKnot) -> float:
    """min(d, 2), where d is the least distance between non-adjacent pieces.

    Pieces are adjacent when their source sticks are at most one apart,
    cyclically (an arc at corner k joins sticks k-1 and k); the curvature
    radius, not the clearance, governs how close those come.  The
    candidates are the other pairs whose boxes are less than 2 apart, so
    every pair left out is at least 2 apart: one round is exact.
    """
    import numpy as np

    pieces = s.pieces
    m = len(pieces) // 2  # sticks
    arrays = _piece_arrays(pieces)
    i, j = _near_pairs(*_piece_boxes(*arrays))
    # piece p covers sticks (p-1)//2 .. p//2 (arc 0 covers -1, the last
    # stick); apart is the stick gap between two pieces, either way round
    far = np.minimum((j - 1) // 2 - i // 2, (i - 1) // 2 + m - j // 2) > 1
    return _scan_pairs(pieces, tuple(x.astype(float) for x in arrays), i[far], j[far])


# ---------------------------------------------------------------------------
# geometry export / import


_MIN_DENSITY, _MAX_DENSITY = 8, 4096


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
        if not all(abs(v) <= _MAX_COORD for v in (x, y, z)):  # nan compares false too
            raise MalformedInput(f"coordinate not finite or beyond 2**50 in magnitude in {line!r}")
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
        if any(abs(v) > _MAX_COORD for v in vals):
            raise MalformedInput(f"coordinate beyond 2**50 in magnitude in {line!r}")
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
