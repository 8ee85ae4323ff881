"""Corner rounding: lattice knots to unit-thickness smooth ropes.

The lattice knot is doubled (all corners scaled by 2) and every corner is
replaced by a quarter circle of radius 1 tangent to both incident sticks.
Straight pieces shrink by 1 at each end, so a stick of length L yields a
straight piece of length 2L - 2; length-1 sticks leave an explicit
zero-length piece so that pieces always alternate arc, straight, arc, ...
and the piece count stays exactly twice the corner count.

Thickness is measured, not assumed: curvature radius is exactly 1 by
construction and the minimum distance between non-adjacent pieces is
exact.  Straights and parallel arcs have closed forms; arcs in
perpendicular planes reduce to one angle, whose stationary points are
roots of an integer polynomial isolated by Sturm sequences.

The scan measures only candidate pairs.  Each piece's integer bounding
box is hashed into cells of side 4, and the candidates are the
non-adjacent pairs whose boxes lie within r of each other, from r = 2,
the clearance of the doubled lattice.  A minimum <= r is exact, since
every pair left out is farther apart than r; otherwise r grows and the
scan repeats, until at the knot's own extent every pair is a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

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
    min_curvature_radius: float
    min_doubled_self_distance: float
    thickness_radius: float
    ropelength: float


def smooth(k: LatticeKnot) -> SmoothKnot:
    """Double the knot and round every corner with a quarter circle."""
    for i, c in enumerate(k.corners):
        if c == k.corners[(i + 1) % len(k.corners)]:
            raise DegenerateKnot(f"zero-length stick at corner {c}")
    k = canonicalize(k)
    corners = [tuple(2 * v for v in c) for c in k.corners]
    m = len(corners)
    dirs = []
    for i in range(m):
        p, q = corners[i], corners[(i + 1) % m]
        d = tuple((q[j] - p[j]) and (1 if q[j] > p[j] else -1) for j in range(3))
        dirs.append(d)
    pieces: list[object] = []
    for i in range(m):
        u = dirs[(i - 1) % m]  # incoming direction at corner i
        v = dirs[i]  # outgoing
        p = corners[i]
        center = tuple(p[j] - u[j] + v[j] for j in range(3))
        arc = ArcPiece(center=center, u=tuple(-x for x in v), v=u)
        q = corners[(i + 1) % m]
        seg = StraightPiece(
            start=tuple(p[j] + v[j] for j in range(3)),
            end=tuple(q[j] - v[j] for j in range(3)),
        )
        if arc.end != seg.start:
            raise AssertionError("arc/straight tangency broke; construction bug")
        pieces.append(arc)
        pieces.append(seg)
    return SmoothKnot(pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# metrics


def rope_metrics(s: SmoothKnot) -> RopeMetrics:
    """Length in closed form; thickness from curvature and the distance scan."""
    arcs = s.arcs
    straight_total = sum(p.length for p in s.straights)
    n_arcs = len(arcs)
    length_exact = PiExpr(Fraction(straight_total), Fraction(n_arcs, 2))
    length = float(length_exact)
    min_curv = 1.0 if n_arcs else math.inf
    dmin = _min_self_distance(s)
    thickness = min(min_curv, dmin / 2.0)
    return RopeMetrics(
        length=length,
        length_exact=length_exact,
        corner_count=n_arcs,
        min_curvature_radius=min_curv,
        min_doubled_self_distance=dmin,
        thickness_radius=thickness,
        ropelength=length / thickness if thickness else math.inf,
    )


def _point_seg_dist3(px, py, pz, ax, ay, az, bx, by, bz):
    abx, aby, abz = bx - ax, by - ay, bz - az
    denom = abx * abx + aby * aby + abz * abz
    if denom == 0.0:
        dx, dy, dz = px - ax, py - ay, pz - az
        return math.sqrt(dx * dx + dy * dy + dz * dz)
    t = ((px - ax) * abx + (py - ay) * aby + (pz - az) * abz) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    dx = px - (ax + t * abx)
    dy = py - (ay + t * aby)
    dz = pz - (az + t * abz)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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


def _seg_seg_batch(p1, q1, p2, q2):
    """Vectorized exact segment/segment distances (rows are 3-vectors)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0), 0.0)
        t = np.where(e > 0.0, (b * s + f) / np.where(e == 0.0, 1.0, e), 0.0)
        s_low = np.where(a > 0.0, np.clip(-c / np.where(a == 0.0, 1.0, a), 0.0, 1.0), 0.0)
        s_high = np.where(a > 0.0, np.clip((b - c) / np.where(a == 0.0, 1.0, a), 0.0, 1.0), 0.0)
    s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
    # a degenerate second segment pins t = 0; s must still project onto the first
    s = np.where(e == 0.0, s_low, s)
    t = np.clip(t, 0.0, 1.0)
    diff = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


_QUARTER = math.pi / 2
_TOL = 1e-10


def _in_cone(wu: float, wv: float) -> bool:
    return wu >= -1e-12 and wv >= -1e-12


def _arc_seg_dist(arc: ArcPiece, a, b) -> float:
    """Exact min distance from a quarter arc to an axis-parallel segment.

    Split by the segment direction: along the arc-plane normal the nearest
    segment point is the one at the arc's level, so the point-to-arc
    formula applies; in-plane directions reduce to 2D circle vs segment,
    where the minimum is at one of finitely many critical candidates
    (endpoints, poles, crossings).
    """
    n_axis = next(i for i in range(3) if arc.u[i] == 0 and arc.v[i] == 0)
    d = tuple(b[i] - a[i] for i in range(3))
    if all(x == 0 for x in d) or d[n_axis] != 0:
        # along the normal (or a point): the segment point nearest the arc
        # has its normal coordinate clamped to the arc's level
        lo, hi = sorted((a[n_axis], b[n_axis]))
        p = list(a)
        p[n_axis] = min(max(arc.center[n_axis], lo), hi)
        return _point_arc_dist(p, arc)
    cands = [
        _point_arc_dist(a, arc),
        _point_arc_dist(b, arc),
        _point_seg_dist3(*arc.start, *a, *b),
        _point_seg_dist3(*arc.end, *a, *b),
    ]
    # poles: circle points whose radial direction is perpendicular to the
    # segment; a candidate when inside the quarter and over the segment
    h = float(a[n_axis]) - float(arc.center[n_axis])
    seg_axis = next(i for i in range(3) if d[i] != 0)
    perp_axis = next(i for i in range(3) if i != n_axis and i != seg_axis)
    for sgn in (1, -1):
        f = [0, 0, 0]
        f[perp_axis] = sgn
        fu = sum(f[i] * arc.u[i] for i in range(3))
        fv = sum(f[i] * arc.v[i] for i in range(3))
        if not _in_cone(fu, fv):
            continue
        pole = tuple(arc.center[i] + f[i] for i in range(3))
        lo, hi = sorted((a[seg_axis], b[seg_axis]))
        if lo <= pole[seg_axis] <= hi:
            cands.append(math.hypot(pole[perp_axis] - a[perp_axis], h))
    # crossings: the segment passes over or under the arc
    k = float(a[perp_axis]) - float(arc.center[perp_axis])
    if abs(k) <= 1.0:
        off = math.sqrt(max(1.0 - k * k, 0.0))
        for sgn in (1, -1):
            w = [0.0, 0.0, 0.0]
            w[perp_axis] = k
            w[seg_axis] = sgn * off
            wu = sum(w[i] * arc.u[i] for i in range(3))
            wv = sum(w[i] * arc.v[i] for i in range(3))
            if not _in_cone(wu, wv):
                continue
            x = arc.center[seg_axis] + w[seg_axis]
            lo, hi = sorted((a[seg_axis], b[seg_axis]))
            if lo <= x <= hi:
                cands.append(abs(h))
    return min(cands)


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


def _piece_boxes(pieces) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounding boxes (lo, hi), one row per piece.

    An arc's box is its center +-1 in its plane and its center along the
    normal; a straight's box spans its two endpoints.
    """
    lo = np.empty((len(pieces), 3), dtype=np.int64)
    hi = np.empty_like(lo)
    for i, p in enumerate(pieces):
        if isinstance(p, ArcPiece):
            ext = [abs(a) + abs(b) for a, b in zip(p.u, p.v)]
            lo[i] = [c - e for c, e in zip(p.center, ext)]
            hi[i] = [c + e for c, e in zip(p.center, ext)]
        else:
            lo[i] = np.minimum(p.start, p.end)
            hi[i] = np.maximum(p.start, p.end)
    return lo, hi


def _near_pairs(lo: np.ndarray, hi: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j whose boxes are at most r apart along every axis.

    Every box, grown by r/2 on each side, is filed under each hash cell it
    meets; two boxes at most r apart along every axis then share a cell.
    Cells have side 4, or r when r is larger, so a grown box meets at
    most three cells across its short axes.  Cells are also at least a
    sixteenth of the mean box size (summed over the axes), so a few very
    long pieces cannot file an unbounded number of cells.
    """
    n = len(lo)
    min_side = -(-int((hi - lo).sum()) // (16 * n))
    cell = 2 * max(_CELL, r, min_side)  # in half units, so r may be odd
    clo = (2 * lo - r) // cell
    chi = (2 * hi + r) // cell
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
    gap = np.maximum(lo[j] - hi[i], lo[i] - hi[j]).max(axis=1)
    keep = gap <= r
    return i[keep], j[keep]


def _scan_pairs(pieces, i: np.ndarray, j: np.ndarray) -> float:
    """Minimum distance over the given piece pairs (i < j, arcs at even indices)."""
    best = math.inf
    kind = (i % 2) + 2 * (j % 2)  # 0 arc-arc, 1 seg-arc, 2 arc-seg, 3 seg-seg

    ss = kind == 3
    if ss.any():
        starts = np.array([p.start for p in pieces], dtype=float)
        ends = np.array([p.end for p in pieces], dtype=float)
        a, b = i[ss], j[ss]
        dists = _seg_seg_batch(starts[a], ends[a], starts[b], ends[b])
        best = min(best, float(dists.min()))

    # arcs stay within distance 1 of their centers, giving cheap lower
    # bounds that prune almost every pair against the running minimum
    mixed = (kind == 1) | (kind == 2)
    arcs = np.where(kind == 1, j, i)[mixed].tolist()
    segs = np.where(kind == 1, i, j)[mixed].tolist()
    arc_seg_cands = [
        (_point_seg_dist3(*pieces[a].center, *pieces[b].start, *pieces[b].end) - 1.0, a, b)
        for a, b in zip(arcs, segs)
    ]
    arc_seg_cands.sort()
    for lb, a, b in arc_seg_cands:
        if lb >= best - _TOL:
            break
        d = _arc_seg_dist(pieces[a], pieces[b].start, pieces[b].end)
        if d < best:
            best = d

    aa = kind == 0
    arc_arc_cands = [
        (math.dist(pieces[a].center, pieces[b].center) - 2.0, a, b)
        for a, b in zip(i[aa].tolist(), j[aa].tolist())
    ]
    arc_arc_cands.sort()
    for lb, a, b in arc_arc_cands:
        if lb >= best - _TOL:
            break
        d = _arc_arc_dist(pieces[a], pieces[b], cutoff=best)
        if d < best:
            best = d
    return best


def _min_self_distance(s: SmoothKnot) -> float:
    """Minimum distance over all non-adjacent piece pairs.

    Pieces are adjacent when their source sticks are at most one apart,
    cyclically (an arc at corner k joins sticks k-1 and k).  Such pairs
    are close only through a short run of the curve itself, where
    embeddability is governed by the curvature radius; chordal clearance
    is meaningful between pieces of non-adjacent sticks, which the doubled
    lattice keeps at distance 2 or more.

    Candidates are the non-adjacent pairs whose boxes lie within r of
    each other, starting at r = 2.  A minimum <= r is the answer, since
    every pair left out is farther apart than r.  Otherwise r doubles, or
    grows to the minimum found if that is larger, so the next round ends
    the scan; r stops at the extent of the knot's box, where every pair
    is a candidate.
    """
    pieces = s.pieces
    n = len(pieces)
    m = n // 2  # sticks
    lo, hi = _piece_boxes(pieces)
    extent = int((hi.max(axis=0) - lo.min(axis=0)).max())
    r = 2
    while True:
        if r >= extent:
            i, j = np.triu_indices(n, 1)
        else:
            i, j = _near_pairs(lo, hi, r)
        # piece p covers sticks (p-1)//2 .. p//2 (arc 0 covers -1, the last
        # stick); apart is the stick gap between two pieces, either way round
        apart = np.minimum((j - 1) // 2 - i // 2, (i - 1) // 2 + m - j // 2)
        far = apart > 1
        best = _scan_pairs(pieces, i[far], j[far])
        if best <= r or r >= extent:
            return best
        # every pair within the best distance found is a candidate next round
        r = min(2 * r if best == math.inf else max(2 * r, math.ceil(best)), extent)


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
    one vertex at the start of every positive-length straight piece.
    arcs: exact piece records `SEG x0 y0 z0 x1 y1 z1` and
    `ARC cx cy cz ux uy uz vx vy vz`, integer coordinates throughout.
    """
    if form == "arcs":
        lines = []
        for p in s.pieces:
            if isinstance(p, ArcPiece):
                lines.append(
                    "ARC " + " ".join(str(v) for v in (*p.center, *p.u, *p.v))
                )
            else:
                lines.append("SEG " + " ".join(str(v) for v in (*p.start, *p.end)))
        return "\n".join(lines) + "\n"
    if form != "polyline":
        raise ValueError(f"unknown form {form!r}")
    check_density(density)
    trig = [(math.cos(t), math.sin(t)) for t in (j * _QUARTER / density for j in range(density))]
    # one axis of an arc sample is c + cos*a + sin*b, ArcPiece.point's float
    # expression, so its column of formatted strings depends only on
    # (c, a, b), and arcs share columns: format each key once per call
    columns: dict[tuple[int, int, int], list[str]] = {}

    def column(key: tuple[int, int, int]) -> list[str]:
        col = columns.get(key)
        if col is None:
            c, a, b = key
            col = columns[key] = [f"{c + ct * a + st * b:.17g}" for ct, st in trig]
        return col

    lines: list[str] = []
    for p in s.pieces:
        if isinstance(p, ArcPiece):
            lines.extend(map(" ".join, zip(*map(column, zip(p.center, p.u, p.v)))))
        elif p.length > 0:
            lines.append(" ".join(f"{float(v):.17g}" for v in p.start))
    return "\n".join(lines) + "\n"


def import_polyline(text: str) -> list[tuple[float, float, float]]:
    verts = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(f"expected 'x y z', got {line!r}")
        verts.append(tuple(float(p) for p in parts))
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
