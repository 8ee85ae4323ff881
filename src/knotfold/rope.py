"""Corner rounding: lattice knots to unit-thickness smooth ropes.

The lattice knot is doubled (all corners scaled by 2) and every corner is
replaced by a quarter circle of radius 1 tangent to both incident sticks.
Straight pieces shrink by 1 at each end, so a stick of length L yields a
straight piece of length 2L - 2; length-1 sticks leave an explicit
zero-length piece so that pieces always alternate arc, straight, arc, ...
and the piece count stays exactly twice the corner count.

Thickness is measured, not assumed: curvature radius is exactly 1 by
construction and the minimum distance between non-adjacent pieces is
computed by exact segment-segment formulas plus certified subdivision
(Lipschitz and curvature bounds) for arcs, to 1e-9.

The scan measures only candidate pairs.  Each piece's integer bounding
box is hashed into cells of side 4, and the candidates are the
non-adjacent pairs whose boxes lie within r of each other, from r = 2,
the clearance of the doubled lattice.  A minimum <= r is exact, since
every pair left out is farther apart than r; otherwise r grows and the
scan repeats, until at the knot's own extent every pair is a candidate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import PiExpr
from .errors import BadDensity, DegenerateKnot, MalformedInput
from .lattice import LatticeKnot, canonicalize


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
_MAX_CELLS = 20_000


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
    """Min distance between quarter arcs, never above the true value.

    Parallel-plane pairs are exact; perpendicular ones use best-first
    certified subdivision to 1e-10, pruning with the better of the
    curvature bound f >= f(m) - |grad|*w - w^2/2 and interval bounds on
    the trigonometric expansion of f^2 (grouped three ways so bounds stay
    exact along axis and diagonal valleys).  If the refinement budget is
    ever exhausted the certified lower bound is returned instead, which
    only under-reports adversarial configurations that valid doubled
    lattice knots cannot produce.
    """
    n1 = next(i for i in range(3) if a1.u[i] == 0 and a1.v[i] == 0)
    n2 = next(i for i in range(3) if a2.u[i] == 0 and a2.v[i] == 0)
    if n1 == n2:
        return _arc_arc_parallel_dist(a1, a2, n1)
    c1, u1, v1 = a1.center, a1.u, a1.v
    c2, u2, v2 = a2.center, a2.u, a2.v
    dc = (c2[0] - c1[0], c2[1] - c1[1], c2[2] - c1[2])

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    # f^2 = |dc|^2 + 2 - 2 dc.e1 + 2 dc.e2 - 2 e1.e2
    k0 = float(dot(dc, dc)) + 2.0
    p1, q1 = float(dot(dc, u1)), float(dot(dc, v1))
    p2, q2 = float(dot(dc, u2)), float(dot(dc, v2))
    uu_ = float(dot(u1, u2))
    uv_ = float(dot(u1, v2))
    vu_ = float(dot(v1, u2))
    vv_ = float(dot(v1, v2))
    a_m, c_m = 0.5 * (uu_ + vv_), 0.5 * (vu_ - uv_)
    a_p, c_p = 0.5 * (uu_ - vv_), 0.5 * (uv_ + vu_)

    def at1(t):
        ct, st = math.cos(t), math.sin(t)
        return (
            c1[0] + ct * u1[0] + st * v1[0],
            c1[1] + ct * u1[1] + st * v1[1],
            c1[2] + ct * u1[2] + st * v1[2],
        )

    def at2(t):
        ct, st = math.cos(t), math.sin(t)
        return (
            c2[0] + ct * u2[0] + st * v2[0],
            c2[1] + ct * u2[1] + st * v2[1],
            c2[2] + ct * u2[2] + st * v2[2],
        )

    def interval_lb2(lo1, hi1, lo2, hi2):
        # expansion in the rotated angles t1-t2 and t1+t2; exact along
        # diagonal valleys such as coaxial stacked pairs
        e1_max = _wave_range(p1, q1, lo1, hi1)[1]
        e2_min = _wave_range(p2, q2, lo2, hi2)[0]
        dot_max = (
            _wave_range(a_m, c_m, lo1 - hi2, hi1 - lo2)[1]
            + _wave_range(a_p, c_p, lo1 + lo2, hi1 + hi2)[1]
        )
        diag = k0 - 2.0 * e1_max + 2.0 * e2_min - 2.0 * dot_max
        # grouped forms f^2 = W0(t1) + Wc(t1) cos(t2) + Ws(t1) sin(t2) and
        # symmetrically; exact along valleys parallel to either angle axis
        # (cos and sin are nonnegative on the quarter ranges)
        w0_lo = k0 + 2.0 * _wave_range(-p1, -q1, lo1, hi1)[0]
        wc_lo = 2.0 * p2 + 2.0 * _wave_range(-uu_, -vu_, lo1, hi1)[0]
        ws_lo = 2.0 * q2 + 2.0 * _wave_range(-uv_, -vv_, lo1, hi1)[0]
        by_psi = w0_lo + _wave_range(wc_lo, ws_lo, lo2, hi2)[0]
        v0_lo = k0 + 2.0 * _wave_range(p2, q2, lo2, hi2)[0]
        vc_lo = -2.0 * p1 + 2.0 * _wave_range(-uu_, -uv_, lo2, hi2)[0]
        vs_lo = -2.0 * q1 + 2.0 * _wave_range(-vu_, -vv_, lo2, hi2)[0]
        by_theta = v0_lo + _wave_range(vc_lo, vs_lo, lo1, hi1)[0]
        return max(diag, by_psi, by_theta)

    best = math.inf

    def visit(lo1, hi1, lo2, hi2):
        """Evaluate the cell midpoint and return the cell's lower bound."""
        nonlocal best
        m1 = 0.5 * (lo1 + hi1)
        m2 = 0.5 * (lo2 + hi2)
        w1 = 0.5 * (hi1 - lo1)
        w2 = 0.5 * (hi2 - lo2)
        pa, pb = at1(m1), at2(m2)
        dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
        fm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if fm < best:
            best = fm
        lb2 = interval_lb2(lo1, hi1, lo2, hi2)
        lb = math.sqrt(lb2) if lb2 > 0 else 0.0
        if fm > 0.0:
            c1m, s1m = math.cos(m1), math.sin(m1)
            c2m, s2m = math.cos(m2), math.sin(m2)
            s1 = abs(
                dx * (c1m * v1[0] - s1m * u1[0])
                + dy * (c1m * v1[1] - s1m * u1[1])
                + dz * (c1m * v1[2] - s1m * u1[2])
            ) / fm
            s2 = abs(
                dx * (c2m * v2[0] - s2m * u2[0])
                + dy * (c2m * v2[1] - s2m * u2[1])
                + dz * (c2m * v2[2] - s2m * u2[2])
            ) / fm
            lb = max(lb, fm - s1 * w1 - s2 * w2 - 0.5 * (w1 * w1 + w2 * w2))
        return lb

    # seed the upper bound on the dyadic grid: flat valleys of these
    # integer-frame configurations attain their minimum at multiples of
    # pi/4, which dyadic cell midpoints otherwise approach only slowly
    for i in range(3):
        for j in range(3):
            best = min(best, math.dist(at1(i * _QUARTER / 2), at2(j * _QUARTER / 2)))
    # best-first refinement: always split the cell with the least lower
    # bound, so near-tied local basins cannot be refined to exhaustion
    # before the cell holding the true minimum is visited.  The split
    # axis is chosen by which split tightens the children's bounds more:
    # along a valley flat in one angle, splitting that angle is useless
    # and only the other direction shrinks the slack.
    root = (0.0, _QUARTER, 0.0, _QUARTER)
    heap = [(visit(*root), root)]
    cells = 0
    while heap:
        cells += 1
        if cells > _MAX_CELLS:
            # certain adversarial integer frames (arcs meeting the other
            # arc's axis) produce product-form valleys no additive bound
            # certifies cheaply; the heap minimum is still a true lower
            # bound, so returning it keeps thickness checks conservative.
            # Doubled lattice knots cannot reach this branch: their arc
            # centers are never axis-aligned with another arc's frame.
            return max(0.0, min(best, heap[0][0]))
        lb, (lo1, hi1, lo2, hi2) = heapq.heappop(heap)
        if lb >= min(best, cutoff) - _TOL:
            break
        m1 = 0.5 * (lo1 + hi1)
        m2 = 0.5 * (lo2 + hi2)
        split1 = ((lo1, m1, lo2, hi2), (m1, hi1, lo2, hi2))
        split2 = ((lo1, hi1, lo2, m2), (lo1, hi1, m2, hi2))
        scored = []
        for children, width in ((split1, hi1 - lo1), (split2, hi2 - lo2)):
            bounds = tuple(visit(*child) for child in children)
            scored.append(((min(bounds), width), bounds, children))
        _score, bounds, children = max(scored, key=lambda s: s[0])
        for child_lb, child in zip(bounds, children):
            if child_lb < min(best, cutoff) - _TOL:
                heapq.heappush(heap, (child_lb, child))
    return best


def _cos_range_max(phase: float, lo: float, hi: float) -> float:
    """max of cos(t - phase) for t in [lo, hi]."""
    k = math.floor((lo - phase) / (2 * math.pi))
    for cand in (phase + 2 * math.pi * k, phase + 2 * math.pi * (k + 1)):
        if lo <= cand <= hi:
            return 1.0
    return max(math.cos(lo - phase), math.cos(hi - phase))


def _wave_range(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """Range of a*cos(t) + b*sin(t) over [lo, hi]."""
    r = math.hypot(a, b)
    if r == 0.0:
        return 0.0, 0.0
    phase = math.atan2(b, a)
    top = r * _cos_range_max(phase, lo, hi)
    bot = -r * _cos_range_max(phase + math.pi, lo, hi)
    return bot, top


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


def export_geometry(s: SmoothKnot, form: str = "polyline", density: int = 32) -> str:
    """Emit the smooth curve for external tools.

    polyline: closed 3D polyline, `density` samples per arc plus one
    vertex at the start of every positive-length straight piece.
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
    if density < 8:
        raise BadDensity(f"polyline export needs >= 8 points per arc, got {density}")
    verts: list[tuple[float, float, float]] = []
    for p in s.pieces:
        if isinstance(p, ArcPiece):
            for j in range(density):
                verts.append(p.point(j * _QUARTER / density))
        elif p.length > 0:
            verts.append(tuple(float(v) for v in p.start))
    return "\n".join(" ".join(f"{v:.17g}" for v in vert) for vert in verts) + "\n"


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


# Imported coordinates stay within this bound, so every coordinate, arc end
# and difference of two of them is an integer that a float64 holds exactly.
_MAX_COORD = 2**50


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
