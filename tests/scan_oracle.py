"""Brute-force self-distance oracle: every non-adjacent piece pair.

`knotfold.rope` does not measure thickness: it reports 1 for the rounding
of every self-avoiding lattice polygon, on the lemma that non-adjacent
pieces are then at least 2 apart.  This oracle measures the least
distance d over all non-adjacent pairs instead, so that tests can check
the lemma on real knots and show what happens on ropes that break it.
Adjacency is decided stick by stick, and every non-adjacent pair is a
candidate.  The exact scalar kernels live here: point to arc, arc to
segment, arc to arc (parallel planes in closed form, perpendicular ones
through the roots of an integer polynomial, isolated by Sturm sequences),
and the general segment kernel.  tests/test_thickness_lemma.py decides its
lattice windows with them.
"""

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from knotfold.rope import _QUARTER, ArcPiece, StraightPiece


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


_TOL = 1e-10


def _in_cone(wu: float, wv: float) -> bool:
    return wu >= -1e-12 and wv >= -1e-12


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


def piece_sticks(index: int, n_sticks: int) -> tuple[int, ...]:
    """Source sticks of piece `index` in the [arc0, straight0, arc1, ...] order."""
    i = index // 2
    if index % 2 == 0:  # arc at corner i joins sticks i-1 and i
        return ((i - 1) % n_sticks, i)
    return (i,)


def pieces_adjacent(p: int, q: int, n_sticks: int) -> bool:
    """Pieces are adjacent when they derive from the same or consecutive sticks."""
    for a in piece_sticks(p, n_sticks):
        for b in piece_sticks(q, n_sticks):
            d = (a - b) % n_sticks
            if min(d, n_sticks - d) <= 1:
                return True
    return False


def min_self_distance_oracle(s) -> float:
    """Minimum distance over all non-adjacent piece pairs."""
    pieces = s.pieces
    n = len(pieces)
    excl = {(i, j) for i in range(n) for j in range(i + 1, n) if pieces_adjacent(i, j, n // 2)}
    seg_idx = [i for i, p in enumerate(pieces) if isinstance(p, StraightPiece)]
    arc_idx = [i for i, p in enumerate(pieces) if isinstance(p, ArcPiece)]
    best = math.inf

    pairs = [
        (i, j) for ii, i in enumerate(seg_idx) for j in seg_idx[ii + 1 :] if (i, j) not in excl
    ]
    if pairs:
        p1 = np.array([pieces[i].start for i, _ in pairs], dtype=float)
        q1 = np.array([pieces[i].end for i, _ in pairs], dtype=float)
        p2 = np.array([pieces[j].start for _, j in pairs], dtype=float)
        q2 = np.array([pieces[j].end for _, j in pairs], dtype=float)
        best = min(best, float(_seg_seg_batch(p1, q1, p2, q2).min()))

    arc_seg_cands = []
    for i in arc_idx:
        c = pieces[i].center
        for j in seg_idx:
            if (min(i, j), max(i, j)) in excl:
                continue
            lb = _point_seg_dist3(*c, *pieces[j].start, *pieces[j].end) - 1.0
            arc_seg_cands.append((lb, i, j))
    arc_seg_cands.sort()
    for lb, i, j in arc_seg_cands:
        if lb >= best - _TOL:
            break
        best = min(best, _arc_seg_dist(pieces[i], pieces[j].start, pieces[j].end))

    arc_arc_cands = []
    for ii, i in enumerate(arc_idx):
        for j in arc_idx[ii + 1 :]:
            if (i, j) not in excl:
                arc_arc_cands.append((math.dist(pieces[i].center, pieces[j].center) - 2.0, i, j))
    arc_arc_cands.sort()
    for lb, i, j in arc_arc_cands:
        if lb >= best - _TOL:
            break
        best = min(best, _arc_arc_dist(pieces[i], pieces[j], cutoff=best))
    return best
