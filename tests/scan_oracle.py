"""Brute-force thickness scan: every non-adjacent piece pair, no cell hash.

A reference for the cell-hash scan in knotfold.rope.  It shares none of
the pair selection: adjacency is decided stick by stick, and every
non-adjacent pair is a candidate.  It does not stop at 2 either: it
measures the full minimum distance d, and the scan's clearance must equal
min(d, 2).  Segment-segment pairs go through the general segment kernel
below, not the scan's box gaps.  Arc-segment pairs are measured one at a
time with the scalar kernel below, the reference for the scan's batched
`_arc_seg_batch`.  The point-to-arc distance and `_arc_arc_dist` are
shared with the scan.
"""

import math

import numpy as np

from knotfold.rope import (
    _TOL,
    ArcPiece,
    StraightPiece,
    _arc_arc_dist,
    _in_cone,
    _point_arc_dist,
)


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
    (endpoints, poles, crossings).  The batched `_arc_seg_batch` leaves the
    pole out, on the proof in its docstring that the pole's value is always
    that of an endpoint or crossing candidate; comparing the two bit for
    bit tests that proof.
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
