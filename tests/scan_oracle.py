"""Brute-force thickness scan: every non-adjacent piece pair, no cell hash.

A reference for the cell-hash scan in knotfold.rope.  It shares the
exact distance kernels but none of the pair selection: adjacency is
decided stick by stick, and every non-adjacent pair is a candidate.
"""

import math

import numpy as np

from knotfold.rope import (
    _TOL,
    ArcPiece,
    StraightPiece,
    _arc_arc_dist,
    _arc_seg_dist,
    _point_seg_dist3,
    _seg_seg_batch,
)


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
