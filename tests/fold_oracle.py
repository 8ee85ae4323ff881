"""The fold and the crease lowering as they were: point-by-point walks.

A reference for ``knotfold.lattice._fold`` and ``_lower_stick``.  The
oracle fold takes the curve as its cyclic list of unit points
(``unit_points(k)``), re-finds the sticks by comparing each point with
the next (``_step_axis``, ``_sections``) and expands every monotone path
with the generic ``_direct_path``.  The fold in knotfold walks the knot's
sticks and emits corners instead; the unit points of its corner cycle
must equal the oracle's point cycle, with the same number of removed
edges and the same number of bridges.  The oracle ``_lower_stick``
replaces the crease stick's block of z=2 points in a point cycle; the one
in knotfold drops two corners of a corner cycle, and both must trace the
same curve.  Neither shares code with knotfold: only the error types.
"""

from knotfold.errors import FoldCollision, ReconnectFailure


def _step_axis(pts, i):
    p, q = pts[i], pts[(i + 1) % len(pts)]
    for j in range(3):
        if p[j] != q[j]:
            return j
    raise ValueError("repeated point in cycle")


def _sections(pts):
    """Maximal same-axis runs of the cyclic point list.

    Each section carries the points of its run including both endpoint
    corners, so consecutive sections overlap in one point; emitting every
    section minus its last point reproduces the cycle.
    """
    n = len(pts)
    start = 0
    for i in range(n):
        if _step_axis(pts, (i - 1) % n) != _step_axis(pts, i):
            start = i
            break
    pts = pts[start:] + pts[:start]
    sections = []
    i = 0
    while i < n:
        axis = _step_axis(pts, i)
        j = i
        while j + 1 < n and _step_axis(pts, j + 1) == axis:
            j += 1
        sections.append((axis, pts[i : j + 2] if j + 1 < n else pts[i:] + [pts[0]]))
        i = j + 1
    return sections


def _direct_path(p, q, axis):
    """Inclusive monotone unit path from p to q, which differ only along axis."""
    step = 1 if q[axis] >= p[axis] else -1
    return [(*p[:axis], v, *p[axis + 1 :]) for v in range(p[axis], q[axis] + step, step)]


def fold_oracle(pts, axis, line, level, side):
    """Turn the points beyond a fold line half a turn about it.

    The line runs in the z=level plane at coordinate ``line`` of the fold
    axis (0 for x, 1 for y); the points beyond it on ``side`` map by
    p[axis] -> 2*line - p[axis], z -> 2*level - z.  A fold-axis stick in
    that plane becomes the direct path between the images of its ends,
    dropping the edges the fold doubles.  A fold-axis stick on z-level
    level - 2 that the line severs is rebuilt with a bridge of two
    fold-axis edges and four z-edges one unit beyond the line, around the
    outside of the fold.  Returns the folded point cycle, the number of
    doubled edges removed and the number of bridges built.
    """
    offset = [0, 0, 2 * level]
    offset[axis] = 2 * line
    sign = [1, 1, -1]
    sign[axis] = -1
    (ox, oy, oz), (sx, sy, sz) = offset, sign
    high = side == "high"

    def beyond(p):
        return p[axis] > line if high else p[axis] < line

    def rotate(p):
        x, y, z = p
        return (ox + sx * x, oy + sy * y, oz + sz * z)

    def image(p):
        return rotate(p) if beyond(p) else p

    out: list[tuple[int, int, int]] = []
    bridges: set[tuple[int, int, int]] = set()
    removed = broken = 0
    for sec_axis, sec in _sections(pts):
        z = sec[0][2]
        if sec_axis == axis and z == level:
            path = _direct_path(image(sec[0]), image(sec[-1]), axis)
            removed += len(sec) - len(path)
            out.extend(path[:-1])
        elif sec_axis == axis and z != level - 2:
            raise ValueError(
                f"fold about the {'xy'[axis]}-line {line} in the z={level} plane met a "
                f"fold-axis stick on z-level {z}, neither in that plane nor two below it"
            )
        elif beyond(sec[0]) == beyond(sec[-1]):
            # the line does not sever this stick, so all of it lies on one side
            out.extend(map(rotate, sec[:-1]) if beyond(sec[0]) else sec[:-1])
        else:
            broken += 1
            corner = list(sec[0])
            corner[axis] = line + 1 if high else line - 1
            bridge = [(*corner[:2], h) for h in range(level - 2, level + 3)]
            kept = [p for p in sec if not beyond(p)]
            moved = [rotate(p) for p in sec if beyond(p) or p[axis] == line]
            if beyond(sec[0]):
                out.extend((moved + bridge[::-1] + kept)[:-1])
            else:
                out.extend((kept + bridge + moved)[:-1])
            bridges.update(bridge)
    if len(set(out)) != len(out):
        seen: set[tuple[int, int, int]] = set()
        dupes = {p for p in out if p in seen or seen.add(p)}
        if dupes & bridges:
            raise ReconnectFailure(
                f"broken-stick bridge collides with existing geometry at {min(dupes)}"
            )
        raise FoldCollision(
            f"fold about the {'xy'[axis]}-line {line} left coincident lattice points"
        )
    return out, removed, broken


def _lower_stick(pts, col, rotated=False):
    """Drop the z=2 y-stick at x-level col onto z=1, removing its 2 z-edges.

    The curve pattern around that stick is (col, r1, 1), (col, r1, 2),
    ..., (col, r2, 2), (col, r2, 1); the z=2 block is replaced by the
    straight z=1 path between the flanking corners.
    """
    n = len(pts)
    block = [i for i, p in enumerate(pts) if p[0] == col and p[2] == 2]
    if not block:
        raise FoldCollision(f"no z=2 stick found at x-level {col} to lower")
    lo, hi = block[0], block[-1]
    if len(block) != hi - lo + 1:
        if rotated:
            raise FoldCollision(f"the z=2 points at x-level {col} form more than one run")
        # the block wraps the list start; rotate it to the front and retry once
        members = set(block)
        first_out = next(i for i in range(n) if i not in members)
        return _lower_stick(pts[first_out:] + pts[:first_out], col, rotated=True)
    pred = pts[(lo - 1) % n]
    succ = pts[(hi + 1) % n]
    first, last = pts[lo], pts[hi]
    if pred != (col, first[1], 1) or succ != (col, last[1], 1):
        raise FoldCollision(
            f"x-level {col} stick is not flanked by unit z-edges; cannot lower"
        )
    interior = [(col, p[1], 1) for p in pts[lo:hi + 1] if p[1] not in (pred[1], succ[1])]
    return pts[:lo] + interior + pts[hi + 1 :]
