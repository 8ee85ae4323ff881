"""Lattice knots and the folding pipeline.

A lattice knot is a closed self-avoiding polygon of axis-parallel sticks
with integer corners.  A grid diagram settles into one occupying two
z-levels.  Both folds then make the same move: the points beyond a fold
line in a z=level plane turn half a turn about it, the fold-axis sticks in
that plane lose the edges the turn doubles, and fold-axis sticks two
levels below that the line severs are bridged around the outside of the
fold.  The horizontal fold turns about an x-line in the z=1 plane and then
lowers its crease sticks; the vertical fold turns the horizontal fold's
curve, taken before that lowering, about a y-line in the z=2 plane.  Each
fold keeps the knot type while shrinking the edge count.

A fold walks its input's sticks in maximal same-axis runs and emits the
folded curve as a cyclic corner list, one to three corners per run; the
lowering of a crease stick drops two corners.  Self-avoidance is tested on
sticks, never on unit points: stick i covers the closed integer interval
from corner i to one step before corner i + 1, and the curve is
self-avoiding exactly when those covered sets are pairwise disjoint.
Collinear overlaps are found by sorting each line's intervals and
perpendicular hits by a plane sweep, so a self-avoiding curve of n sticks
passes in O(n log n), whatever the sticks' lengths.  No floating point
appears anywhere in this module.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import (
    DegenerateCurve,
    FoldCollision,
    MalformedInput,
    ReconnectFailure,
    ValidationReport,
)
from .grid import GridDiagram, validate_grid


@dataclass(frozen=True)
class LatticeKnot:
    """Cyclic corner list; consecutive corners differ in exactly one axis."""

    corners: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class EdgeCensus:
    """Exact per-axis unit-edge, stick, and corner counts."""

    x_edges: int
    y_edges: int
    z_edges: int
    x_sticks: int
    y_sticks: int
    z_sticks: int
    corners: int

    @property
    def total_edges(self) -> int:
        return self.x_edges + self.y_edges + self.z_edges

    @property
    def total_sticks(self) -> int:
        return self.x_sticks + self.y_sticks + self.z_sticks


@dataclass(frozen=True)
class FoldReport:
    """Bookkeeping for one fold; per-axis deltas reconcile pre and post."""

    fold_axis: str
    side: str
    fold_line: int
    removed_overlap_edges: int
    removed_z_edges: int
    broken_sticks_reconnected: int
    added_y_edges: int
    added_z_edges: int
    pre: EdgeCensus
    post: EdgeCensus


def sticks_of(k: LatticeKnot) -> list[tuple[int, tuple, tuple, int]]:
    """Sticks as (axis, start, end, length) around the cycle."""
    out = []
    for p, q in zip(k.corners, k.corners[1:] + k.corners[:1]):
        dx, dy, dz = q[0] - p[0], q[1] - p[1], q[2] - p[2]
        if dx and not (dy or dz):
            out.append((0, p, q, abs(dx)))
        elif dy and not (dx or dz):
            out.append((1, p, q, abs(dy)))
        elif dz and not (dx or dy):
            out.append((2, p, q, abs(dz)))
        else:
            raise ValueError(f"corners {p} -> {q} do not span an axis stick")
    return out


def edge_census(k: LatticeKnot) -> EdgeCensus:
    """Count unit edges, sticks, and corners per axis."""
    edges = [0, 0, 0]
    sticks = [0, 0, 0]
    for axis, _p, _q, length in sticks_of(k):
        edges[axis] += length
        sticks[axis] += 1
    return EdgeCensus(
        x_edges=edges[0],
        y_edges=edges[1],
        z_edges=edges[2],
        x_sticks=sticks[0],
        y_sticks=sticks[1],
        z_sticks=sticks[2],
        corners=len(k.corners),
    )


def canonicalize(k: LatticeKnot) -> LatticeKnot:
    """Canonical form: colinear merges, deterministic rotation and direction.

    Consecutive same-direction sticks merge and zero-length sticks drop;
    the cyclic list is then rotated to its lexicographically least corner
    and oriented so the successor of that corner is smallest.  The set of
    points traced by the curve is unchanged.
    """
    corners = [c for c, nxt in zip(k.corners, k.corners[1:] + k.corners[:1]) if c != nxt]
    while len(corners) >= 3:
        # dirs[i] leads from corner i to corner i + 1
        dirs = [_unit_dir(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]
        kept = [c for c, d1, d2 in zip(corners, dirs[-1:] + dirs, dirs) if d1 is None or d1 != d2]
        if len(kept) == len(corners):
            break
        corners = kept
    if len(corners) < 4:
        raise DegenerateCurve(f"only {len(corners)} corners remain")

    def rotated(seq):
        i0 = seq.index(min(seq))
        return tuple(seq[i0:] + seq[:i0])

    forward = rotated(corners)
    backward = rotated(list(reversed(corners)))
    return LatticeKnot(min(forward, backward))


def _unit_dir(p, q):
    dx, dy, dz = q[0] - p[0], q[1] - p[1], q[2] - p[2]
    if dx and not (dy or dz):
        return (1 if dx > 0 else -1, 0, 0)
    if dy and not (dx or dz):
        return (0, 1 if dy > 0 else -1, 0)
    if dz and not (dx or dy):
        return (0, 0, 1 if dz > 0 else -1)
    return None


def _meetings(sticks):
    """Yield (i, j, lo, hi) for every pair of sticks i < j whose covered sets meet.

    ``sticks`` is sticks_of(k).  Stick i covers the lattice points from its
    start corner to one step before its end corner, a closed integer
    interval along its axis; lo and hi are the least and greatest points
    the pair has in common.  Collinear pairs come from sorting each line's
    intervals by their low ends.  Perpendicular pairs come from one sweep
    per pair of axes, in each plane of the third axis that holds sticks of
    both: sticks along the swept axis are inserted at their low end and
    removed after their high end, and each stick along the other axis asks
    for the inserted sticks whose fixed coordinate it spans (the
    orthogonal-segment case of Bentley and Ottmann, IEEE Trans. Comput.
    C-28, 1979).  Without meetings this takes O(n log n) in the number of
    sticks; each meeting pair adds O(1).
    """
    by_axis: list[list[tuple[tuple, int, int, int]]] = [[], [], []]
    for i, (axis, p, q, _) in enumerate(sticks):
        lo, hi = (p[axis], q[axis] - 1) if q[axis] > p[axis] else (q[axis] + 1, p[axis])
        by_axis[axis].append((p, lo, hi, i))

    def point(p, axis, t):
        return (*p[:axis], t, *p[axis + 1 :])

    for axis, spans in enumerate(by_axis):
        u, v = [j for j in range(3) if j != axis]
        line_u = line_v = None
        reach: list[tuple[int, int]] = []  # (hi, index) of this line's spans that reach lo
        for fu, fv, lo, hi, i in sorted([(p[u], p[v], lo, hi, i) for p, lo, hi, i in spans]):
            if fu != line_u or fv != line_v:
                line_u, line_v, reach = fu, fv, [(hi, i)]
                continue
            reach = [r for r in reach if r[0] >= lo]
            for top, j in reach:
                p = sticks[i][1]
                yield min(i, j), max(i, j), point(p, axis, lo), point(p, axis, min(hi, top))
            reach.append((hi, i))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        c = 3 - a - b
        planes = {s[0][c] for s in by_axis[a]} & {s[0][c] for s in by_axis[b]}
        # insert < query < remove at one position, since the intervals are closed
        events = [(p[c], lo, 0, p[b], i) for p, lo, _, i in by_axis[a] if p[c] in planes]
        events += [(p[c], hi, 2, p[b], i) for p, _, hi, i in by_axis[a] if p[c] in planes]
        events += [(p[c], p[a], 1, lo, hi, j) for p, lo, hi, j in by_axis[b] if p[c] in planes]
        events.sort()
        # (b-coordinate, index) of the a-sticks the sweep is inside, sorted;
        # it is empty again at the end of each plane
        active: list[tuple[int, int]] = []
        for event in events:
            kind = event[2]
            if kind == 0:
                insort(active, event[3:])
            elif kind == 2:
                del active[bisect_left(active, event[3:])]
            else:
                plane, pos, _, lo, hi, j = event
                t = bisect_left(active, (lo,))
                while t < len(active) and active[t][0] <= hi:
                    w, i = active[t]
                    meet = [0, 0, 0]
                    meet[a], meet[b], meet[c] = pos, w, plane
                    yield min(i, j), max(i, j), tuple(meet), tuple(meet)
                    t += 1


def validate_lattice(k: LatticeKnot) -> ValidationReport:
    """Closure, axis-parallelism, and self-avoidance checks, report style.

    Self-avoidance is tested on sticks: stick i covers the closed integer
    interval from corner i to one step before corner i + 1, and the curve
    is self-avoiding exactly when those covered sets are pairwise
    disjoint.  A SelfIntersection names the point whose second visit comes
    first in trace order.  In the number n of sticks the test costs
    O(n log n), and O(n log^2 n) when it finds a collision, whatever the
    lengths of the sticks or the number of points visited twice.
    """
    report = ValidationReport()
    corners = k.corners
    m = len(corners)
    if m < 4:
        report.add("TooFewCorners", f"{m} corners cannot close a lattice polygon")
        return report
    structural_ok = True
    for i in range(m):
        p, q = corners[i], corners[(i + 1) % m]
        ndiff = sum(1 for j in range(3) if p[j] != q[j])
        if ndiff == 0:
            report.add("ZeroLengthStick", f"corner {i} repeats point {p}")
            structural_ok = False
        elif ndiff > 1:
            code = "NotClosed" if i == m - 1 else "NotAxisParallel"
            report.add(code, f"segment {p} -> {q} changes {ndiff} coordinates")
            structural_ok = False
    if structural_ok:
        sticks = sticks_of(k)
        if next(_meetings(sticks), None):
            # The second visit that comes first in trace order lies on the
            # least stick j that meets an earlier stick.  Sticks 0..j-1 are
            # then pairwise disjoint, so every meeting among sticks 0..j
            # involves j: at most j of them, however many the curve has.
            j, top = 1, len(sticks) - 1
            while j < top:
                mid = (j + top) // 2
                if next(_meetings(sticks[: mid + 1]), None):
                    top = mid
                else:
                    j = mid + 1
            axis, start, end, _ = sticks[j]
            forward = end[axis] > start[axis]
            # stick j meets each earlier stick in a run of its points; the
            # run's end nearer start is visited first
            near = [lo if forward else hi for *_, lo, hi in _meetings(sticks[: j + 1])]
            p = min(near, key=lambda c: abs(c[axis] - start[axis]))
            report.add("SelfIntersection", f"lattice point {p} visited twice")
    return report


def _require_valid(k: LatticeKnot, context: str, error=FoldCollision) -> None:
    report = validate_lattice(k)
    if not report.ok:
        raise error(f"{context}: {report}")


# ---------------------------------------------------------------------------
# Step 1: settle a grid diagram into the cubic lattice


def settle(d: GridDiagram) -> LatticeKnot:
    """Realize a grid diagram as a lattice knot on z-levels 1 and 2.

    Horizontal strands become x-sticks on z-level 1 at y-levels 1..g,
    vertical strands become y-sticks on z-level 2 at x-levels 1..g, and
    each marker contributes one z-edge joining the two levels, 2g in all.
    """
    report = validate_grid(d)
    if not report.ok:
        raise MalformedInput(f"cannot settle invalid diagram: {report}")
    corners: list[tuple[int, int, int]] = []
    for r in d.row_order():
        xc = d.x_col[r - 1]
        oc = d.o_col[r - 1]
        corners.extend([(xc, r, 2), (xc, r, 1), (oc, r, 1), (oc, r, 2)])
    knot = canonicalize(LatticeKnot(tuple(corners)))
    _require_valid(knot, "settle produced an invalid polygon", ValueError)
    return knot


# ---------------------------------------------------------------------------
# fold machinery


def _fold_line(g: int, side: str) -> int:
    """The fold line of either fold; it depends only on g's parity and the side."""
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', not {side!r}")
    if g % 2 == 1:
        return (g + 1) // 2
    return g // 2 + 1 if side == "high" else g // 2


def _lower_stick(corners, col):
    """Drop the z=2 y-stick at x-level col onto z=1, removing its 2 z-edges.

    The corners around that stick run (col, r1, 1), (col, r1, 2),
    (col, r2, 2), (col, r2, 1); dropping the two z=2 corners joins the
    z=1 corners either side by a y-stick.  The horizontal fold leaves every
    z=2 point on a y-stick whose two corners turn down unit z-edges, so a
    column whose z=2 corners are not those two cannot be lowered.
    """
    n = len(corners)
    block = [i for i, c in enumerate(corners) if c[0] == col and c[2] == 2]
    if not block:
        raise FoldCollision(f"no z=2 stick found at x-level {col} to lower")
    if len(block) != 2 or block[1] - block[0] not in (1, n - 1):
        raise FoldCollision(f"the z=2 points at x-level {col} form more than one run")
    # the stick runs from corner i to corner i + 1, which may wrap the list end
    i = block[0] if block[1] - block[0] == 1 else block[1]
    first, last = corners[i], corners[(i + 1) % n]
    if corners[i - 1] != (col, first[1], 1) or corners[(i + 2) % n] != (col, last[1], 1):
        raise FoldCollision(
            f"x-level {col} stick is not flanked by unit z-edges; cannot lower"
        )
    if i == n - 1:
        return corners[1:-1]
    return corners[:i] + corners[i + 2 :]


def _fold(k, axis, line, level, side):
    """Turn the points of k beyond a fold line half a turn about it.

    The line runs in the z=level plane at coordinate ``line`` of the fold
    axis (0 for x, 1 for y); the points beyond it on ``side`` map by
    p[axis] -> 2*line - p[axis], z -> 2*level - z.  A stick that runs back
    along the stick before it always overlaps it and is refused, so each
    maximal same-axis run of k's sticks is straight.  The fold walks those
    runs, starting at the first corner where the axis changes, and each run
    emits the image of its first corner.  A fold-axis run in that plane
    goes straight to the image of its last corner, dropping the edges the
    fold doubles; it emits nothing when those images coincide.  A fold-axis
    run on z-level level - 2 that the line severs also emits the two
    corners of a bridge of two fold-axis edges and four z-edges one unit
    beyond the line, around the outside of the fold.  The folded cycle is
    tested for collisions once, by the covered intervals of its sticks (see
    _meetings).  A collision raises ReconnectFailure when a point visited
    twice lies on a bridge's column, else FoldCollision; either names the
    least point visited twice.  Returns the folded corner cycle, the number
    of doubled edges removed and the number of bridges built.
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

    sticks = sticks_of(k)
    # (axis, first corner) of each run
    runs = []
    for (a0, p0, q0, _), (a1, p1, q1, _) in zip(sticks[-1:] + sticks, sticks):
        if a0 != a1:
            runs.append((a1, p1))
        elif (q0[a0] > p0[a0]) != (q1[a1] > p1[a1]):
            raise ValueError(
                f"the stick {p1} -> {q1} runs back along the stick before it, "
                "so the curve overlaps itself"
            )
    out: list[tuple[int, int, int]] = []
    bridged: set[int] = set()  # the index of each bridge's z-stick in out
    removed = broken = 0
    for (run_axis, first), (_, last) in zip(runs, runs[1:] + runs[:1]):
        start = image(first)
        if run_axis != axis:
            out.append(start)
        elif first[2] == level:
            end = image(last)
            removed += abs(last[axis] - first[axis]) - abs(end[axis] - start[axis])
            if start != end:
                out.append(start)
        elif first[2] != level - 2:
            raise ValueError(
                f"fold about the {'xy'[axis]}-line {line} in the z={level} plane met a "
                f"fold-axis stick on z-level {first[2]}, neither in that plane nor two below it"
            )
        elif beyond(first) == beyond(last):
            # the line does not sever this run, so all of it lies on one side
            out.append(start)
        else:
            broken += 1
            foot = list(first)
            foot[axis] = line + 1 if high else line - 1
            low, top = (*foot[:2], level - 2), (*foot[:2], level + 2)
            bridged.add(len(out) + 1)
            out += [start, top, low] if beyond(first) else [start, low, top]
    folded = tuple(out)
    hits = list(_meetings(sticks_of(LatticeKnot(folded))))
    if hits:
        n = len(folded)

        def on_bridge(s, lo, hi):
            # a bridge's column is its z-stick's covered set and the first
            # point of the stick after it
            return s in bridged or (
                (s - 1) % n in bridged and all(u <= v <= w for u, v, w in zip(lo, folded[s], hi))
            )

        least = min(lo for _, _, lo, _ in hits)
        if any(on_bridge(s, lo, hi) for i, j, lo, hi in hits for s in (i, j)):
            raise ReconnectFailure(
                f"broken-stick bridge collides with existing geometry at {least}"
            )
        raise FoldCollision(
            f"fold about the {'xy'[axis]}-line {line} left coincident lattice points"
        )
    return folded, removed, broken


def _fold_finish(k, corners, axis, line, side, removed, removed_z, broken):
    """Canonical knot and reconciled report of a fold whose output cycle is corners.

    The fold has tested its own cycle for collisions, but a lowered stick
    (removed_z > 0) can land on the curve, so a lowered cycle goes through
    validate_lattice once more: its sticks' covered intervals must be
    pairwise disjoint.
    """
    knot = canonicalize(LatticeKnot(tuple(corners)))
    if removed_z:
        _require_valid(knot, f"fold about the {'xy'[axis]}-line {line} broke an invariant")
    report = FoldReport(
        fold_axis="xy"[axis],
        side=side,
        fold_line=line,
        removed_overlap_edges=removed,
        removed_z_edges=removed_z,
        broken_sticks_reconnected=broken,
        added_y_edges=2 * broken,
        added_z_edges=4 * broken,
        pre=edge_census(k),
        post=edge_census(knot),
    )
    pre, post = report.pre, report.post
    if not (
        post.x_edges == pre.x_edges - removed * (axis == 0)
        and post.y_edges == pre.y_edges - removed * (axis == 1) + report.added_y_edges
        and post.z_edges == pre.z_edges - removed_z + report.added_z_edges
    ):
        raise FoldCollision(f"fold accounting does not reconcile: {report}")
    return knot, report


def fold_horizontal(
    k: LatticeKnot, g: int, side: str
) -> tuple[LatticeKnot, FoldReport, LatticeKnot]:
    """Fold the settled knot about an x-line in the z=1 plane.

    The x-sticks all lie in the fold plane, so the fold only removes
    doubled x-edges; the reflected y-sticks go to z-level 0.  Then the
    y-sticks over the crease (and, for even g, over the outermost kept
    x-level) drop to z-level 1, saving two z-edges each.  Returns the
    folded knot, its report, and the folded curve as it was before those
    sticks were lowered, which is the input that fold_vertical expects.

    The input must be self-avoiding.  That precondition is not checked:
    run_pipeline's input here is settle's output, which settle has checked.
    The folded curve is checked, before and after the lowering, but a fold
    can remove the very overlap that made an input invalid.
    """
    xf = _fold_line(g, side)
    # the corners' levels bound the points' levels, and {1, 2} has no gap
    if not {c[2] for c in k.corners} <= {1, 2}:
        raise ValueError("fold_horizontal expects a settled knot on z-levels 1 and 2")
    unlowered, removed, _ = _fold(k, 0, xf, 1, side)
    lower_cols = [xf] if g % 2 == 1 else [xf, 1 if side == "high" else g]
    corners = unlowered
    for col in lower_cols:
        corners = _lower_stick(corners, col)
    knot, report = _fold_finish(k, corners, 0, xf, side, removed, 2 * len(lower_cols), 0)
    return knot, report, canonicalize(LatticeKnot(unlowered))


def fold_vertical(k: LatticeKnot, g: int, side: str) -> tuple[LatticeKnot, FoldReport]:
    """Fold a horizontally folded curve about a y-line in the z=2 plane.

    The input is the curve fold_horizontal returns as it was before its
    crease sticks were lowered: x-sticks on z-level 1 and y-sticks on
    z-levels 0 and 2.  The y-sticks on z-level 2 lose their doubled edges,
    the x-sticks beyond the line move to z-level 3, and the y-sticks on
    z-level 0 that the line severs are bridged.

    The input must be self-avoiding.  That precondition is not checked:
    run_pipeline's input here is the unlowered curve that _fold has
    checked.  The folded curve is checked, but a fold can remove the very
    overlap that made an input invalid.
    """
    yf = _fold_line(g, side)
    if not {c[2] for c in k.corners} <= {0, 1, 2}:
        raise ValueError("fold_vertical expects a horizontally folded knot on z-levels 0..2")
    corners, removed, broken = _fold(k, 1, yf, 2, side)
    return _fold_finish(k, corners, 1, yf, side, removed, 0, broken)


# ---------------------------------------------------------------------------
# serialization

# Parsed corners and imported geometry stay within this bound, so every
# coordinate, arc end and difference of two of them is an integer that a
# float64 holds exactly.
_MAX_COORD = 2**50


def serialize_lattice(
    k: LatticeKnot, provenance: dict | None = None, form: str = "text"
) -> str:
    """One corner per line with a provenance header, or a one-line JSON form."""
    if form == "json":
        return json.dumps(
            {"provenance": provenance or {}, "corners": [list(c) for c in k.corners]},
            separators=(",", ":"),
            sort_keys=True,
        )
    if form != "text":
        raise ValueError(f"unknown form {form!r}")
    lines = ["# lattice knot, cyclic corner list"]
    for key in sorted(provenance or {}):
        lines.append(f"# {key}: {provenance[key]}")
    for x, y, z in k.corners:
        lines.append(f"{x} {y} {z}")
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> tuple[LatticeKnot, dict]:
    """Invert serialize_lattice for both forms.

    Only the format and the coordinate bound are checked; validate_lattice
    checks the curve.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
            corners = data["corners"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedInput(f"bad JSON lattice form: {exc}") from exc
        if not isinstance(corners, list) or not corners or not all(
            isinstance(c, list) and len(c) == 3 and all(type(v) is int for v in c)
            for c in corners
        ):
            raise MalformedInput("JSON lattice corners must be a list of [x, y, z] integer triples")
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict):
            raise MalformedInput(f"JSON lattice provenance must be an object, not {provenance!r}")
        return _bounded(tuple(map(tuple, corners))), provenance
    provenance: dict = {}
    corners_list = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                provenance[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(f"expected 'x y z', got {line!r}")
        try:
            corners_list.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise MalformedInput(f"non-integer corner {line!r}") from exc
    if not corners_list:
        raise MalformedInput("no corners found")
    return _bounded(tuple(corners_list)), provenance


def _bounded(corners) -> LatticeKnot:
    """The knot of parsed corners; a coordinate beyond 2**50 in magnitude is refused."""
    for c in corners:
        if max(map(abs, c)) > _MAX_COORD:
            raise MalformedInput(f"corner {c} lies beyond 2**50 in magnitude")
    return LatticeKnot(corners)
