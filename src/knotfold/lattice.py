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

All fold surgery happens at unit-edge resolution on the cyclic point list
of the curve; no floating point appears anywhere in this module.
"""

from __future__ import annotations

import json
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
    m = len(k.corners)
    for i in range(m):
        p = k.corners[i]
        q = k.corners[(i + 1) % m]
        diff = [q[j] - p[j] for j in range(3)]
        nz = [j for j in range(3) if diff[j]]
        if len(nz) != 1:
            raise ValueError(f"corners {p} -> {q} do not span an axis stick")
        axis = nz[0]
        out.append((axis, p, q, abs(diff[axis])))
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


def unit_points(k: LatticeKnot) -> list[tuple[int, int, int]]:
    """The cyclic lattice-point trace of the curve, one entry per edge."""
    pts: list[tuple[int, int, int]] = []
    for axis, p, q, length in sticks_of(k):
        step = 1 if q[axis] > p[axis] else -1
        cur = list(p)
        for _ in range(length):
            pts.append(tuple(cur))
            cur[axis] += step
    return pts


def _knot_from_points(pts: list[tuple[int, int, int]]) -> LatticeKnot:
    """The canonical knot through a cyclic list of unit-spaced points."""
    # steps[i] leaves pts[i]; a corner is a point where the step changes
    steps = [(q[0] - p[0], q[1] - p[1], q[2] - p[2]) for p, q in zip(pts, pts[1:] + pts[:1])]
    corners = tuple(p for i, p in enumerate(pts) if steps[i - 1] != steps[i])
    return canonicalize(LatticeKnot(corners))


def canonicalize(k: LatticeKnot) -> LatticeKnot:
    """Canonical form: colinear merges, deterministic rotation and direction.

    Consecutive same-direction sticks merge and zero-length sticks drop;
    the cyclic list is then rotated to its lexicographically least corner
    and oriented so the successor of that corner is smallest.  The set of
    points traced by the curve is unchanged.
    """
    corners = [c for i, c in enumerate(k.corners) if c != k.corners[(i + 1) % len(k.corners)]]
    changed = True
    while changed:
        changed = False
        m = len(corners)
        if m < 3:
            break
        out = []
        for i in range(m):
            prev = corners[(i - 1) % m]
            cur = corners[i]
            nxt = corners[(i + 1) % m]
            d1 = _unit_dir(prev, cur)
            d2 = _unit_dir(cur, nxt)
            if d1 is not None and d1 == d2:
                changed = True
                continue
            out.append(cur)
        corners = out
    if len(corners) < 4:
        raise DegenerateCurve(f"only {len(corners)} corners remain")

    def rotated(seq):
        i0 = seq.index(min(seq))
        return tuple(seq[i0:] + seq[:i0])

    forward = rotated(corners)
    backward = rotated(list(reversed(corners)))
    return LatticeKnot(min(forward, backward))


def _unit_dir(p, q):
    diff = [q[j] - p[j] for j in range(3)]
    nz = [j for j in range(3) if diff[j]]
    if len(nz) != 1:
        return None
    axis = nz[0]
    d = [0, 0, 0]
    d[axis] = 1 if diff[axis] > 0 else -1
    return tuple(d)


def validate_lattice(k: LatticeKnot) -> ValidationReport:
    """Closure, axis-parallelism, and self-avoidance checks, report style."""
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
        pts = unit_points(k)
        seen: dict[tuple, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                report.add("SelfIntersection", f"lattice point {p} visited twice")
                break
            seen[p] = i
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


def _fold_line(g: int, side: str) -> int:
    """The fold line of either fold; it depends only on g's parity and the side."""
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', not {side!r}")
    if g % 2 == 1:
        return (g + 1) // 2
    return g // 2 + 1 if side == "high" else g // 2


def _lower_stick(pts, col):
    """Drop the z=2 y-stick at x-level col onto z=1, removing its 2 z-edges.

    The curve pattern around that stick is (col, r1, 1), (col, r1, 2),
    ..., (col, r2, 2), (col, r2, 1); the z=2 block is replaced by the
    straight z=1 path between the flanking corners.
    """
    n = len(pts)
    block = [i for i, p in enumerate(pts) if p[0] == col and p[2] == 2]
    if not block:
        raise FoldCollision(f"no z=2 stick found at x-level {col} to lower")
    if len(block) != max(block) - min(block) + 1:
        # block wraps the list start; rotate and retry
        first_out = next(i for i in range(n) if i not in set(block))
        pts = pts[first_out:] + pts[:first_out]
        return _lower_stick(pts, col)
    lo, hi = min(block), max(block)
    pred = pts[(lo - 1) % n]
    succ = pts[(hi + 1) % n]
    first, last = pts[lo], pts[hi]
    if pred != (col, first[1], 1) or succ != (col, last[1], 1):
        raise FoldCollision(
            f"x-level {col} stick is not flanked by unit z-edges; cannot lower"
        )
    interior = [(col, p[1], 1) for p in pts[lo:hi + 1] if p[1] not in (pred[1], succ[1])]
    return pts[:lo] + interior + pts[hi + 1 :]


def _fold(pts, axis, line, level, side):
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


def _fold_finish(k, pts, axis, line, side, removed, removed_z, broken):
    """Canonical knot and reconciled report of a fold whose output cycle is pts."""
    knot = _knot_from_points(pts)
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
    """
    xf = _fold_line(g, side)
    pts = unit_points(k)
    if not {p[2] for p in pts} <= {1, 2}:
        raise ValueError("fold_horizontal expects a settled knot on z-levels 1 and 2")
    unlowered, removed, _ = _fold(pts, 0, xf, 1, side)
    lower_cols = [xf] if g % 2 == 1 else [xf, 1 if side == "high" else g]
    out = unlowered
    for col in lower_cols:
        out = _lower_stick(out, col)
    knot, report = _fold_finish(k, out, 0, xf, side, removed, 2 * len(lower_cols), 0)
    return knot, report, _knot_from_points(unlowered)


def fold_vertical(k: LatticeKnot, g: int, side: str) -> tuple[LatticeKnot, FoldReport]:
    """Fold a horizontally folded curve about a y-line in the z=2 plane.

    The input is the curve fold_horizontal returns as it was before its
    crease sticks were lowered: x-sticks on z-level 1 and y-sticks on
    z-levels 0 and 2.  The y-sticks on z-level 2 lose their doubled edges,
    the x-sticks beyond the line move to z-level 3, and the y-sticks on
    z-level 0 that the line severs are bridged.
    """
    yf = _fold_line(g, side)
    pts = unit_points(k)
    if not {p[2] for p in pts} <= {0, 1, 2}:
        raise ValueError("fold_vertical expects a horizontally folded knot on z-levels 0..2")
    out, removed, broken = _fold(pts, 1, yf, 2, side)
    return _fold_finish(k, out, 1, yf, side, removed, 0, broken)


# ---------------------------------------------------------------------------
# serialization


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
    """Invert serialize_lattice for both forms; no validation is performed."""
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
        return LatticeKnot(tuple(map(tuple, corners))), provenance
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
    return LatticeKnot(tuple(corners_list)), provenance
