"""Lattice knots and the folding pipeline.

A lattice knot is a closed self-avoiding polygon of axis-parallel sticks
with integer corners.  A grid diagram settles into one occupying two
z-levels; a horizontal fold then rotates half of it about a line in the
x-direction, and a vertical fold rotates half of that curve, taken before
the horizontal fold lowered its crease sticks, about a line in the
y-direction.  Both folds remove the doubled edges they create and re-stitch
the curve, keeping the knot type while shrinking the edge count.

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


def _corners_from_points(pts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    n = len(pts)
    corners = []
    for i in range(n):
        prev = pts[i - 1]
        cur = pts[i]
        nxt = pts[(i + 1) % n]
        d1 = tuple(cur[j] - prev[j] for j in range(3))
        d2 = tuple(nxt[j] - cur[j] for j in range(3))
        if d1 != d2:
            corners.append(cur)
    return corners


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
    """Inclusive monotone unit path from p to q along one axis."""
    if p == q:
        return [p]
    step = 1 if q[axis] > p[axis] else -1
    out = []
    cur = list(p)
    while True:
        out.append(tuple(cur))
        if tuple(cur) == q:
            return out
        cur[axis] += step


def _fold_lines_x(g: int, side: str) -> tuple[int, list[int]]:
    """Fold line and the x-levels whose y-sticks drop onto the crease."""
    if g % 2 == 1:
        xf = (g + 1) // 2
        return xf, [xf]
    if side == "high":
        xf = g // 2 + 1
        return xf, [xf, 1]
    xf = g // 2
    return xf, [xf, g]


def _fold_line_y(g: int, side: str) -> int:
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


def fold_horizontal(
    k: LatticeKnot, g: int, side: str
) -> tuple[LatticeKnot, FoldReport, LatticeKnot]:
    """Fold the settled knot about a line in the z=1 plane, x = fold line.

    Points on the given side of the line rotate by (x, z) -> (2*xf - x,
    2 - z), which keeps every x-stick on z-level 1 and sends the reflected
    y-sticks to z-level 0.  X-edges doubled by the fold are removed and the
    curve re-stitched; finally the y-sticks over the crease (and, for even
    g, over the outermost kept x-level) drop to z-level 1, saving two
    z-edges each.  Returns the folded knot, its report, and the folded
    curve as it was before those sticks were lowered, which is the input
    that fold_vertical expects.
    """
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', not {side!r}")
    pre = edge_census(k)
    pts = unit_points(k)
    levels = {p[2] for p in pts}
    if not levels <= {1, 2}:
        raise ValueError("fold_horizontal expects a settled knot on z-levels 1 and 2")
    xf, lower_cols = _fold_lines_x(g, side)

    def moved(p):
        return p[0] > xf if side == "high" else p[0] < xf

    def image(p):
        if moved(p):
            return (2 * xf - p[0], p[1], 2 - p[2])
        return p

    out: list[tuple[int, int, int]] = []
    removed = 0
    for axis, sec in _sections(pts):
        if axis == 0:
            first, last = image(sec[0]), image(sec[-1])
            path = _direct_path(first, last, 0)
            removed += (len(sec) - 1) - (len(path) - 1)
            out.extend(path[:-1])
        else:
            out.extend(image(p) for p in sec[:-1])
    unlowered = out
    for col in lower_cols:
        out = _lower_stick(out, col)
    if len(set(out)) != len(out):
        raise FoldCollision("horizontal fold left coincident lattice points")
    knot = canonicalize(LatticeKnot(tuple(_corners_from_points(out))))
    _require_valid(knot, "horizontal fold broke an invariant")
    post = edge_census(knot)
    report = FoldReport(
        fold_axis="x",
        side=side,
        fold_line=xf,
        removed_overlap_edges=removed,
        removed_z_edges=2 * len(lower_cols),
        broken_sticks_reconnected=0,
        added_y_edges=0,
        added_z_edges=0,
        pre=pre,
        post=post,
    )
    _check_books(report)
    return knot, report, canonicalize(LatticeKnot(tuple(_corners_from_points(unlowered))))


def fold_vertical(k: LatticeKnot, g: int, side: str) -> tuple[LatticeKnot, FoldReport]:
    """Fold a horizontally folded curve about a line in the z=2 plane.

    The input is the curve fold_horizontal returns as it was before its
    crease sticks were lowered: x-sticks on z-level 1 and y-sticks on
    z-levels 0 and 2.  Points on the given side of the fold line rotate by
    (y, z) -> (2*yf - y, 4 - z): y-sticks on z-level 2 fold within their
    plane (doubled edges removed), x-sticks move to z-level 3, and y-sticks
    on z-level 0 that the line severs are rebuilt with a bridge of two
    y-edges and four z-edges around the outside of the fold.
    """
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', not {side!r}")
    pre = edge_census(k)
    pts = unit_points(k)
    if not {p[2] for p in pts} <= {0, 1, 2}:
        raise ValueError("fold_vertical expects a horizontally folded knot on z-levels 0..2")
    yf = _fold_line_y(g, side)
    yb = yf + 1 if side == "high" else yf - 1

    def beyond(p):
        return p[1] > yf if side == "high" else p[1] < yf

    def image(p):
        if beyond(p):
            return (p[0], 2 * yf - p[1], 4 - p[2])
        return p

    def rotate(p):
        return (p[0], 2 * yf - p[1], 4 - p[2])

    out: list[tuple[int, int, int]] = []
    bridge_points: set[tuple[int, int, int]] = set()
    removed = 0
    broken = 0
    for axis, sec in _sections(pts):
        if axis != 1:
            out.extend(image(p) for p in sec[:-1])
            continue
        zlevel = sec[0][2]
        if zlevel == 2:
            first, last = image(sec[0]), image(sec[-1])
            path = _direct_path(first, last, 1)
            removed += (len(sec) - 1) - (len(path) - 1)
            out.extend(path[:-1])
        elif zlevel == 0:
            has_beyond = any(beyond(p) for p in sec)
            has_kept = any(not beyond(p) for p in sec)
            if not (has_beyond and has_kept):
                emitted = [rotate(p) for p in sec] if has_beyond else list(sec)
                out.extend(emitted[:-1])
                continue
            broken += 1
            x0 = sec[0][0]
            bridge_up = [(x0, yb, z) for z in (0, 1, 2, 3, 4)]
            if not beyond(sec[0]):
                kept = [p for p in sec if not beyond(p)]
                moved_part = [rotate(p) for p in sec if beyond(p) or p[1] == yf]
                emitted = kept + bridge_up + moved_part
            else:
                moved_part = [rotate(p) for p in sec if beyond(p) or p[1] == yf]
                kept = [p for p in sec if not beyond(p)]
                emitted = moved_part + list(reversed(bridge_up)) + kept
            bridge_points.update(bridge_up)
            out.extend(emitted[:-1])
        else:
            raise ValueError(
                "fold_vertical expects the curve from before the crease sticks were "
                "lowered, not one with a y-stick on z-level 1"
            )
    dupes = {p for p in out if out.count(p) > 1} if len(set(out)) != len(out) else set()
    if dupes:
        if dupes & bridge_points:
            raise ReconnectFailure(
                f"broken-stick bridge collides with existing geometry at {sorted(dupes)[0]}"
            )
        raise FoldCollision("vertical fold left coincident lattice points")
    knot = canonicalize(LatticeKnot(tuple(_corners_from_points(out))))
    _require_valid(knot, "vertical fold broke an invariant")
    post = edge_census(knot)
    report = FoldReport(
        fold_axis="y",
        side=side,
        fold_line=yf,
        removed_overlap_edges=removed,
        removed_z_edges=0,
        broken_sticks_reconnected=broken,
        added_y_edges=2 * broken,
        added_z_edges=4 * broken,
        pre=pre,
        post=post,
    )
    _check_books(report)
    return knot, report


def _check_books(r: FoldReport) -> None:
    """Per-axis reconciliation of the fold's edge accounting."""
    if r.fold_axis == "x":
        ok = (
            r.post.x_edges == r.pre.x_edges - r.removed_overlap_edges
            and r.post.y_edges == r.pre.y_edges
            and r.post.z_edges == r.pre.z_edges - r.removed_z_edges
        )
    else:
        ok = (
            r.post.x_edges == r.pre.x_edges
            and r.post.y_edges == r.pre.y_edges - r.removed_overlap_edges + r.added_y_edges
            and r.post.z_edges == r.pre.z_edges + r.added_z_edges
        )
    if not ok:
        raise FoldCollision(f"fold accounting does not reconcile: {r}")


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
            corners = tuple(tuple(int(v) for v in c) for c in data["corners"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad JSON lattice form: {exc}") from exc
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict):
            raise MalformedInput(f"JSON lattice provenance must be an object, not {provenance!r}")
        return LatticeKnot(corners), provenance
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
