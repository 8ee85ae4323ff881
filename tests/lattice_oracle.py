"""Unit points and the self-avoidance check as they were: a point-by-point walk.

A reference for ``knotfold.lattice.validate_lattice``, which tests
self-avoidance on the covered intervals of sticks.  This oracle expands
the curve into its cyclic list of unit points, one per edge, and looks
for a repeat with a set; its memory grows with the lengths of the sticks.
It shares no code with knotfold, only the knot and report types.
"""

from knotfold.errors import ValidationReport
from knotfold.lattice import LatticeKnot


def unit_points(k: LatticeKnot) -> list[tuple[int, int, int]]:
    """The cyclic lattice-point trace of the curve, one entry per edge."""
    pts: list[tuple[int, int, int]] = []
    for p, q in zip(k.corners, k.corners[1:] + k.corners[:1]):
        (x, y, z), (u, v, w) = p, q
        if x != u and y == v and z == w:
            pts += [(t, y, z) for t in range(x, u, 1 if u > x else -1)]
        elif y != v and x == u and z == w:
            pts += [(x, t, z) for t in range(y, v, 1 if v > y else -1)]
        elif z != w and x == u and y == v:
            pts += [(x, y, t) for t in range(z, w, 1 if w > z else -1)]
        else:
            raise ValueError(f"corners {p} -> {q} do not span an axis stick")
    return pts


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
        if len(set(pts)) != len(pts):
            # name the point whose second visit comes first in trace order
            seen: set[tuple] = set()
            p = next(p for p in pts if p in seen or seen.add(p))
            report.add("SelfIntersection", f"lattice point {p} visited twice")
    return report
