"""Grid diagrams of knots: parsing, validation, generation, conversion.

A grid diagram of size g places one X and one O marker in every row and
every column of a g x g grid.  Rows are numbered 1..g bottom to top and
columns 1..g left to right.  Horizontal strands join the two markers of a
row, vertical strands the two markers of a column, and at every crossing
the vertical strand passes over.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .diagram import PlanarDiagram, build_diagram
from .errors import (
    MalformedInput,
    MultiComponent,
    NotAPermutation,
    SameCellXO,
    SizeTooSmall,
    ValidationReport,
)


@dataclass(frozen=True)
class GridDiagram:
    """Markers of a grid diagram: x_col[r-1] / o_col[r-1] give the column of
    the X / O marker in row r."""

    size: int
    x_col: tuple[int, ...]
    o_col: tuple[int, ...]

    def row_order(self) -> list[int]:
        """Rows in the order the closed curve visits them, starting at row 1."""
        order = [1]
        x_row = {c: r + 1 for r, c in enumerate(self.x_col)}
        while True:
            nxt = x_row[self.o_col[order[-1] - 1]]
            if nxt == order[0]:
                return order
            order.append(nxt)


def validate_grid(d: GridDiagram) -> ValidationReport:
    """Check every grid-diagram invariant, reporting all violations found."""
    report = ValidationReport()
    g = d.size
    ok_perms = True
    for name, cols in (("X", d.x_col), ("O", d.o_col)):
        if len(cols) != g or sorted(cols) != list(range(1, g + 1)):
            report.add("NotAPermutation", f"{name} columns {cols} are not a permutation of 1..{g}")
            ok_perms = False
    if len(d.x_col) == len(d.o_col):
        for r, (x, o) in enumerate(zip(d.x_col, d.o_col), start=1):
            if x == o:
                report.add("SameCellXO", f"row {r} places X and O both in column {x}")
    if ok_perms:
        ncomp = component_count(d)
        if ncomp != 1:
            report.add("MultiComponent", f"diagram has {ncomp} closed curves; knots need 1")
    return report


def component_count(d: GridDiagram) -> int:
    """Number of closed curves: cycles of the row successor map."""
    x_row = {c: r + 1 for r, c in enumerate(d.x_col)}
    seen: set[int] = set()
    cycles = 0
    for start in range(1, d.size + 1):
        if start in seen:
            continue
        cycles += 1
        r = start
        while r not in seen:
            seen.add(r)
            r = x_row[d.o_col[r - 1]]
    return cycles


def _check_or_raise(d: GridDiagram) -> GridDiagram:
    report = validate_grid(d)
    if report.ok:
        return d
    codes = report.codes()
    for code, exc in (
        ("NotAPermutation", NotAPermutation),
        ("SameCellXO", SameCellXO),
        ("MultiComponent", MultiComponent),
    ):
        if code in codes:
            raise exc(str(report))
    raise MalformedInput(str(report))


_LIST_RE = re.compile(r"^([XxOo])\s*:\s*([0-9,\s]+)$")


def parse_grid(text: str) -> GridDiagram:
    """Parse either accepted text form into a validated GridDiagram.

    Form (a): two lines ``X: c1,...,cg`` and ``O: c1,...,cg``.
    Form (b): g lines of g characters from {X, O, .}, top row first.
    ``#`` starts a comment; blank lines are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise MalformedInput("no content")
    if any(":" in line for line in lines):
        return _check_or_raise(_parse_lists(lines))
    return _check_or_raise(_parse_matrix(lines))


def _parse_lists(lines: list[str]) -> GridDiagram:
    cols: dict[str, tuple[int, ...]] = {}
    for line in lines:
        m = _LIST_RE.match(line)
        if not m:
            raise MalformedInput(f"unrecognized line {line!r}")
        label = m.group(1).upper()
        if label in cols:
            raise MalformedInput(f"duplicate {label}: line")
        try:
            values = tuple(int(p) for p in m.group(2).split(",") if p.strip())
        except ValueError as exc:
            raise MalformedInput(f"bad integer list in {line!r}") from exc
        if not values:
            raise MalformedInput(f"empty marker list in {line!r}")
        cols[label] = values
    if set(cols) != {"X", "O"}:
        raise MalformedInput("need exactly one X: line and one O: line")
    if len(cols["X"]) != len(cols["O"]):
        raise MalformedInput("X and O lists differ in length")
    return GridDiagram(size=len(cols["X"]), x_col=cols["X"], o_col=cols["O"])


def _parse_matrix(lines: list[str]) -> GridDiagram:
    rows = [re.sub(r"\s+", "", line) for line in lines]
    g = len(rows)
    x_col = [0] * g
    o_col = [0] * g
    for i, row in enumerate(rows):
        if len(row) != g or any(ch not in "XOxo." for ch in row):
            raise MalformedInput(f"matrix row {i + 1} is not {g} characters of X/O/.")
        r = g - i  # first text line is the top row
        for j, ch in enumerate(row):
            if ch in "Xx":
                if x_col[r - 1]:
                    raise MalformedInput(f"row {r} has more than one X")
                x_col[r - 1] = j + 1
            elif ch in "Oo":
                if o_col[r - 1]:
                    raise MalformedInput(f"row {r} has more than one O")
                o_col[r - 1] = j + 1
    if 0 in x_col or 0 in o_col:
        raise MalformedInput("every row needs one X and one O marker")
    return GridDiagram(size=g, x_col=tuple(x_col), o_col=tuple(o_col))


def serialize_grid(d: GridDiagram, form: str = "lists") -> str:
    """Emit a diagram in either text form; parse_grid round-trips both."""
    if form == "lists":
        return (
            "X: " + ",".join(str(c) for c in d.x_col) + "\n"
            "O: " + ",".join(str(c) for c in d.o_col) + "\n"
        )
    if form == "matrix":
        out = []
        for r in range(d.size, 0, -1):
            row = ["."] * d.size
            row[d.x_col[r - 1] - 1] = "X"
            row[d.o_col[r - 1] - 1] = "O"
            out.append("".join(row))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown form {form!r}")


def grid_to_planar(d: GridDiagram) -> PlanarDiagram:
    """Crossing diagram of the grid curve; vertical strands always cross over.

    The signed Gauss code starts at row 1's X marker.  The vertical strand
    of direction (0, vy) crosses over the horizontal one of direction
    (hx, 0), so a crossing's sign, that of the cross product of the over
    and under directions, is -vy * hx.
    """
    _check_or_raise(d)
    g = d.size
    x_row, o_row = [0] * (g + 1), [0] * (g + 1)
    for r, (x, o) in enumerate(zip(d.x_col, d.o_col), start=1):
        x_row[x], o_row[o] = r, r
    # open spans and directions by row and column (index 0 unused); a
    # horizontal strand travels X -> O, a vertical one O -> X
    h_lo = [0, *map(min, d.x_col, d.o_col)]
    h_hi = [0, *map(max, d.x_col, d.o_col)]
    h_dir = [0, *(1 if o > x else -1 for x, o in zip(d.x_col, d.o_col))]
    v_lo = [*map(min, o_row, x_row)]
    v_hi = [*map(max, o_row, x_row)]
    v_dir = [1 if x > o else -1 for x, o in zip(x_row, o_row)]

    code: list[tuple[tuple[int, int], bool, int]] = []
    for r in d.row_order():
        hx = h_dir[r]
        b = d.o_col[r - 1]
        code += [((r, c), False, -hx * v_dir[c])
                 for c in range(d.x_col[r - 1] + hx, b, hx) if v_lo[c] < r < v_hi[c]]
        vy = v_dir[b]
        code += [((rr, b), True, -vy * h_dir[rr])
                 for rr in range(r + vy, x_row[b], vy) if h_lo[rr] < b < h_hi[rr]]
    return build_diagram(code)


def random_grid(g: int, seed: int) -> GridDiagram:
    """Uniformly sampled valid grid diagram; deterministic for a fixed seed."""
    if g < 2:
        raise SizeTooSmall(f"grid size must be at least 2, got {g}")
    rng = random.Random(f"knotfold:{g}:{seed}")
    cols = list(range(1, g + 1))
    while True:
        x = tuple(rng.sample(cols, g))
        o = tuple(rng.sample(cols, g))
        d = GridDiagram(size=g, x_col=x, o_col=o)
        if all(a != b for a, b in zip(x, o)) and component_count(d) == 1:
            return d
