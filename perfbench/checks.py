"""Output checks for the knotfold benchmark.

Nothing here imports knotfold: every output is re-read by this module's own
parsers and compared with quantities recomputed from the paper's formulas,
so a fault in a shared helper cannot make a wrong output look right.

Each ``check_*`` function returns ``(errors, step3_edges)``: a list of
human-readable problems (empty when the output is correct) and the step-3
lattice edge count read from the output, or ``None`` if it could not be read.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

STEPS = (1, 2, 3)
# z-levels a lattice knot may occupy after each step: settle uses levels 1
# and 2; the horizontal fold sends reflected y-sticks to level 0; the
# vertical fold sends the moved half to 4 - z, so bridges span levels 0..4.
Z_LEVELS = {1: {1, 2}, 2: {0, 1, 2}, 3: {0, 1, 2, 3, 4}}

# a prime above 2^61, so a wrong polynomial passes the identity check only
# with negligible probability
PRIME = (1 << 61) - 1
EVAL_POINTS = (2, 3, 5, 7)
ARC_SAMPLES = 5  # points sampled on each quarter arc, both ends included


# ---------------------------------------------------------------------------
# the paper's bounds


def step_edge_bound(step: int, g: int) -> Fraction:
    """Maximum edge count after a pipeline step, by parity class of g."""
    odd = g % 2 == 1
    if step == 1:
        return Fraction(g * g + 2 * g - (1 if odd else 0))
    if step == 2:
        c = 11 if odd else (16 if g % 4 == 0 else 12)
        return Fraction(3 * g * g + 8 * g - c, 4)
    c = 29 if odd else (48 if g % 4 == 0 else 36)
    return Fraction(5 * g * g + 40 * g - c, 8)


def rope_bound(step: int, g: int) -> float:
    """Ropelength bound a + b*pi for the smoothed output of a step."""
    if step == 1:
        a, b = Fraction(2 * g * g - 4 * g), Fraction(2 * g)
    elif step == 2:
        a, b = Fraction(3 * g * g - 11, 2), Fraction(g)
    else:
        a, b = Fraction(5 * g * g + 32 * g - 29, 4), Fraction(g, 2)
    return float(a) + float(b) * math.pi


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}

_TERM = re.compile(r"([+-]?)(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> dict[int, int]:
    """Parse the printed form used in certificates, e.g. ``-t^-1 + 3 - t``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    poly: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial {text!r} at {pos}")
        if pos and not m.group(1):
            raise ValueError(f"missing sign in {text!r} at {pos}")
        coef = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        exp = 0 if not m.group(3) else int(m.group(4) or 1)
        poly[exp] = poly.get(exp, 0) + coef
        pos = m.end()
    return {e: c for e, c in poly.items() if c}


def normal_form(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Representative of {+-t^k * poly}: lowest exponent 0, lowest coefficient > 0."""
    if not poly:
        return ()
    lo = min(poly)
    sign = 1 if poly[lo] > 0 else -1
    return tuple(sorted((e - lo, sign * c) for e, c in poly.items()))


def _poly_mod(poly: dict[int, int], t: int) -> int:
    return sum(c * pow(t, e, PRIME) for e, c in poly.items()) % PRIME


def winding_numbers(x_col, o_col) -> list[list[int]]:
    """w[i][j]: winding number of the grid curve around lattice point (i, j).

    Markers sit at square centres (c - 1/2, r - 1/2); vertical strands run
    from O to X, and a ray from (i, j) towards +x crosses the strand in
    column c when c > i and j lies between the two marker rows.
    """
    g = len(x_col)
    x_row = {c: r for r, c in enumerate(x_col, start=1)}
    o_row = {c: r for r, c in enumerate(o_col, start=1)}
    w = [[0] * g for _ in range(g)]
    for c in range(1, g + 1):
        lo, hi = sorted((o_row[c], x_row[c]))
        sign = 1 if x_row[c] > o_row[c] else -1
        for i in range(c):
            row = w[i]
            for j in range(lo, hi):
                row[j] += sign
    return w


def _det_mod(mat: list[list[int]]) -> int:
    n = len(mat)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        pk = mat[k]
        det = det * pk[k] % PRIME
        inv = pow(pk[k], -1, PRIME)
        for r in range(k + 1, n):
            row = mat[r]
            f = row[k] * inv % PRIME
            if f:
                mat[r] = [(a - f * b) % PRIME for a, b in zip(row, pk)]
    return det % PRIME


def grid_identity_holds(x_col, o_col, poly: dict[int, int]) -> bool:
    """det[t^(-w(p))] == +-t^k (1 - t)^(g-1) poly(t), tested modulo PRIME.

    The identity is the grid-diagram determinant formula for the Alexander
    polynomial (Ozsvath-Stipsicz-Szabo, Grid Homology for Knots and Links,
    ch. 3).  It is evaluated at a few integers; the unit +-t^k must be the
    same at every point.
    """
    g = len(x_col)
    w = winding_numbers(x_col, o_col)
    ratios = []
    for t in EVAL_POINTS:
        powers = {e: pow(t, -e, PRIME) for row in w for e in row}
        det = _det_mod([[powers[e] for e in row] for row in w])
        rhs = pow(1 - t, g - 1, PRIME) * _poly_mod(poly, t) % PRIME
        if rhs == 0:
            if det != 0:
                return False
            continue
        ratios.append((t, det * pow(rhs, -1, PRIME) % PRIME))
    # |w| <= g, so the unit's exponent lies within g^2 plus the degree of poly
    span = g * g + max((abs(e) for e in poly), default=0)
    vals = [pow(t, -span, PRIME) for t, _ in ratios]
    for _ in range(2 * span + 1):
        for sign in (1, -1):
            if all(sign * v % PRIME == r for v, (_, r) in zip(vals, ratios)):
                return True
        vals = [v * t % PRIME for v, (t, _) in zip(vals, ratios)]
    return False


# ---------------------------------------------------------------------------
# lattice files


def parse_lattice_file(text: str) -> tuple[list[tuple[int, int, int]], dict]:
    """Corners and provenance from either the text or the one-line JSON form."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        corners = [tuple(int(v) for v in c) for c in data["corners"]]
        return corners, dict(data["provenance"])
    corners, prov = [], {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                prov[key.strip()] = value.strip()
        elif line:
            x, y, z = (int(v) for v in line.split())
            corners.append((x, y, z))
    return corners, prov


def polygon_problems(corners, z_levels) -> tuple[list[str], int]:
    """Problems with a closed axis-parallel self-avoiding polygon, and its length."""
    if len(corners) < 4:
        return [f"only {len(corners)} corners"], 0
    bad_z = sorted({c[2] for c in corners} - z_levels)
    if bad_z:
        return [f"z-levels {bad_z} outside {sorted(z_levels)}"], 0
    seen: set[tuple[int, int, int]] = set()
    for k, p in enumerate(corners):
        q = corners[(k + 1) % len(corners)]
        diff = [b - a for a, b in zip(p, q)]
        moving = [i for i in range(3) if diff[i]]
        if len(moving) != 1:
            return [f"stick {p}->{q} is not axis-parallel"], 0
        axis = moving[0]
        step = 1 if diff[axis] > 0 else -1
        cur = list(p)
        for _ in range(abs(diff[axis])):
            pt = tuple(cur)
            if pt in seen:
                return [f"curve passes {pt} twice"], 0
            seen.add(pt)
            cur[axis] += step
    return [], len(seen)


def check_build(out: Path, label: str, g: int) -> tuple[list[str], int | None]:
    errors: list[str] = []
    step3 = None
    for step in STEPS:
        base = out / f"{label}.step{step}"
        parsed = []
        for path in (base.with_name(base.name + ".txt"), base.with_name(base.name + ".json")):
            try:
                corners, prov = parse_lattice_file(path.read_text())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"{path.name}: unreadable ({exc})")
                continue
            problems, edges = polygon_problems(corners, Z_LEVELS[step])
            errors += [f"{path.name}: {p}" for p in problems]
            if str(prov.get("g")) != str(g) or str(prov.get("step")) != str(step):
                errors.append(f"{path.name}: provenance {prov} does not name g={g} step {step}")
            if not problems and edges > step_edge_bound(step, g):
                errors.append(f"{path.name}: {edges} edges > step {step} bound {step_edge_bound(step, g)}")
            parsed.append((corners, edges))
        if len(parsed) == 2 and parsed[0][0] != parsed[1][0]:
            errors.append(f"{base.name}: text and JSON forms list different corners")
        if step == 3 and parsed:
            step3 = parsed[0][1]
    return errors, step3


# ---------------------------------------------------------------------------
# certificates


def check_certify(out: Path, label: str, g: int, x_col, o_col,
                  published: str | None) -> tuple[list[str], int | None]:
    path = out / f"{label}.cert.json"
    try:
        certs = json.loads(path.read_text())
        steps = [c["step"] for c in certs]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"], None
    if steps != list(STEPS):
        return [f"{path.name}: certificates for steps {steps}"], None
    errors: list[str] = []
    polys: set[str] = set()
    step3 = None
    for cert in certs:
        step = cert["step"]
        census = cert["census"]
        total = census["total_edges"]
        if not cert["passed"]:
            errors.append(f"step {step}: certificate failed")
        for chk in cert["checks"]:
            if not chk["passed"]:
                errors.append(f"step {step}: check {chk['name']} failed")
            if chk["name"] in ("alexander_preserved", "alexander_matches_corpus"):
                polys.update(part.strip() for part in chk["comparison"].split(" vs "))
        if total != census["x_edges"] + census["y_edges"] + census["z_edges"]:
            errors.append(f"step {step}: census total {total} is not x + y + z")
        if total > step_edge_bound(step, g):
            errors.append(f"step {step}: {total} edges > bound {step_edge_bound(step, g)}")
        if step == 3:
            step3 = total
    if not polys:
        errors.append("no Alexander polynomial reported")
    try:
        parsed = {text: parse_poly(text) for text in polys}
    except ValueError as exc:
        return errors + [str(exc)], step3
    if published is not None:
        want = normal_form(parse_poly(published))
        errors += [f"Alexander {p} differs from the published {published}"
                   for p, poly in parsed.items() if normal_form(poly) != want]
    for text, poly in parsed.items():
        if not grid_identity_holds(x_col, o_col, poly):
            errors.append(f"Alexander {text} fails the grid determinant identity")
    return errors, step3


# ---------------------------------------------------------------------------
# exported rope geometry


def parse_arcs(text: str) -> list[tuple]:
    """``("SEG", start, end)`` and ``("ARC", center, u, v)`` records in order."""
    pieces = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        vals = [int(v) for v in parts[1:]]
        if parts[0] == "SEG" and len(vals) == 6:
            pieces.append(("SEG", tuple(vals[:3]), tuple(vals[3:])))
        elif parts[0] == "ARC" and len(vals) == 9:
            pieces.append(("ARC", tuple(vals[:3]), tuple(vals[3:6]), tuple(vals[6:])))
        else:
            raise ValueError(f"bad record {line!r}")
    return pieces


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _unit_axis(v) -> bool:
    return sorted(map(abs, v)) == [0, 0, 1]


def _direction(a, b):
    return tuple((y > x) - (y < x) for x, y in zip(a, b))


def curve_problems(pieces) -> list[str]:
    """Alternation, closure, unit quarter arcs and tangent continuity."""
    n = len(pieces)
    if n < 8 or n % 2:
        return [f"{n} pieces cannot alternate around a closed curve"]
    kinds = [p[0] for p in pieces]
    if kinds != ["ARC", "SEG"] * (n // 2):
        return ["pieces do not alternate ARC, SEG, ..."]
    errors = []
    for k in range(0, n, 2):
        _, c, u, v = pieces[k]
        prev_seg, next_seg = pieces[k - 1], pieces[k + 1]
        if not (_unit_axis(u) and _unit_axis(v) and sum(a * b for a, b in zip(u, v)) == 0):
            errors.append(f"arc {k // 2}: u={u}, v={v} is not a unit quarter circle")
            continue
        if prev_seg[2] != _add(c, u) or next_seg[1] != _add(c, v):
            errors.append(f"arc {k // 2}: curve does not close up at this arc")
            continue
        for seg, want in ((prev_seg, v), (next_seg, tuple(-x for x in u))):
            d = _direction(seg[1], seg[2])
            if sum(map(abs, d)) > 1 or (any(d) and d != want):
                errors.append(f"arc {k // 2}: not tangent to the straight piece {seg[1:]}")
    return errors


def sample_points(pieces):
    """Points along the curve, each tagged with the two sticks it lies on."""
    m = len(pieces) // 2
    pts, sticks = [], []
    for k, piece in enumerate(pieces):
        i = k // 2
        if piece[0] == "ARC":
            _, c, u, v = piece
            for j in range(ARC_SAMPLES):
                th = j * (math.pi / 2) / (ARC_SAMPLES - 1)
                pts.append([c[a] + math.cos(th) * u[a] + math.sin(th) * v[a] for a in range(3)])
                sticks.append(((i - 1) % m, i))
        else:
            _, a, b = piece
            length = sum(abs(y - x) for x, y in zip(a, b))
            d = _direction(a, b)
            for s in range(1, length):
                pts.append([a[q] + s * d[q] for q in range(3)])
                sticks.append((i, i))
    return np.array(pts, dtype=float), np.array(sticks, dtype=np.int64), m


def min_nonadjacent_distance(pts, sticks, m: int) -> float:
    """Smallest distance below 2 between points whose sticks are not adjacent.

    Sticks are adjacent when equal or consecutive around the m-stick cycle.
    Points are hashed into cells of side 2, so any pair closer than 2 lies
    in the same or neighbouring cells; only those pairs are measured.  The
    result is exact when it is below 2, and at least 2 otherwise.
    """
    cells = np.floor(pts / 2.0).astype(np.int64)
    cells -= cells.min(axis=0) - 1
    size = cells.max(axis=0) + 2
    stride = np.array([size[1] * size[2], size[2], 1])
    key = cells @ stride
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    best = math.inf
    for offset in itertools.product((-1, 0, 1), repeat=3):
        target = key + np.array(offset) @ stride
        lo = np.searchsorted(sorted_key, target, "left")
        counts = np.searchsorted(sorted_key, target, "right") - lo
        total = int(counts.sum())
        if not total:
            continue
        i = np.repeat(np.arange(len(pts)), counts)
        j = order[np.arange(total) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        adjacent = np.zeros(total, dtype=bool)
        for a in (0, 1):
            for b in (0, 1):
                diff = (sticks[i, a] - sticks[j, b]) % m
                adjacent |= np.minimum(diff, m - diff) <= 1
        if not adjacent.all():
            d2 = ((pts[i[~adjacent]] - pts[j[~adjacent]]) ** 2).sum(axis=1)
            best = min(best, math.sqrt(float(d2.min())))
    return best


_METRIC_LINE = re.compile(
    r"^(?P<label>\S+) step (?P<step>\d): length (?P<length>\S+) thickness (?P<thick>\S+) "
    r"ropelength (?P<rope>\S+) corners (?P<corners>\d+)$"
)


def check_export(out: Path, label: str, g: int) -> tuple[list[str], int | None]:
    try:
        lines = (out / f"{label}.metrics.txt").read_text().splitlines()
    except OSError as exc:
        return [f"metrics unreadable ({exc})"], None
    metrics = {}
    for line in lines:
        m = _METRIC_LINE.match(line)
        if not m or m["label"] != label:
            return [f"bad metrics line {line!r}"], None
        metrics[int(m["step"])] = m
    if sorted(metrics) != list(STEPS):
        return [f"metrics for steps {sorted(metrics)}"], None
    errors: list[str] = []
    step3 = None
    for step in STEPS:
        name = f"{label}.step{step}.arcs.txt"
        try:
            pieces = parse_arcs((out / name).read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{name}: unreadable ({exc})")
            continue
        problems = curve_problems(pieces)
        if problems:
            errors += [f"{name}: {p}" for p in problems]
            continue
        arcs = len(pieces) // 2
        straight = sum(sum(abs(y - x) for x, y in zip(p[1], p[2])) for p in pieces[1::2])
        # doubling makes every stick 2L long and each corner takes 1 from both ends
        edges, rem = divmod(straight + 2 * arcs, 2)
        if rem:
            errors.append(f"{name}: straight length {straight} is not that of a doubled lattice knot")
        elif edges > step_edge_bound(step, g):
            errors.append(f"{name}: {edges} edges > step {step} bound {step_edge_bound(step, g)}")
        if step == 3:
            step3 = edges
        m = metrics[step]
        length = straight + (math.pi / 2) * arcs
        reported = float(m["length"])
        if abs(reported - length) > 1e-9 * max(1.0, length):
            errors.append(f"step {step}: reported length {reported} != recomputed {length}")
        if float(m["thick"]) != 1.0:
            errors.append(f"step {step}: reported thickness {m['thick']} is not 1")
        if int(m["corners"]) != arcs:
            errors.append(f"step {step}: reported {m['corners']} corners, file has {arcs} arcs")
        rope = float(m["rope"])
        if rope > rope_bound(step, g) + 1e-9:
            errors.append(f"step {step}: ropelength {rope} > bound {rope_bound(step, g)}")
        clearance = min_nonadjacent_distance(*sample_points(pieces))
        if clearance < 2.0 - 1e-9:
            errors.append(f"{name}: non-adjacent sticks come within {clearance:.6f} < 2")
    return errors, step3
