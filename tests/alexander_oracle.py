"""The Alexander engine as it was: full pivot rescans, Bareiss, all-pairs projection.

A reference for knotfold.alexander.  The unit-pivot elimination rescans
every row before each pivot, the dense core's determinant comes from
fraction-free Bareiss elimination with exact polynomial division, and
the projection tries six shears in turn and tests every pair of
non-adjacent segments with general-position predicates on Fractions.
Its elimination and Bareiss path shares no arithmetic with the engine:
it builds a `LaurentPoly`, the type of the determinant the engine
returns and normalizes, only from its final result.  Besides that type
it shares the diagram types and `build_diagram`, which numbers a signed
Gauss code's crossings.  The engine eliminates on its coefficient dicts
and takes the core determinant modulo primes; this oracle eliminates
with its own dict arithmetic and runs Bareiss on its own integer
coefficient lists.  Nor does it share the pivot queue, the pair
prefilter or the crossing test: the engine projects with one shear and
integer comparisons.

The file also keeps two engine functions as they were before the engine
collapsed runs of under passes and evaluated the core determinant by its
symmetry: `_wirtinger_rows`, one relation row per crossing, and
`_core_det`, which evaluates the determinant at one point per degree of a
row- or column-degree sum and needs no symmetry.  The latter uses the
engine's prime table and modular elimination (`_primes`, `_det_mod`),
which the tests check on their own.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from knotfold.alexander import _BATCH_ENTRIES, _PRIME_BITS, ProjectionDiagram, _det_mod, _primes
from knotfold.diagram import PlanarDiagram, build_diagram
from knotfold.errors import NoRegularShear
from knotfold.lattice import LatticeKnot, canonicalize
from knotfold.laurent import LaurentPoly

SHEAR_CANDIDATES = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


def cross2(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _seg_relation(p1, q1, p2, q2):
    """Classify how two integer segments meet: 'none', 'proper', or 'bad'.

    'proper' means transversal interior-interior crossing; every touching,
    endpoint-on-segment, or collinear-overlap configuration is 'bad'
    (irregular for our purposes).
    """
    d1 = (q1[0] - p1[0], q1[1] - p1[1])
    d2 = (q2[0] - p2[0], q2[1] - p2[1])
    s_p2 = cross2(d1, (p2[0] - p1[0], p2[1] - p1[1]))
    s_q2 = cross2(d1, (q2[0] - p1[0], q2[1] - p1[1]))
    s_p1 = cross2(d2, (p1[0] - p2[0], p1[1] - p2[1]))
    s_q1 = cross2(d2, (q1[0] - p2[0], q1[1] - p2[1]))
    if s_p2 == 0 and s_q2 == 0:
        # collinear: any 1D overlap is irregular
        axis = 0 if d1[0] != 0 else 1
        lo1, hi1 = sorted((p1[axis], q1[axis]))
        lo2, hi2 = sorted((p2[axis], q2[axis]))
        return "bad" if max(lo1, lo2) <= min(hi1, hi2) else "none"
    if s_p2 < 0 < s_q2 or s_q2 < 0 < s_p2:
        if s_p1 < 0 < s_q1 or s_q1 < 0 < s_p1:
            return "proper"
    if 0 in (s_p2, s_q2, s_p1, s_q1):
        # an endpoint lies on the other segment's line; irregular when it
        # also falls inside that segment's extent
        for zero, pt, sa, sb in (
            (s_p2, p2, p1, q1),
            (s_q2, q2, p1, q1),
            (s_p1, p1, p2, q2),
            (s_q1, q1, p2, q2),
        ):
            if zero == 0:
                if min(sa[0], sb[0]) <= pt[0] <= max(sa[0], sb[0]) and min(
                    sa[1], sb[1]
                ) <= pt[1] <= max(sa[1], sb[1]):
                    return "bad"
    return "none"


def _crossing_params(p1, q1, p2, q2) -> tuple[Fraction, Fraction]:
    d1 = (q1[0] - p1[0], q1[1] - p1[1])
    d2 = (q2[0] - p2[0], q2[1] - p2[1])
    denom = cross2(d1, d2)
    w = (p2[0] - p1[0], p2[1] - p1[1])
    t = Fraction(cross2(w, d2), denom)
    s = Fraction(cross2(w, d1), denom)
    return t, s


def project_oracle(k: LatticeKnot) -> ProjectionDiagram:
    """Regular planar diagram of a lattice knot via an integer shear.

    Points map to (S*x + a*z, S*y + b*z) for small coprime (a, b) and a
    scale S large enough that segments from different lattice lines cannot
    collide; candidates are tried in a fixed order and the first shear
    giving a regular projection wins.
    """
    k = canonicalize(k)
    corners = k.corners
    n = len(corners)
    spans = [
        max(c[i] for c in corners) - min(c[i] for c in corners) for i in range(3)
    ]
    diam = max(max(spans), 1)
    for a, b in SHEAR_CANDIDATES:
        scale = (a * a + b * b + 2) * (diam + 2)
        pts2 = [(scale * x + a * z, scale * y + b * z) for x, y, z in corners]
        zs = [c[2] for c in corners]
        segs = [(pts2[i], pts2[(i + 1) % n]) for i in range(n)]
        regular = True
        events: dict[int, list] = {i: [] for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                if adjacent:
                    continue
                rel = _seg_relation(*segs[i], *segs[j])
                if rel == "bad":
                    regular = False
                    break
                if rel != "proper":
                    continue
                t, s = _crossing_params(*segs[i], *segs[j])
                zi = Fraction(zs[i]) + t * (zs[(i + 1) % n] - zs[i])
                zj = Fraction(zs[j]) + s * (zs[(j + 1) % n] - zs[j])
                if zi == zj:
                    regular = False  # would be a 3D self-intersection
                    break
                key = (i, j)
                i_over = zi > zj
                events[i].append((t, key, i_over, j))
                events[j].append((s, key, not i_over, i))
            if not regular:
                break
        if not regular:
            continue
        code = []
        for i in range(n):
            di = (
                segs[i][1][0] - segs[i][0][0],
                segs[i][1][1] - segs[i][0][1],
            )
            for t, key, is_over, j in sorted(events[i], key=lambda e: e[0]):
                dj = (
                    segs[j][1][0] - segs[j][0][0],
                    segs[j][1][1] - segs[j][0][1],
                )
                over_dir, under_dir = (di, dj) if is_over else (dj, di)
                code.append((key, is_over, 1 if cross2(over_dir, under_dir) > 0 else -1))
        return ProjectionDiagram(build_diagram(code).crossings, shear=(a, b), scale=scale)
    raise NoRegularShear(
        f"no candidate shear in {SHEAR_CANDIDATES} projects this knot regularly"
    )


def _plist_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _plist_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _plist_trim(out)


def _plist_sub(f: list[int], g: list[int]) -> list[int]:
    out = list(f) + [0] * (len(g) - len(f))
    for j, b in enumerate(g):
        out[j] -= b
    return _plist_trim(out)


def _plist_divexact(f: list[int], d: list[int]) -> list[int]:
    """Exact division in Z[t]; valid because Bareiss quotients are minors."""
    if not f:
        return []
    f = list(f)
    q = [0] * (len(f) - len(d) + 1)
    dlead = d[-1]
    for k in range(len(q) - 1, -1, -1):
        c = f[len(d) - 1 + k]
        if c % dlead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[k] = c // dlead
        if q[k]:
            for j, b in enumerate(d):
                f[j + k] -= q[k] * b
    if any(f):
        raise ArithmeticError("non-exact polynomial division (remainder)")
    return _plist_trim(q)


def bareiss_det(mat: list[list[list[int]]]) -> list[int]:
    m = len(mat)
    if m == 0:
        return [1]
    prev = [1]
    for k in range(m - 1):
        if not mat[k][k]:
            for r in range(k + 1, m):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]  # sign irrelevant up to units
                    break
            else:
                return []
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = _plist_sub(
                    _plist_mul(mat[i][j], mat[k][k]),
                    _plist_mul(mat[i][k], mat[k][j]),
                )
                mat[i][j] = _plist_divexact(num, prev) if num else []
            mat[i][k] = []
        prev = mat[k][k]
    return mat[m - 1][m - 1]


def _dsub_mul(a: dict[int, int], f: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a - f * b on {exponent: coefficient} dicts, zero terms dropped."""
    out = dict(a)
    for i, x in f.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) - x * y
    return {e: v for e, v in out.items() if v}


def dense_core_oracle(rows: dict[int, dict[int, dict[int, int]]]):
    """Eliminate unit pivots by a full Markowitz rescan before every pivot.

    Takes the engine's rows of {exponent: coefficient} entries and leaves
    them unchanged.  Returns the dense core as coefficient lists (rows
    shifted to start at exponent zero), [] when nothing is left, or None
    when singular.
    """
    rows = {
        r: {c: {e: v for e, v in entry.items() if v} for c, entry in row.items()}
        for r, row in rows.items()
    }
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)

    def eliminate(r0: int, c0: int) -> None:
        pivot_row = rows.pop(r0)
        ((k, coef),) = pivot_row[c0].items()  # the pivot is +-t^k
        for c in pivot_row:
            col_rows[c].discard(r0)
        for r in list(col_rows.get(c0, ())):
            row = rows[r]
            factor = {e - k: v * coef for e, v in row[c0].items()}  # entry / pivot
            for c, val in pivot_row.items():
                if c == c0:
                    continue
                newv = _dsub_mul(row.get(c, {}), factor, val)
                if newv:
                    row[c] = newv
                    col_rows.setdefault(c, set()).add(r)
                else:
                    row.pop(c, None)
                    col_rows.get(c, set()).discard(r)
            row.pop(c0, None)
            col_rows[c0].discard(r)
        col_rows.pop(c0, None)

    singular = False
    while rows and not singular:
        best = None
        for r, row in rows.items():
            if not row:
                singular = True
                break
            for c, val in row.items():
                if [*val.values()] in ([1], [-1]):
                    cost = (len(col_rows[c]) - 1) * (len(row) - 1)
                    cand = (cost, r, c)
                    if best is None or cand < best:
                        best = cand
        if singular or best is None:
            break
        eliminate(best[1], best[2])
    if singular:
        return None
    if not rows:
        return []
    # dense core: shift each row so exponents start at zero, then Bareiss
    row_ids = sorted(rows)
    col_ids = sorted({c for row in rows.values() for c in row})
    if len(row_ids) != len(col_ids):
        return None
    dense = []
    for r in row_ids:
        shift = min(min(p) for p in rows[r].values())
        row_lists = []
        for c in col_ids:
            p = rows[r].get(c)
            if p is None:
                row_lists.append([])
            else:
                row_lists.append([p.get(e + shift, 0) for e in range(max(p) - shift + 1)])
        dense.append(row_lists)
    return dense


def det_up_to_units_oracle(rows: dict[int, dict[int, dict[int, int]]]) -> LaurentPoly:
    dense = dense_core_oracle(rows)
    if dense is None:
        return LaurentPoly.zero()
    return LaurentPoly({e: v for e, v in enumerate(bareiss_det(dense))})


# ---------------------------------------------------------------------------
# the row builder and the core determinant before under-runs were collapsed
# and the determinant was evaluated by its symmetry


def _wirtinger_rows(pd: PlanarDiagram) -> dict[int, dict[int, dict[int, int]]]:
    """Abelianized Wirtinger relations, the last crossing's row and arc 0's column dropped.

    Each under pass ends one arc and starts the next, so the edge entering
    pass p lies on arc k mod n, where k counts the under passes before p;
    arc 0 is the one through the start of the traversal.  Each row maps an
    arc to its entry, a fresh ``{exponent: coefficient}`` dict with no zero
    coefficient; arcs whose contributions cancel are left out.
    """
    n = len(pd.crossings)
    if n == 0:
        return {}
    arc_at = [0] * (2 * n)
    for crossing in pd.crossings:
        arc_at[crossing.under_in] = 1
    arc_at = list(itertools.accumulate(arc_at, initial=0))
    rows: dict[int, dict[int, dict[int, int]]] = {}
    for idx, crossing in enumerate(pd.crossings[:-1]):
        o = arc_at[crossing.over_in] % n
        a = arc_at[crossing.under_in]
        b = (a + 1) % n
        if crossing.sign > 0:
            # 1 - t, t, -1
            contrib = ((o, 0, 1), (o, 1, -1), (a, 1, 1), (b, 0, -1))
        else:
            # t - 1, 1, -t: the relation row scaled by t to stay in Z[t]
            contrib = ((o, 1, 1), (o, 0, -1), (a, 0, 1), (b, 1, -1))
        row: dict[int, dict[int, int]] = {}
        for arc, e, v in contrib:
            if arc:
                entry = row.setdefault(arc, {})
                v += entry.get(e, 0)
                if v:
                    entry[e] = v
                else:
                    del entry[e]
        rows[idx] = {arc: entry for arc, entry in row.items() if entry}
    return rows


def _core_det(dense: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[t], lowest coefficient first.

    Entries are coefficient lists.  The determinant is evaluated at the
    points 1..D+1 modulo enough primes, interpolated modulo each prime and
    recombined by the Chinese remainder theorem (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 5).  The bounds are rigorous, so
    the result is exact.  Once each column is divided by its lowest power
    of t, D, the sum of the row degrees or of the column degrees, whichever
    is smaller, bounds the degree.  The product over rows, or over
    columns, of the L2 norm of the entries' L1 norms bounds |det| on
    |t| = 1 (Hadamard), hence every coefficient.
    """
    m = len(dense)
    if m == 0:
        return [1]
    if not all(map(any, dense)) or not all(map(any, zip(*dense))):
        return []  # a zero row or column
    if m == 1:
        return list(dense[0][0])
    # divide each column by its lowest power of t; det gains their product
    shifts = [
        min(next(k for k, c in enumerate(e) if c) for e in col if e) for col in zip(*dense)
    ]
    dense = [[e[s:] for e, s in zip(row, shifts)] for row in dense]
    degree = min(
        sum(max(map(len, line)) - 1 for line in lines) for lines in (dense, zip(*dense))
    )
    l1 = [[sum(map(abs, e)) for e in row] for row in dense]
    bound_sq = min(math.prod(sum(v * v for v in line) for line in lines) for lines in (l1, zip(*l1)))
    n_pts = degree + 1
    primes, modulus = [], 1
    for q in _primes():
        if modulus * modulus > 4 * bound_sq:
            break
        if q <= n_pts:
            raise ArithmeticError(f"no prime left above {n_pts} evaluation points")
        primes.append(q)
        modulus *= q
    # imported here, not with the module: `import logging` adds about 7 ms
    # and 0.4 MB to every start-up, and only certify gets this far
    import logging

    logging.getLogger(__name__).debug(
        "dense core: %d rows, degree bound %d, coefficient bound %d bits, %d primes",
        m, degree, (bound_sq.bit_length() + 1) // 2, len(primes),
    )

    # evaluation: the entries' coefficients times a table of powers, as
    # float64 products that stay below 2^53 and so are exact; coefficients
    # are cut into signed limbs of `bits` bits to keep them there
    width = max(len(e) for row in dense for e in row)
    bits = 52 - _PRIME_BITS - width.bit_length()
    if bits < 1:
        raise ArithmeticError(f"core entries of {width} coefficients are too long")
    flat = [e + [0] * (width - len(e)) for row in dense for e in row]
    top = max(abs(c) for e in flat for c in e)
    coef = np.array(flat, dtype=np.int64 if top < 1 << 63 else object)
    neg = coef < 0
    mag = np.where(neg, -coef, coef)
    limbs = []
    for j in range(max(1, -(-top.bit_length() // bits))):
        limb = ((mag >> (j * bits)) & ((1 << bits) - 1)).astype(np.int64)
        limbs.append(np.where(neg, -limb, limb).astype(np.float64))
    x = np.arange(1, n_pts + 1, dtype=np.int64)
    values = np.empty((len(primes), n_pts), dtype=np.int64)
    step = max(1, _BATCH_ENTRIES // (m * m))
    for i, q in enumerate(primes):
        powers = np.empty((width, n_pts), dtype=np.int64)
        powers[0] = 1
        for k in range(1, width):
            powers[k] = powers[k - 1] * x % q
        powers = powers.astype(np.float64)
        for lo in range(0, n_pts, step):
            for j, limb in enumerate(limbs):
                part = (limb @ powers[:, lo:lo + step]).astype(np.int64) % q
                mats = part if j == 0 else (mats + part * pow(2, j * bits, q)) % q
            values[i, lo:lo + step] = _det_mod(mats.reshape(m, m, -1), q)

    # interpolation modulo each prime: Newton divided differences on the
    # points 1..n_pts, computed in place (consecutive points, so the k-th
    # pass divides by k), then the Newton form expanded into coefficients
    pc = np.array(primes, dtype=np.int64)[:, None]
    newton = values
    for k in range(1, n_pts):
        inv = np.array([[pow(k, -1, q)] for q in primes], dtype=np.int64)
        newton[:, k:] = (newton[:, k:] - newton[:, k - 1:-1]) % pc * inv % pc
    out = np.zeros_like(newton)
    out[:, 0] = newton[:, -1]
    for k in range(n_pts - 2, -1, -1):
        out[:, 1:] = (out[:, :-1] - (k + 1) * out[:, 1:]) % pc
        out[:, 0] = (newton[:, k] - (k + 1) * out[:, 0]) % pc[:, 0]

    # Chinese remainder theorem, to the residue nearest zero
    basis = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    det = []
    for residues in out.T.tolist():
        c = sum(r * b for r, b in zip(residues, basis)) % modulus
        det.append(c - modulus if 2 * c > modulus else c)
    while det and det[-1] == 0:
        det.pop()
    return [0] * sum(shifts) + det if det else []
