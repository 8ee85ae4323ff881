"""Knot-type certificates via the Alexander polynomial.

The polynomial is computed from the Wirtinger presentation of a diagram,
abelianized to integer Laurent polynomials.  An arc that carries no over
pass appears only in the relations at its two ends, and each relation
solves for the arc it starts with a unit pivot, so runs of under passes
are substituted away as the rows are built: the matrix has one row and
one column per arc that carries an over pass, and one row and one column
are deleted before taking the determinant.  The determinant is evaluated
exactly: unit-monomial pivots are eliminated sparsely first, taken in
Markowitz order from a heap, and the dense core that remains has a
determinant that is +-t^c times a polynomial symmetric in t and 1/t
(Seifert, Math. Ann. 110, 1934).  Assignment bounds give its degree
range [L, H], one evaluation fixes the centre c, and the symmetric part
is interpolated in u = t + 1/t from min(c - L, H - c) + 1 points modulo
enough primes, converted back to t, and recombined by the Chinese
remainder theorem, with rigorous degree and coefficient bounds.  One
point more per prime is a runtime self-test of the symmetry.  Each dense
core is logged at DEBUG level: its rows, L, H, c, h = min(c - L, H - c),
coefficient bound in bits and number of primes.  numpy is imported inside
the functions that evaluate a core of two or more rows, not with the
module, so that commands which never meet such a core start without it.

The matrix entries are plain ``{exponent: coefficient}`` dicts of ints,
which the elimination updates in place; `alexander` makes a `LaurentPoly`
only of the core determinant's coefficient list.

Self-avoiding lattice knots are turned into diagrams by one integer
shear projection, (x, y, z) -> (S*x + z, S*y + 2*z), under which z-sticks
become short slanted segments instead of points and only x-sticks cross
y-sticks.  The crossings are found by the same orthogonal-segment sweep
that tests self-avoidance in `lattice`, and ordered by integer comparisons.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .diagram import PlanarDiagram, build_diagram
from .errors import NoRegularShear
from .lattice import LatticeKnot, _orthogonal_hits, canonicalize, validate_lattice
from .laurent import LaurentPoly

# the shear `project` uses, as a tuple of candidates of one
SHEAR_CANDIDATES = ((1, 2),)


@dataclass(frozen=True)
class ProjectionDiagram(PlanarDiagram):
    """Planar diagram of a sheared z-projection of a lattice knot.

    `shear` is (a, b) and `scale` is S in (x, y, z) -> (S*x + a*z, S*y + b*z).
    """

    shear: tuple[int, int] = (0, 0)
    scale: int = 1


# ---------------------------------------------------------------------------
# projection


def project(k: LatticeKnot) -> ProjectionDiagram:
    """Regular planar diagram of a self-avoiding lattice knot by an integer shear.

    Points map to (S*x + a*z, S*y + b*z) with (a, b) = (1, 2) and
    S = 7 * (diam + 2), where diam is the knot's largest extent along an
    axis.  Since |a*dz| and |b*dz| stay below S, two projected sticks meet
    only where their lattice lines meet in 3D.  On a self-avoiding polygon
    z-sticks and pairs along one axis therefore never cross, and an x-stick
    crosses a y-stick exactly when each one's open projected interval holds
    the other's fixed projected coordinate; the two lie on different
    z-levels, and the higher one is over.  Those crossings come from
    `_orthogonal_hits`, the sweep that also tests self-avoidance, run once
    over the projected plane.  A crossing is keyed (i, j) by its x-stick and
    its y-stick, and the crossings along a stick are ordered by their
    distance from its projected start.

    Raises:
        NoRegularShear: if the knot is not a self-avoiding lattice polygon.
    """
    k = canonicalize(k)
    report = validate_lattice(k)
    if not report.ok:
        raise NoRegularShear(f"the curve meets itself: {report}")
    corners = k.corners
    diam = max(1, *(max(axis) - min(axis) for axis in zip(*corners)))
    [(a, b)] = SHEAR_CANDIDATES
    scale = 7 * (diam + 2)  # a^2 + b^2 + 2 = 7
    start = [(scale * x + a * z, scale * y + b * z) for x, y, z in corners]
    dirs = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(start, start[1:] + start[:1])]
    # x-sticks as (0, Y, X interval) and y-sticks as (0, X, Y interval), each
    # open interval (A, B) given as [A + 1, B - 1]; z-sticks never cross
    along_x, along_y = [], []
    for i, ((x, y), (dx, dy)) in enumerate(zip(start, dirs)):
        if not dy:
            along_x.append((0, y, min(x, x + dx) + 1, max(x, x + dx) - 1, i))
        elif not dx:
            along_y.append((0, x, min(y, y + dy) + 1, max(y, y + dy) - 1, i))
    # each crossing seen from both sticks, as (stick, distance from its
    # projected start, key, is_over, sign); the x-stick (dx, 0) over the
    # y-stick (0, dy) gives sign sgn(dx * dy), and under gives its negative
    events = []
    for i, j, _, x, y in _orthogonal_hits(along_x, along_y):
        key = (i, j)
        x_over = corners[i][2] > corners[j][2]
        sign = 1 if ((dirs[i][0] > 0) == (dirs[j][1] > 0)) == x_over else -1
        events.append((i, abs(x - start[i][0]), key, x_over, sign))
        events.append((j, abs(y - start[j][1]), key, not x_over, sign))
    events.sort()
    code = [(key, is_over, sign) for _, _, key, is_over, sign in events]
    del events  # free the events before build_diagram, which sets the peak
    return ProjectionDiagram(build_diagram(code).crossings, shear=(a, b), scale=scale)


# ---------------------------------------------------------------------------
# determinant machinery


# primes below 2^28: a product of two residues stays below 2^56, so an
# int64 entry can take 127 such products before it must be reduced
_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313, 268435291,
    268435273, 268435243, 268435183, 268435171, 268435157, 268435147, 268435133,
    268435129, 268435121, 268435109, 268435091, 268435067, 268435043, 268435039,
    268435033, 268435019, 268435009, 268435007, 268434997, 268434979, 268434977,
    268434961, 268434949, 268434941, 268434937, 268434857, 268434841, 268434827,
    268434821, 268434787, 268434781, 268434779, 268434773, 268434731, 268434721,
    268434713, 268434707, 268434703, 268434697, 268434659, 268434623, 268434619,
    268434581, 268434577, 268434563, 268434557, 268434547, 268434511, 268434499,
)
_PRIME_BITS = 28
_LAZY_STEPS = 64  # elimination steps between full reductions of the matrices
_BATCH_ENTRIES = 1 << 20  # matrix entries evaluated and eliminated together


def _primes():
    """The table, then the primes below it in descending order."""
    yield from _PRIMES
    n = _PRIMES[-1]
    while True:
        n -= 2
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n


def _inverse_mod(x: np.ndarray, q: int) -> np.ndarray:
    """Inverses modulo the prime q of residues in [0, q) elementwise, 0 for 0.

    Montgomery's batch inversion: one modular inverse of the product of the
    nonzero residues, then two passes of products.
    """
    import numpy as np

    values = x.tolist()
    prefix, p = [], 1
    for v in values:
        prefix.append(p)
        if v:
            p = p * v % q
    inv = pow(p, -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        if values[i]:
            out[i] = inv * prefix[i] % q
            inv = inv * values[i] % q
    return np.array(out, dtype=np.int64)


def _det_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Determinants modulo the prime q of a stack of square matrices.

    a[i, j, b] is entry (i, j) of matrix b, reduced modulo q; the stack is
    the last axis so every array operation runs along it.  Gaussian
    elimination with row swaps; entries below the pivot row are reduced
    only when they become the next pivot's row or column, or every
    _LAZY_STEPS steps.  A matrix that is singular modulo q meets a zero
    pivot column and its determinant comes out 0.
    """
    import numpy as np

    m, count = a.shape[1:]
    det = np.ones(count, dtype=np.int64)
    odd = np.zeros(count, dtype=bool)
    for k in range(m):
        if k and k % _LAZY_STEPS == 0:
            np.remainder(a[k:, k:], q, out=a[k:, k:])
        else:
            np.remainder(a[k:, k], q, out=a[k:, k])
        first = (a[k:, k] != 0).argmax(axis=0) + k
        swap = np.flatnonzero(first != k)
        if len(swap):
            rows = a[k, :, swap]
            a[k, :, swap] = a[first[swap], :, swap]
            a[first[swap], :, swap] = rows
            odd[swap] ^= True
        pivot = a[k, k]
        det = det * pivot % q
        if k == m - 1:
            break
        row = a[k, k + 1:]
        np.remainder(row, q, out=row)
        factor = a[k + 1:, k] * _inverse_mod(pivot, q) % q
        a[k + 1:, k + 1:] -= factor[:, None] * row[None]
    return np.where(odd, (q - det) % q, det)


def _assignment(cost: list[list[int | None]]) -> int | None:
    """Least total cost of a perfect matching of rows to columns of a square matrix.

    None marks a missing entry, and None comes back when every perfect
    matching uses one.  The Hungarian method with row and column
    potentials (Kuhn, Naval Res. Logist. Q. 2, 1955), adding one row per
    phase along a shortest augmenting path, in O(m^3) steps.  A missing
    entry costs more than any matching of present entries can.
    """
    m = len(cost)
    big = 2 * m * (max((abs(v) for row in cost for v in row if v is not None), default=0) + 1) + 1
    a = [[big if v is None else v for v in row] for row in cost]
    inf = float("inf")
    u = [0] * (m + 1)  # row potentials, rows 1..m
    v = [0] * (m + 1)  # column potentials, columns 1..m; column 0 roots each phase
    match = [0] * (m + 1)  # the row matched to each column, 0 for none
    way = [0] * (m + 1)  # the column before each one on the shortest path
    for i in range(1, m + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            row, u0 = a[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = sum(a[match[j] - 1][j - 1] for j in range(1, m + 1))
    return None if 2 * total > big else total


def _double_centre(det_at, q: int, lo: int, hi: int) -> int | None:
    """2c for a determinant that is +-t^c times a symmetric polynomial; None if it is 0 modulo q.

    det_at maps an array of points to the determinant's values there
    modulo the prime q, and its terms have degrees in [lo, hi].  Then
    det(t0) / det(1/t0) = t0^(2c) with 2c in [2 lo, 2 hi], and that fixes
    2c once t0^(2 lo) .. t0^(2 hi) are distinct, that is once the order of
    t0 exceeds 2 (hi - lo).  The points 2, 3, ... are tried, the first
    alone and then hi - lo + 1 more at once, each with its inverse; a
    point where the determinant vanishes, or whose order is too small, is
    passed over.  The determinant divided by t^lo has degree at most
    hi - lo, so unless it is 0 modulo q it vanishes at no more than hi - lo
    of them.

    Raises:
        ArithmeticError: if det(1/t0) is 0 or the ratio is no power t0^e
            with 2 lo <= e <= 2 hi, so the determinant is not symmetric;
            or if it is nonzero only at points of too small an order.
    """
    import numpy as np

    nonzero = False
    for points in ([2], list(range(3, hi - lo + 4))):
        values = det_at(np.array(points + [pow(t0, -1, q) for t0 in points])).tolist()
        for t0, value, back in zip(points, values, values[len(points):]):
            if not value:
                continue
            nonzero = True
            powers, p = {}, pow(t0, 2 * lo, q)
            for e in range(2 * lo, 2 * hi + 1):
                powers.setdefault(p, e)
                p = p * t0 % q
            if len(powers) <= 2 * (hi - lo):
                continue  # the order of t0 is at most 2 (hi - lo)
            e = powers.get(value * pow(back, -1, q) % q) if back else None
            if e is None:
                raise ArithmeticError(
                    f"core determinant self-test failed: det({t0}) / det(1/{t0}) is no power"
                    f" {t0}^e with {2 * lo} <= e <= {2 * hi} modulo {q}, so it is not symmetric"
                )
            return e
    if nonzero:
        raise ArithmeticError(f"no point of order above {2 * (hi - lo)} modulo {q}")
    return None


def _symmetric_residues(values: np.ndarray, c: int, primes: list[int]) -> np.ndarray:
    """Coefficients of t^0..t^h in det(t) / t^c, modulo each prime, for a det symmetric about c.

    values[i, k] is the determinant at t = k + 1 modulo primes[i], for
    k = 0..h+1.  The symmetric part det(t) / t^c is P(u), a polynomial of
    degree at most h in u = t + 1/t.  P is interpolated in Lagrange form on
    the nodes from t = 1..h+1, checked against the value at t = h + 2, and
    expanded back into powers of t by Horner's rule in u.  For these small
    t, t_i t_j < q, so the nodes are distinct modulo every prime.

    Raises:
        ArithmeticError: if the value at t = h + 2 disagrees, so that the
            determinant is not symmetric about c.
    """
    import numpy as np

    qs = np.array(primes, dtype=np.int64)[:, None]
    n = values.shape[1] - 1  # interpolation nodes
    t = np.arange(1, n + 2, dtype=np.int64)
    u = (t + np.array([_inverse_mod(t, q) for q in primes])) % qs
    y = values * np.array([[pow(x, -c, q) for x in range(1, n + 2)] for q in primes]) % qs

    # P = sum_i y_i / w_i * M / (u - u_i), with M = prod_j (u - u_j) and
    # w_i = prod_{j != i} (u_i - u_j)
    nodes = u[:, :n]
    weights = np.ones_like(nodes)
    master = np.zeros((len(primes), n + 1), dtype=np.int64)  # M, lowest degree first
    master[:, 0] = 1
    for j in range(n):
        diff = (nodes - nodes[:, j:j + 1]) % qs
        diff[:, j] = 1
        weights = weights * diff % qs
        master[:, 1:] = (master[:, :-1] - nodes[:, j:j + 1] * master[:, 1:]) % qs
        master[:, 0] = -nodes[:, j] * master[:, 0] % qs[:, 0]
    scaled = y[:, :n] * np.array([_inverse_mod(w, q) for w, q in zip(weights, primes)]) % qs
    # M / (u - u_i) by synthetic division from the top, summed into P
    quotient = np.ones_like(nodes)  # the leading coefficient of M
    p_coef = np.empty_like(nodes)
    p_coef[:, n - 1] = scaled.sum(axis=1) % qs[:, 0]
    for k in range(n - 1, 0, -1):
        quotient = (master[:, k:k + 1] + nodes * quotient) % qs
        p_coef[:, k - 1] = (scaled * quotient % qs).sum(axis=1) % qs[:, 0]
    extra = np.zeros(len(primes), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        extra = (extra * u[:, n] + p_coef[:, k]) % qs[:, 0]
    if (extra != y[:, n]).any():
        raise ArithmeticError(
            f"core determinant self-test failed: it is not symmetric about t^{c}"
        )

    # back to t: half[:, j] is the coefficient of t^j and of t^-j, and
    # half[:, n] stays 0
    half = np.zeros((len(primes), n + 1), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        nxt = np.zeros_like(half)
        nxt[:, 1:-1] = half[:, :-2] + half[:, 2:]
        nxt[:, 0] = 2 * half[:, 1] + p_coef[:, k]
        half = nxt % qs
    return half[:, :n]


def _core_det(dense: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[t], lowest coefficient first.

    Entries are coefficient lists, and the determinant must be +-t^c times
    a polynomial symmetric in t and 1/t with c an integer, as the
    Alexander matrix's is.  Once each column is divided by its lowest
    power of t, every term of the permutation expansion has a degree in
    [L, H]: L is the least assignment of the entries' lowest degrees and H
    the greatest of their highest (Murota, Matrices and Matroids for
    Systems Analysis, 2000).  `_double_centre` finds c from one point, and
    the symmetric part, det(t) / t^c, is a polynomial of degree
    h = min(c - L, H - c) in u = t + 1/t.  The determinant is evaluated at
    t = 1..h+2 modulo each of enough primes, `_symmetric_residues` gives the
    t-coefficients modulo each prime, with the last point as a self-test,
    and the Chinese remainder theorem recombines them (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 5).  The product over rows, or
    over columns, of the L2 norm of the entries' L1 norms bounds |det| on
    |t| = 1 (Hadamard), hence every coefficient, so the result is exact.

    Raises:
        ArithmeticError: if the determinant is not +-t^c times a symmetric
            polynomial: the centre search fails, 2c is odd, or the extra
            point disagrees.
    """
    m = len(dense)
    if m == 0:
        return [1]
    if not all(map(any, dense)) or not all(map(any, zip(*dense))):
        return []  # a zero row or column
    if m == 1:
        det = list(dense[0][0])
        terms = [k for k, v in enumerate(det) if v]
        if not terms:
            return []
        ends = terms[0] + terms[-1]
        if ends % 2 or any(det[k] != det[ends - k] for k in terms):
            raise ArithmeticError(f"core determinant self-test failed: {det} is not symmetric")
        return det
    # imported here, not with the module: numpy and `logging` add to the
    # start-up of every command, and only a core of two or more rows needs them
    import logging

    import numpy as np

    # divide each column by its lowest power of t; det gains their product
    shifts = [
        min(next(k for k, c in enumerate(e) if c) for e in col if e) for col in zip(*dense)
    ]
    dense = [[e[s:] for e, s in zip(row, shifts)] for row in dense]
    terms = [[[k for k, v in enumerate(e) if v] for e in row] for row in dense]
    lo = _assignment([[d[0] if d else None for d in row] for row in terms])
    if lo is None:
        return []  # every term of the expansion has a zero factor
    hi = -_assignment([[-d[-1] if d else None for d in row] for row in terms])
    l1 = [[sum(map(abs, e)) for e in row] for row in dense]
    bound_sq = min(math.prod(sum(v * v for v in line) for line in lines) for lines in (l1, zip(*l1)))
    primes, modulus = [], 1
    for q in _primes():
        if modulus * modulus > 4 * bound_sq:
            break
        primes.append(q)
        modulus *= q

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
    step = max(1, _BATCH_ENTRIES // (m * m))

    def det_at(q: int, x: np.ndarray) -> np.ndarray:
        powers = np.empty((width, len(x)), dtype=np.int64)
        powers[0] = 1
        for k in range(1, width):
            powers[k] = powers[k - 1] * x % q
        powers = powers.astype(np.float64)
        out = np.empty(len(x), dtype=np.int64)
        for start in range(0, len(x), step):
            for j, limb in enumerate(limbs):
                part = (limb @ powers[:, start:start + step]).astype(np.int64) % q
                mats = part if j == 0 else (mats + part * pow(2, j * bits, q)) % q
            out[start:start + step] = _det_mod(mats.reshape(m, m, -1), q)
        return out

    for q in primes:
        double_c = _double_centre(lambda x, q=q: det_at(q, x), q, lo, hi)
        if double_c is not None:
            break
    else:
        return []  # 0 modulo primes whose product exceeds twice every coefficient
    if double_c % 2:
        raise ArithmeticError(
            f"core determinant self-test failed: it is symmetric about {double_c}/2, not an integer"
        )
    c = double_c // 2
    h = min(c - lo, hi - c)
    if (h + 2) ** 2 >= primes[-1]:
        raise ArithmeticError(f"no prime left above {(h + 2) ** 2} for {h + 2} points")
    logging.getLogger(__name__).debug(
        "dense core: %d rows, degrees %d..%d, centre %d, h %d, coefficient bound %d bits,"
        " %d primes",
        m, lo, hi, c, h, (bound_sq.bit_length() + 1) // 2, len(primes),
    )

    t = np.arange(1, h + 3, dtype=np.int64)
    half = _symmetric_residues(np.array([det_at(q, t) for q in primes]), c, primes)

    # Chinese remainder theorem, to the residue nearest zero
    basis = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    sym = []
    for residues in half.T.tolist():
        v = sum(r * b for r, b in zip(residues, basis)) % modulus
        sym.append(v - modulus if 2 * v > modulus else v)
    det = sym[:0:-1] + sym  # degrees c - h .. c + h
    while det and det[-1] == 0:
        det.pop()
    return [0] * (sum(shifts) + c - h) + det if det else []


def _dense_core(rows: dict[int, dict[int, dict[int, int]]]) -> list[list[list[int]]] | None:
    """Eliminate unit-monomial pivots; the square core that is left, or None.

    Entries are ``{exponent: coefficient}`` dicts of ints, never empty and
    with no zero coefficient; a unit monomial is an entry of one term whose
    coefficient is +-1.  The rows and their entries are updated in place,
    so callers pass rows they own, with no dict shared between two entries.

    Pivots are taken in Markowitz order: least (column count - 1) * (row
    length - 1) first, ties to the lower row, then the lower column.  They
    wait in a heap; an elimination pushes fresh entries for the rows and
    columns it touched, and entries that went stale are dropped when they
    come up.  None means the matrix is singular: a row emptied, or the
    core has fewer columns than rows.

    Each core row is shifted so its lowest exponent is zero (a unit factor)
    and given as one coefficient list per column, lowest degree first.
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        if not row:
            return None
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    heap = [
        ((len(col_rows[c]) - 1) * (len(row) - 1), r, c)
        for r, row in rows.items()
        for c, e in row.items()
        if len(e) == 1 and abs(*e.values()) == 1
    ]
    heapq.heapify(heap)

    while heap:
        cost, r0, c0 = heapq.heappop(heap)
        pivot_row = rows.get(r0)
        if (
            pivot_row is None
            or c0 not in pivot_row
            or (len(col_rows[c0]) - 1) * (len(pivot_row) - 1) != cost
            or len(pivot_row[c0]) != 1
            or abs(*pivot_row[c0].values()) != 1
        ):
            continue  # stale
        del rows[r0]
        ((k, coef),) = pivot_row[c0].items()  # coef is +-1
        others = [(c, list(e.items())) for c, e in pivot_row.items() if c != c0]
        for c in pivot_row:
            col_rows[c].discard(r0)
        touched = col_rows.pop(c0)
        for r in touched:
            row = rows[r]
            # entry / pivot, negated: row[c] += factor * pivot_row[c]
            factor = [(e - k, -v * coef) for e, v in row.pop(c0).items()]
            for c, terms in others:
                target = row.get(c)
                if target is None:
                    target = row[c] = {}
                    col_rows[c].add(r)
                for fe, fv in factor:
                    for pe, pv in terms:
                        e = fe + pe
                        v = target.get(e, 0) + fv * pv
                        if v:
                            target[e] = v
                        else:
                            del target[e]
                if not target:
                    del row[c]
                    col_rows[c].discard(r)
            if not row:
                return None
        # fresh heap entries: every unit of a touched row, and the units of
        # the other rows in the columns whose counts changed
        for r in touched:
            row = rows[r]
            n = len(row) - 1
            for c, e in row.items():
                if len(e) == 1 and abs(*e.values()) == 1:
                    heapq.heappush(heap, ((len(col_rows[c]) - 1) * n, r, c))
        for c, _ in others:
            m = len(col_rows[c]) - 1
            for r in col_rows[c] - touched:
                row = rows[r]
                e = row[c]
                if len(e) == 1 and abs(*e.values()) == 1:
                    heapq.heappush(heap, (m * (len(row) - 1), r, c))
    if not rows:
        return []
    col_ids = sorted({c for row in rows.values() for c in row})
    if len(col_ids) != len(rows):
        return None
    dense = []
    for r in sorted(rows):
        row = rows[r]
        shift = min(min(e) for e in row.values())
        row_lists = []
        for c in col_ids:
            e = row.get(c)
            if e is None:
                row_lists.append([])
            else:
                row_lists.append([e.get(x, 0) for x in range(shift, max(e) + 1)])
        dense.append(row_lists)
    return dense


# ---------------------------------------------------------------------------
# the polynomial


def _wirtinger_rows(pd: PlanarDiagram) -> dict[int, dict[int, dict[int, int]]]:
    """Abelianized Wirtinger relations, one row per arc that carries an over pass.

    Each under pass ends one arc and starts the next, so the edge entering
    pass p lies on arc k mod n, where k counts the under passes before p;
    arc 0 is the one through the start of the traversal.  The relation at
    under pass j, from arc j to arc j + 1 under arc o_j with sign s_j, is
    x_{j+1} = t^s_j x_j + (1 - t^s_j) x_{o_j}.  A short arc, one that
    carries no over pass, appears in no other relation, and its pivot is
    a unit, so substituting it changes the determinant by a unit +-t^k
    only.  Walking the under passes from the first long arc a, a run of
    them that ends at the next long arc b gives the row

        t^P_r x_b - x_a + sum_i (t^P_{i-1} - t^P_i) x_{o_i},

    the relation scaled by the running power t^P_i, P_i = -(s_1 + .. + s_i).
    The first long arc's column and the row that closes the cycle back
    into it are dropped.  Rows are keyed by run and map an arc to its
    entry, a fresh ``{exponent: coefficient}`` dict with no zero
    coefficient; arcs whose contributions cancel are left out.
    """
    n = len(pd.crossings)
    if n == 0:
        return {}
    arc_at = [0] * (2 * n)
    for crossing in pd.crossings:
        arc_at[crossing.under_in] = 1
    arc_at = list(itertools.accumulate(arc_at, initial=0))
    over, sign = [0] * n, [0] * n  # by under pass
    long = [False] * n  # by arc
    for crossing in pd.crossings:
        j = arc_at[crossing.under_in]
        over[j] = o = arc_at[crossing.over_in] % n
        sign[j] = crossing.sign
        long[o] = True
    first = long.index(True)

    def add(arc: int, e: int, v: int) -> None:
        entry = row.setdefault(arc, {})
        v += entry.get(e, 0)
        if v:
            entry[e] = v
        else:
            del entry[e]

    rows: dict[int, dict[int, dict[int, int]]] = {}
    row: dict[int, dict[int, int]] = {}
    a, power = first, 0
    for j in itertools.chain(range(first, n), range(first)):
        add(over[j], power, 1)
        power -= sign[j]
        add(over[j], power, -1)
        b = j + 1 if j + 1 < n else 0
        if long[b] and b != first:
            add(b, power, 1)
            add(a, 0, -1)
            row.pop(first, None)
            rows[len(rows)] = {arc: entry for arc, entry in row.items() if entry}
            row = {}
            a, power = b, 0
    return rows


def alexander(pd: PlanarDiagram) -> LaurentPoly:
    """Normalized Alexander polynomial of a one-component diagram.

    Raises:
        ArithmeticError: if an internal self-test fails, which indicates a
            malformed diagram rather than bad input data: the matrix is
            singular; the core determinant is not +-t^c times a symmetric
            polynomial with c an integer, as its centre search, the parity
            of 2c or the extra evaluation point shows (`_core_det`); or
            |value at t=1| != 1.
    """
    if pd.crossing_count == 0:
        return LaurentPoly.one()
    dense = _dense_core(_wirtinger_rows(pd))
    # the determinant up to a unit +-t^k, which normalize() removes
    det = LaurentPoly() if dense is None else LaurentPoly(enumerate(_core_det(dense)))
    if not det:
        raise ArithmeticError("singular Alexander matrix: malformed diagram")
    if det.span % 2:  # `_core_det` rules this out; normalize() could not centre it
        raise ArithmeticError(f"Alexander self-test failed: {det} cannot be centred")
    poly = det.normalize()
    if poly(1) != 1:
        raise ArithmeticError(f"Alexander self-test failed: value at t=1 is {poly(1)}")
    return poly


def same_knot_certificate(a: LaurentPoly, b: LaurentPoly) -> str:
    """Compare two normalized polynomials: 'consistent' or 'inconsistent'.

    Equality of Alexander polynomials is a necessary condition for two
    curves to be the same knot, never a sufficient one; an 'inconsistent'
    verdict proves the knot type changed, a 'consistent' one does not
    prove it was preserved.
    """
    return "consistent" if a.normalize() == b.normalize() else "inconsistent"
