"""Knot-type certificates via the Alexander polynomial.

The polynomial is computed from the Wirtinger presentation of a diagram:
one relation row per crossing over the free group on the overpass arcs,
abelianized to integer Laurent polynomials, with one row and one column
deleted before taking the determinant.  The determinant is evaluated
exactly: unit-monomial pivots are eliminated sparsely first (rows have at
most three entries), taken in Markowitz order from a heap, and the
determinant of whatever dense core remains is evaluated at enough points
modulo enough primes, interpolated, and recombined by the Chinese
remainder theorem, with rigorous degree and coefficient bounds.  Each
dense core is logged at DEBUG level: its rows, degree bound, coefficient
bound in bits and number of primes.

The matrix entries are plain ``{exponent: coefficient}`` dicts of ints,
which the elimination updates in place; a `LaurentPoly` is made only for
the determinant that comes back.

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

import numpy as np

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
    """Inverses modulo the prime q elementwise, 0 for 0: x^(q-2) by squaring."""
    out = np.ones_like(x)
    e = q - 2
    while e:
        if e & 1:
            out = out * x % q
        x = x * x % q
        e >>= 1
    return out


def _det_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Determinants modulo the prime q of a stack of square matrices.

    a[i, j, b] is entry (i, j) of matrix b, reduced modulo q; the stack is
    the last axis so every array operation runs along it.  Gaussian
    elimination with row swaps; entries below the pivot row are reduced
    only when they become the next pivot's row or column, or every
    _LAZY_STEPS steps.  A matrix that is singular modulo q meets a zero
    pivot column and its determinant comes out 0.
    """
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


def _det_up_to_units(rows: dict[int, dict[int, dict[int, int]]]) -> LaurentPoly:
    """Determinant of a sparse Laurent matrix, up to a unit +-t^k.

    Entries are ``{exponent: coefficient}`` dicts, as in `_dense_core`,
    which consumes the rows.  Unit-monomial pivots are eliminated first
    (`_dense_core`); the determinant of the remaining dense core is
    computed modulo primes and recombined (`_core_det`).  Determinant
    scaling by units is not tracked since callers normalize.
    """
    dense = _dense_core(rows)
    if dense is None:
        return LaurentPoly.zero()
    det = _core_det(dense)
    return LaurentPoly({e: v for e, v in enumerate(det)})


# ---------------------------------------------------------------------------
# the polynomial


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


def alexander(pd: PlanarDiagram) -> LaurentPoly:
    """Normalized Alexander polynomial of a one-component diagram.

    Raises:
        ArithmeticError: if internal self-tests fail (singular matrix,
            asymmetric result, or |value at t=1| != 1), which indicates a
            malformed diagram rather than bad input data.
    """
    if pd.crossing_count == 0:
        return LaurentPoly.one()
    det = _det_up_to_units(_wirtinger_rows(pd))
    if not det:
        raise ArithmeticError("singular Alexander matrix: malformed diagram")
    if det.span % 2 or not det.is_palindromic():
        raise ArithmeticError(f"Alexander self-test failed: {det} is not symmetric")
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
