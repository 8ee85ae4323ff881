"""The Alexander engine against the engine it replaced (alexander_oracle.py).

The pivot queue must leave the same dense core as the full rescan, the
collapsed rows must give the same polynomial as one row per crossing, the
modular core determinant must equal Bareiss up to sign (and a Leibniz
expansion exactly), and the projection by integer stick crossings must
equal the six-shear all-pairs one, shear and crossing keys included.
The engine's core determinant relies on the symmetry of the Alexander
polynomial, so matrices without it go to the point-per-degree oracle
`_core_det`, and the engine must refuse them.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alexander_oracle import _core_det as core_det_oracle
from alexander_oracle import _wirtinger_rows as full_rows
from alexander_oracle import bareiss_det, dense_core_oracle, det_up_to_units_oracle, project_oracle
from knotfold.alexander import (
    _LAZY_STEPS,
    _PRIME_BITS,
    _PRIMES,
    _assignment,
    _core_det,
    _dense_core,
    _det_mod,
    _double_centre,
    _inverse_mod,
    _primes,
    _wirtinger_rows,
    alexander,
    project,
)
from knotfold.diagram import build_diagram
from knotfold.errors import KnotfoldError, NoRegularShear
from knotfold.grid import grid_to_planar, random_grid
from knotfold.lattice import LatticeKnot, canonicalize, validate_lattice
from knotfold.laurent import LaurentPoly
from knotfold.pipeline import run_pipeline


def copy_rows(rows):
    """A copy the engine may update in place: fresh row and entry dicts."""
    return {r: {c: dict(e) for c, e in row.items()} for r, row in rows.items()}


def full_rows_poly(pd):
    """The polynomial from one row per crossing and the point-per-degree core determinant."""
    if pd.crossing_count == 0:
        return LaurentPoly.one()
    det = core_det_oracle(_dense_core(full_rows(pd)))
    return LaurentPoly(dict(enumerate(det))).normalize()


def assert_engines_agree(pd, label):
    rows = _wirtinger_rows(pd)
    assert _dense_core(copy_rows(rows)) == dense_core_oracle(rows), label
    poly = alexander(pd)
    assert poly == det_up_to_units_oracle(rows).normalize(), label
    assert poly == full_rows_poly(pd), label


def assert_pipeline_agrees(diagram, res, label):
    assert_engines_agree(grid_to_planar(diagram), (label, "grid"))
    for step in (1, 2, 3):
        knot = res.stages[step].knot
        pd = project(knot)
        assert pd == project_oracle(knot), (label, step)
        assert_engines_agree(pd, (label, step))


def test_corpus(corpus_pipelines):
    for entry, res in corpus_pipelines:
        assert_pipeline_agrees(entry.diagram, res, entry.name)


def test_acceptance_suite(suite200, pipelines200):
    for (g, seed, diagram), (_, _, res) in zip(suite200, pipelines200):
        assert_pipeline_agrees(diagram, res, (g, seed))


@pytest.mark.parametrize("g", range(2, 33, 2))
def test_random(g):
    # even g here, odd g in test_random_odd, so each test stays short
    for seed in range(3):
        diagram = random_grid(g, seed)
        assert_pipeline_agrees(diagram, run_pipeline(diagram), (g, seed))


@pytest.mark.parametrize("g", range(3, 33, 2))
def test_random_odd(g):
    for seed in range(3):
        diagram = random_grid(g, seed)
        assert_pipeline_agrees(diagram, run_pipeline(diagram), (g, seed))


@pytest.mark.parametrize("g", [36, 40, 48, 56, 64])
def test_random_large_against_full_rows(g):
    # past the sizes where the full-rescan oracle is quick: the collapsed
    # rows against one row per crossing, base diagram and every stage
    for seed in range(2):
        diagram = random_grid(g, seed)
        res = run_pipeline(diagram)
        pds = [grid_to_planar(diagram)] + [project(res.stages[step].knot) for step in (1, 2, 3)]
        for step, pd in enumerate(pds):
            assert alexander(pd) == full_rows_poly(pd), (g, seed, step)


def test_collapsed_rows_by_hand():
    # O1 U2 O3 U1 U4 O4 O2 U3, every sign +1: arc 2 (between U1 and U4)
    # carries no over pass.  Under passes j = 0..3 go from arc j to arc
    # j + 1 under arcs 3, 0, 3, 1, so x2 = t x1 + (1 - t) x0 and
    # x3 = t x2 + (1 - t) x3, that is x3 = x2: after arc 0's column goes,
    # the run 0 -> 1 gives t^-1 x1 + (1 - t^-1) x3, the run 1 -> 3 gives
    # t^-1 x3 - x1, and the run 3 -> 0 closes the cycle and is dropped
    code = [(1, True, 1), (2, False, 1), (3, True, 1), (1, False, 1),
            (4, False, 1), (4, True, 1), (2, True, 1), (3, False, 1)]
    rows = _wirtinger_rows(build_diagram(code))
    assert rows == {0: {1: {-1: 1}, 3: {0: 1, -1: -1}}, 1: {1: {0: -1}, 3: {-1: 1}}}


@pytest.mark.parametrize(
    "rows",
    [
        # the second row empties while the rest stays square
        {0: {0: 1, 1: 2}, 1: {0: 1, 1: 2}, 2: {1: 3, 2: 3}},
        {0: {0: 1}, 1: {}},  # an empty row from the start
        {0: {0: 3}, 1: {0: 2}},  # no unit pivot, two rows, one column
        {0: {0: 1, 1: 2, 2: 1}, 1: {0: 2, 1: 3, 2: 2}, 2: {0: 1, 1: 1, 2: 1}},
    ],
)
def test_singular_sparse_matrices(rows):
    rows = {r: {c: {1: v} for c, v in row.items()} for r, row in rows.items()}  # v * t
    assert dense_core_oracle(rows) is None
    assert _dense_core(copy_rows(rows)) is None


unit_entries = st.builds(lambda e, v: {e: v}, st.integers(-3, 3), st.sampled_from((1, -1)))
laurent_entries = st.dictionaries(
    st.integers(-3, 3), st.integers(-2, 2).filter(bool), min_size=1, max_size=3
)


@st.composite
def sparse_matrices(draw):
    """1-12 rows of 1-3 entries each; square about half the time, and half the entries units."""
    n = draw(st.integers(1, 12))
    n_cols = draw(st.one_of(st.just(n), st.integers(1, n + 2)))
    rows = {}
    for r in range(n):
        cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=3, unique=True))
        rows[r] = {c: draw(st.one_of(unit_entries, laurent_entries)) for c in cols}
    return rows


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_matrices())
# pivot (0, 0) cancels row 1's entry in column 1, which a later pivot uses
@example({0: {0: {0: 1}, 1: {0: 1}}, 1: {0: {0: 1}, 1: {0: 1}, 2: {0: 1}}, 2: {1: {0: 1}, 2: {0: 2}}})
# pivot (0, 0) empties row 1
@example({0: {0: {0: 1}, 1: {1: 1}}, 1: {0: {0: 1}, 1: {1: 1}}})
# pivot (0, 0) leaves one row over three columns
@example({0: {0: {0: 1}, 1: {0: 2}}, 1: {0: {0: 1}, 2: {1: 2}, 3: {0: 2}}})
def test_dense_core_matches_oracle_on_sparse_matrices(rows):
    core = _dense_core(copy_rows(rows))
    assert core == dense_core_oracle(rows)
    # random rows need not have a symmetric determinant, so the core goes
    # to the point-per-degree oracle
    det = LaurentPoly.zero()
    if core is not None:
        det = LaurentPoly(dict(enumerate(core_det_oracle(core))))
    oracle = det_up_to_units_oracle(rows)
    negated = LaurentPoly({e: -v for e, v in oracle.coeffs.items()})
    assert det in (oracle, negated)  # Bareiss swaps rows without tracking the sign


def random_lattice_polygon(rng, sticks):
    """A closed lattice polygon with sticks of length 1..3; it may touch or cross itself."""
    while True:
        corners = [(0, 0, 0)]
        for _ in range(sticks):
            step = [0, 0, 0]
            step[rng.randrange(3)] = rng.choice((-1, 1)) * rng.randint(1, 3)
            corners.append(tuple(c + s for c, s in zip(corners[-1], step)))
        for axis in range(3):
            back = list(corners[-1])
            back[axis] = 0
            corners.append(tuple(back))
        try:
            return canonicalize(LatticeKnot(tuple(corners[:-1])))
        except KnotfoldError:
            continue


def projection_or_refusal(project_fn, knot):
    try:
        return project_fn(knot)
    except NoRegularShear:
        return "no regular shear"


def test_projection_of_touching_polygons():
    # polygons that touch themselves make shears irregular, so the losing
    # shears and the refusal are compared too, not only the winner
    rng = random.Random(3)
    refused = 0
    for idx in range(400):
        knot = random_lattice_polygon(rng, 4 + idx % 12)
        got = projection_or_refusal(project, knot)
        assert got == projection_or_refusal(project_oracle, knot), knot.corners
        refused += got == "no regular shear"
    assert refused > 20


def end_column_pairs(knot):
    """(x-stick, y-stick) pairs on different z-levels where the y-stick's
    column is an end of the x-stick and its span holds the x-stick's y: in
    3D the y-stick passes over or under the x-stick's end corner, and the
    shear decides whether the projections cross."""
    corners = knot.corners
    sticks = list(zip(corners, corners[1:] + corners[:1]))
    xs = [(p, q) for p, q in sticks if p[0] != q[0]]
    ys = [(p, q) for p, q in sticks if p[1] != q[1]]
    return sum(
        yp[0] in (xp[0], xq[0]) and yp[2] != xp[2] and min(yp[1], yq[1]) <= xp[1] <= max(yp[1], yq[1])
        for xp, xq in xs
        for yp, yq in ys
    )


def test_projection_of_valid_polygons():
    # self-avoiding polygons of short sticks, among them many where a
    # y-stick passes over or under an x-stick's end on another z-level
    rng = random.Random(11)
    valid = end_columns = 0
    while valid < 300:
        knot = random_lattice_polygon(rng, 4 + valid % 14)
        if not validate_lattice(knot).ok:
            continue
        valid += 1
        end_columns += end_column_pairs(knot)
        pd = project(knot)
        assert pd == project_oracle(knot), knot.corners
        assert alexander(pd) == full_rows_poly(pd), knot.corners
    assert end_columns > 50


# ---------------------------------------------------------------------------
# the modular core determinant


def leibniz_det(mat):
    """Exact determinant by the permutation expansion (small matrices only)."""
    m = len(mat)
    total = {}
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        term = [(-1) ** inversions]
        for row, col in enumerate(perm):
            term = poly_mul(term, mat[row][col])
        for k, c in enumerate(term):
            total[k] = total.get(k, 0) + c
    out = [total.get(k, 0) for k in range(max(total, default=-1) + 1)]
    return trim(out)


def poly_mul(f, g):
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def polys(coefficients):
    return st.lists(coefficients, max_size=5).map(trim)


small = st.integers(-3, 3)
large = st.integers(-(2**90), 2**90)


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 4))
    coef = draw(st.sampled_from([small, large]))
    mat = [[draw(polys(coef)) for _ in range(m)] for _ in range(m)]
    kind = draw(st.sampled_from(["random", "repeat", "root", "mod p"]))
    if kind == "repeat" and m > 1:
        # a row times t is another row: singular over Z
        mat[-1] = [poly_mul([0, 1], e) for e in mat[0]]
    elif kind == "root":
        # a row vanishes at the point a, so the determinant does too
        a = draw(st.integers(1, 3))
        mat[0] = [poly_mul([-a, 1], e) for e in mat[0]]
    elif kind == "mod p" and m > 1:
        # a row equals another modulo the first prime: singular modulo it
        # at every point, not over Z
        extra = draw(polys(st.integers(-2, 2)))
        mat[-1] = [
            trim([x + _PRIMES[0] * y for x, y in itertools.zip_longest(e, extra, fillvalue=0)])
            for e in mat[0]
        ]
    return mat


def is_symmetric(det):
    """True for 0 and for +-t^c times a polynomial symmetric in t and 1/t, c an integer."""
    terms = [k for k, v in enumerate(det) if v]
    return not terms or (
        (terms[0] + terms[-1]) % 2 == 0
        and all(det[k] == det[terms[0] + terms[-1] - k] for k in terms)
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example([[[1, -1]]])
@example([[[], []], [[], []]])
@example([[[1, 1], [2]], [[1, 1], [2 + _PRIMES[0]]]])
def test_core_det_matches_expansion_and_bareiss(mat):
    # random determinants are not symmetric: the point-per-degree oracle
    got = core_det_oracle([[list(e) for e in row] for row in mat])
    assert got == leibniz_det(mat)
    bareiss = bareiss_det([[list(e) for e in row] for row in mat])
    assert got in (bareiss, [-c for c in bareiss])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example([[[1, 1]]])  # 1 + t: symmetric about 1/2
@example([[[0, 1, 2]]])  # t + 2 t^2
@example([[[1, 1], []], [[], [0, 1]]])  # t + t^2, from two rows
def test_core_det_refuses_an_asymmetric_determinant(mat):
    want = leibniz_det(mat)
    if is_symmetric(want):
        assert _core_det([[list(e) for e in row] for row in mat]) == want
    else:
        with pytest.raises(ArithmeticError, match="self-test|no power"):
            _core_det([[list(e) for e in row] for row in mat])


def poly_add(f, g):
    return trim([a + b for a, b in itertools.zip_longest(f, g, fillvalue=0)])


@st.composite
def symmetric_matrices(draw):
    """Matrices over Z[t] whose determinant is +-t^k times a symmetric polynomial.

    The start is V - t V^T for an integer V of even size, whose determinant
    (-t)^n det(V - V^T / t) is symmetric about n/2 (Seifert), or the
    identity.  Adding a multiple of one row or column to another keeps the
    determinant; reversing every entry within a common degree d, which
    takes M(t) to t^d M(1/t), reflects it; scaling a row by t^k shifts it.
    The last three widen the degree range [L, H] around the centre, and
    on the identity they leave the centre at an end of it.
    """
    coef = draw(st.sampled_from([small, large]))
    n = draw(st.sampled_from([1, 2, 2, 3, 4]))
    if n % 2:
        mat = [[[1] if i == j else [] for j in range(n)] for i in range(n)]
    else:
        v = [[draw(coef) for _ in range(n)] for _ in range(n)]
        mat = [[trim([v[i][j], -v[j][i]]) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        p = draw(polys(st.integers(-2, 2)))
        if draw(st.booleans()):
            mat[i] = [poly_add(a, poly_mul(p, b)) for a, b in zip(mat[i], mat[j])]
        else:
            for row in mat:
                row[i] = poly_add(row[i], poly_mul(p, row[j]))
    if draw(st.booleans()):
        d = max(len(e) for row in mat for e in row) - 1
        mat = [[trim((e + [0] * (d + 1 - len(e)))[::-1]) if e else [] for e in row] for row in mat]
    k = draw(st.integers(0, 3))
    mat[0] = [[0] * k + e if e else [] for e in mat[0]]
    return mat


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_matrices())
# det 1 with degrees in [0, 1]: the centre at the low end
@example([[[1, 1], [1]], [[0, 1], [1]]])
# det t^2 with degrees in [1, 2]: the centre at the high end
@example([[[1, 1], [0, 1]], [[1], [0, 1]]])
def test_core_det_of_symmetric_matrices(mat):
    want = leibniz_det(mat)
    assert is_symmetric(want)
    got = _core_det([[list(e) for e in row] for row in mat])
    assert got == want
    assert got == core_det_oracle([[list(e) for e in row] for row in mat])


def test_core_det_refuses_a_half_integer_centre():
    # (1 + t)(1 + 3t + t^2) is symmetric about 3/2: det(t0) / det(1/t0) is
    # t0^3, so only the parity of 2c refuses it
    mat = [[[1, 1], []], [[], [1, 3, 1]]]
    assert leibniz_det(mat) == [1, 4, 4, 1]
    with pytest.raises(ArithmeticError, match="not an integer"):
        _core_det(mat)


def test_core_det_extra_point_refuses_what_the_centre_passes():
    # t^2 + (2t^2 - 5t + 2)(1 + 2t): the second term vanishes at t0 = 2 and
    # at 1/2, so det(2) / det(1/2) = 2^4 as for t^2, and the centre search
    # passes it; the interpolant from t = 1, 2 misses the extra point t = 3
    mat = [[[2, -1, -7, 4], []], [[], [1]]]
    assert leibniz_det(mat) == poly_add([0, 0, 1], poly_mul([2, -5, 2], [1, 2]))
    with pytest.raises(ArithmeticError, match="not symmetric about t\\^2"):
        _core_det(mat)


def test_centre_skips_a_point_of_small_order():
    # 2 has order 5 modulo 31, too small for degrees in [1, 4]: t0 = 2
    # would read 5 t^4 (2c = 8) as 2c = 3; t0 = 3, of order 30, is used
    q = 31
    assert pow(2, 5, q) == 1
    assert _double_centre(lambda x: 5 * x**4 % q, q, 1, 4) == 8
    assert _double_centre(lambda x: (x + 3 * x**2 + x**3) % q, q, 1, 3) == 4
    assert _double_centre(lambda x: 0 * x, q, 1, 4) is None
    with pytest.raises(ArithmeticError, match="not symmetric"):
        _double_centre(lambda x: (x + 2 * x**2) % q, q, 1, 2)


def test_centre_passes_over_a_root():
    # t (t - 2)(t - 1/2) is symmetric about t^2 and vanishes at t0 = 2 and
    # at 1/2, so the search passes over 2 and decides at 3
    q = _PRIMES[0]
    half = pow(2, -1, q)
    det = lambda x: np.array([(v - 2) * (v - half) % q * v % q for v in x.tolist()])  # noqa: E731
    assert _double_centre(det, q, 1, 3) == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.lists(st.one_of(st.none(), st.integers(-9, 9)), min_size=m, max_size=m),
                       min_size=m, max_size=m)))
def test_assignment_matches_brute_force(cost):
    m = len(cost)
    totals = [
        sum(cost[i][p[i]] for i in range(m))
        for p in itertools.permutations(range(m))
        if all(cost[i][p[i]] is not None for i in range(m))
    ]
    assert _assignment(cost) == (min(totals) if totals else None)


def test_core_det_singular_modulo_a_prime_at_every_point():
    # the rows agree modulo the first prime, so every evaluation there is 0
    # and the determinant, 2 * p0, comes from the other primes
    p0 = _PRIMES[0]
    mat = [[[1], [1]], [[1], [1 + 2 * p0]]]
    assert _core_det(mat) == core_det_oracle(mat) == [2 * p0]


def test_core_det_needs_more_primes_than_the_table():
    # a coefficient past the product of the table's primes can only be
    # recovered with primes below the table
    big = 3**500
    mat = [[[big, 1], [1]], [[1], [big, 0, 1]]]
    want = leibniz_det(mat)
    assert max(map(abs, want)) > math.prod(_PRIMES)
    assert core_det_oracle(mat) == want
    # and a symmetric one, (big + t + big t^2)(big + big t^2) - t^2, for the engine
    mat = [[[big, 1, big], [0, 1]], [[0, 1], [big, 0, big]]]
    want = leibniz_det(mat)
    assert max(map(abs, want)) > math.prod(_PRIMES) and is_symmetric(want)
    assert _core_det(mat) == want


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_table():
    assert all(is_prime(q) for q in _PRIMES)
    assert list(_PRIMES) == sorted(set(_PRIMES), reverse=True)
    assert _PRIMES[0] < 2**_PRIME_BITS
    extended = list(itertools.islice(_primes(), len(_PRIMES) + 3))
    assert extended[: len(_PRIMES)] == list(_PRIMES)
    below = range(extended[-1], _PRIMES[-1])
    assert [q for q in reversed(below) if is_prime(q)] == extended[len(_PRIMES):]


def det_mod_reference(mat, q):
    """Gaussian elimination modulo q in Python integers."""
    mat = [row[:] for row in mat]
    n, det = len(mat), 1
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k] % q), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det = det * mat[k][k] % q
        inv = pow(mat[k][k], -1, q)
        for r in range(k + 1, n):
            f = mat[r][k] * inv % q
            mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[k])]
    return det % q


def test_det_mod_past_the_lazy_reduction_interval():
    # L U with unit triangular L and U whose off-diagonal entries are all
    # q - 1: every elimination step subtracts (q - 1)^2 from every entry
    # below and right of the pivot, so after 128 steps without a full
    # reduction an int64 entry would overflow
    q = _PRIMES[0]
    m = 2 * _LAZY_STEPS + 6
    lower = np.eye(m, dtype=np.int64) - np.tril(np.ones((m, m), dtype=np.int64), -1)
    upper = lower.T
    rng = np.random.default_rng(1)
    stack = np.empty((m, m, 3), dtype=np.int64)
    stack[:, :, 0] = (lower @ upper) % q
    stack[:, :, 1] = rng.integers(0, q, size=(m, m))
    stack[:, :, 2] = stack[:, :, 1]
    stack[m - 1, :, 2] = stack[m - 2, :, 2]  # singular
    stack[0, 0, 1] = 0  # the first pivot needs a row swap
    want = [1] + [det_mod_reference(stack[:, :, b].tolist(), q) for b in (1, 2)]
    assert want[2] == 0
    assert _det_mod(stack.copy(), q).tolist() == want


def test_coefficient_bound_is_tight_on_a_diagonal():
    # Hadamard's bound is exact here: |det| = 3 * (p0 // 4), above p0 / 2,
    # so one prime cannot carry the sign and a second one is needed
    p0 = _PRIMES[0]
    mat = [[[-3], []], [[], [p0 // 4]]]
    assert _core_det(mat) == core_det_oracle(mat) == [-3 * (p0 // 4)]


@pytest.mark.parametrize("count", [7, 1000])
def test_inverse_mod(count):
    # a short array and a long one, each with a zero
    q = _PRIMES[5]
    x = np.random.default_rng(count).integers(0, q, size=count)
    x[0] = 0
    inv = _inverse_mod(x, q).tolist()
    assert inv[0] == 0
    assert all(v * w % q == 1 for v, w in zip(x[1:].tolist(), inv[1:]))
