"""The Alexander engine against the engine it replaced (alexander_oracle.py).

The pivot queue must leave the same dense core as the full rescan, the
modular core determinant must equal Bareiss up to sign (and a Leibniz
expansion exactly), and the projection by integer stick crossings must
equal the six-shear all-pairs one, shear and crossing keys included.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alexander_oracle import bareiss_det, dense_core_oracle, det_up_to_units_oracle, project_oracle
from knotfold.alexander import (
    _LAZY_STEPS,
    _PRIME_BITS,
    _PRIMES,
    _core_det,
    _dense_core,
    _det_mod,
    _det_up_to_units,
    _inverse_mod,
    _primes,
    _wirtinger_rows,
    alexander,
    project,
)
from knotfold.errors import KnotfoldError, NoRegularShear
from knotfold.grid import grid_to_planar, random_grid
from knotfold.lattice import LatticeKnot, canonicalize, validate_lattice
from knotfold.laurent import LaurentPoly
from knotfold.pipeline import run_pipeline


def copy_rows(rows):
    """A copy the engine may update in place: fresh row and entry dicts."""
    return {r: {c: dict(e) for c, e in row.items()} for r, row in rows.items()}


def as_laurent(rows):
    """The engine's {exponent: coefficient} entries as LaurentPoly, for the oracle."""
    return {r: {c: LaurentPoly(e) for c, e in row.items()} for r, row in rows.items()}


def assert_engines_agree(pd, label):
    rows = _wirtinger_rows(pd)
    assert _dense_core(copy_rows(rows)) == dense_core_oracle(as_laurent(rows)), label
    assert alexander(pd) == det_up_to_units_oracle(as_laurent(rows)).normalize(), label


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
    assert dense_core_oracle(as_laurent(rows)) is None
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
    assert core == dense_core_oracle(as_laurent(rows))
    det = _det_up_to_units(copy_rows(rows))
    oracle = det_up_to_units_oracle(as_laurent(rows))
    assert det in (oracle, -oracle)  # Bareiss swaps rows without tracking the sign


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
        assert project(knot) == project_oracle(knot), knot.corners
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example([[[1, -1]]])
@example([[[], []], [[], []]])
@example([[[1, 1], [2]], [[1, 1], [2 + _PRIMES[0]]]])
def test_core_det_matches_expansion_and_bareiss(mat):
    got = _core_det([[list(e) for e in row] for row in mat])
    assert got == leibniz_det(mat)
    bareiss = bareiss_det([[list(e) for e in row] for row in mat])
    assert got in (bareiss, [-c for c in bareiss])


def test_core_det_singular_modulo_a_prime_at_every_point():
    # the rows agree modulo the first prime, so every evaluation there is 0
    # and the determinant, 2 * p0, comes from the other primes
    p0 = _PRIMES[0]
    mat = [[[1], [1]], [[1], [1 + 2 * p0]]]
    assert _core_det(mat) == [2 * p0]


def test_core_det_needs_more_primes_than_the_table():
    # a coefficient past the product of the table's primes can only be
    # recovered with primes below the table
    big = 3**500
    mat = [[[big, 1], [1]], [[1], [big, 0, 1]]]
    want = leibniz_det(mat)
    assert max(map(abs, want)) > math.prod(_PRIMES)
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
    assert _core_det(mat) == [-3 * (p0 // 4)]


@pytest.mark.parametrize("count", [7, 1000])
def test_inverse_mod(count):
    # a short array and one longer than a g=128 core's 783 points
    q = _PRIMES[5]
    x = np.random.default_rng(count).integers(0, q, size=count)
    x[0] = 0
    inv = _inverse_mod(x, q).tolist()
    assert inv[0] == 0
    assert all(v * w % q == 1 for v, w in zip(x[1:].tolist(), inv[1:]))
