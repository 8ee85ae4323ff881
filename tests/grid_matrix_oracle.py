"""Independent oracle for the Alexander polynomial of a grid diagram.

For a grid diagram of size g, let M be the g x g matrix whose entry at the
lattice point p = (i, j), 0 <= i, j < g, is t^(-w(p)), where w(p) is the
winding number of the diagram's curve around p.  Then

    det M = +-t^k (1 - t)^(g - 1) Delta(t)

for some integer k (Ozsvath, Stipsicz and Szabo, Grid Homology for Knots
and Links, 2015, ch. 3).  The check evaluates both sides at four points
modulo the prime 2^61 - 1 and asks for one sign and one k that fit all
four.  It shares no code with ``knotfold.alexander``: no Wirtinger matrix,
no projection and no elimination of unit pivots.  A wrong polynomial
passes only by a collision modulo the prime, so this is an oracle for
tests, not a certificate.
"""

from __future__ import annotations

PRIME = (1 << 61) - 1
# points of large multiplicative order modulo PRIME (2 has order 61)
POINTS = (3, 5, 7, 11)


def winding_numbers(x_col, o_col) -> list[list[int]]:
    """w[j][i]: winding number of the grid curve around the lattice point (i, j).

    x_col[r - 1] and o_col[r - 1] are the columns of row r's markers, which
    sit at square centres (c - 1/2, r - 1/2).  Row r's horizontal strand,
    taken from X to O, crosses the upward ray from (i, j) when r > j and i
    lies between the two marker columns.  The rows are added from the top
    down, so each lattice row reads off the running sum.  (Orienting the
    other way negates every w, which the identity's unit absorbs.)
    """
    g = len(x_col)
    above = [0] * g
    w = [[]] * g
    for r in range(g, 0, -1):
        x, o = x_col[r - 1], o_col[r - 1]
        step = 1 if o > x else -1
        for i in range(min(x, o), max(x, o)):
            above[i] += step
        w[r - 1] = list(above)
    return w


def det_mod(rows: list[list[int]]) -> int:
    """Determinant modulo PRIME of a square matrix of residues; the rows are consumed."""
    det = 1
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        top = rows[k]
        det = det * top[k] % PRIME
        inverse = pow(top[k], -1, PRIME)
        for r in range(k + 1, len(rows)):
            factor = rows[r][k] * inverse % PRIME
            if factor:
                rows[r] = [(a - factor * b) % PRIME for a, b in zip(rows[r], top)]
    return det % PRIME


def grid_matrix_residues(w: list[list[int]]) -> list[int]:
    """det M at each of POINTS, modulo PRIME, for the winding numbers w."""
    out = []
    for t in POINTS:
        power = {e: pow(t, -e, PRIME) for row in w for e in row}
        out.append(det_mod([[power[e] for e in row] for row in w]))
    return out


def identity_holds(x_col, o_col, coeffs: dict[int, int]) -> bool:
    """Whether det M = +-t^k (1 - t)^(g - 1) Delta(t) at every point of POINTS.

    `coeffs` maps each exponent of Delta to its coefficient.  The sign and
    k are read off the first point by a table of its powers t^k, with |k|
    at most g times the largest |w| plus g plus Delta's largest |exponent|,
    and must fit the other three points as well.
    """
    g = len(x_col)
    w = winding_numbers(x_col, o_col)
    ratios = []
    for t, det in zip(POINTS, grid_matrix_residues(w)):
        value = sum(c * pow(t, e, PRIME) for e, c in coeffs.items())
        rhs = pow(1 - t, g - 1, PRIME) * value % PRIME
        if rhs == 0:
            return False
        ratios.append(det * pow(rhs, -1, PRIME) % PRIME)
    wmax = max(abs(e) for row in w for e in row)
    reach = g * wmax + g + max((abs(e) for e in coeffs), default=0)
    t0 = POINTS[0]
    exponent_of = {}
    power = pow(t0, -reach, PRIME)
    for k in range(-reach, reach + 1):
        exponent_of.setdefault(power, k)
        power = power * t0 % PRIME
    for sign in (1, -1):
        k = exponent_of.get(sign * ratios[0] % PRIME)
        if k is None:
            continue
        if all(sign * pow(t, k, PRIME) % PRIME == r
               for t, r in zip(POINTS[1:], ratios[1:])):
            return True
    return False
