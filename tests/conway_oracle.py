"""Independent small-diagram oracle: Conway polynomial by skein recursion.

Works on signed Gauss codes, repeatedly switching the first crossing met
on its under-strand (driving the diagram toward a descending one, which
is an unknot or a split link) and smoothing it with orientation.  This
shares no code with the determinant-based Alexander computation, so
agreement on small diagrams certifies both.
"""

from __future__ import annotations

from knotfold.diagram import PlanarDiagram
from knotfold.laurent import LaurentPoly


def gauss_code(pd: PlanarDiagram):
    """Single-component signed Gauss code: ((crossing index, is_over, sign), ...)."""
    events = [None] * (2 * len(pd.crossings))
    for i, c in enumerate(pd.crossings):
        events[c.under_in] = (i, False, c.sign)
        events[c.over_in] = (i, True, c.sign)
    assert all(e is not None for e in events)
    return (tuple(events),)


def _canon(comps):
    mapping: dict = {}
    out = []
    for comp in comps:
        cc = []
        for cid, over, sign in comp:
            if cid not in mapping:
                mapping[cid] = len(mapping)
            cc.append((mapping[cid], over, sign))
        out.append(tuple(cc))
    return tuple(out)


def _first_bad(comps):
    seen = set()
    for ci, comp in enumerate(comps):
        for pos, (cid, over, sign) in enumerate(comp):
            if cid in seen:
                continue
            seen.add(cid)
            if not over:
                return ci, pos, cid, sign
    return None


def _switch(comps, cid):
    return tuple(
        tuple((c, (not o) if c == cid else o, -s if c == cid else s) for c, o, s in comp)
        for comp in comps
    )


def _smooth(comps, cid):
    locs = []
    for ci, comp in enumerate(comps):
        for pos, (c, _o, _s) in enumerate(comp):
            if c == cid:
                locs.append((ci, pos))
    (ci, p), (cj, q) = locs
    if ci == cj:
        comp = comps[ci]
        if p > q:
            p, q = q, p
        a1 = comp[p + 1 : q]
        a2 = comp[q + 1 :] + comp[:p]
        rest = tuple(c for k, c in enumerate(comps) if k != ci)
        return rest + (a1, a2)
    a, b = comps[ci], comps[cj]
    merged = a[:p] + b[q + 1 :] + b[:q] + a[p + 1 :]
    return tuple(c for k, c in enumerate(comps) if k not in (ci, cj)) + (merged,)


def _zadd(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def _zshift_mul(f, sign):
    """Multiply by sign * z."""
    return {k + 1: sign * v for k, v in f.items()}


def conway_z(comps, memo=None) -> dict:
    """Conway polynomial in z of an oriented link given by Gauss codes."""
    if memo is None:
        memo = {}
    comps = _canon(comps)
    if comps in memo:
        return memo[comps]
    bad = _first_bad(comps)
    if bad is None:
        result = {0: 1} if len(comps) == 1 else {}
    else:
        _ci, _pos, cid, sign = bad
        switched = conway_z(_switch(comps, cid), memo)
        smoothed = conway_z(_smooth(comps, cid), memo)
        # L+ - L- = z L0, applied at the bad crossing of the current sign
        result = _zadd(switched, _zshift_mul(smoothed, 1 if sign > 0 else -1))
    memo[comps] = result
    return result


def _times_zsq(f):
    """Multiply a Laurent polynomial in t by z^2 = t - 2 + 1/t."""
    out = _zadd({k + 1: v for k, v in f.items()}, {k - 1: v for k, v in f.items()})
    return _zadd(out, {k: -2 * v for k, v in f.items()})


def alexander_via_conway(pd: PlanarDiagram) -> LaurentPoly:
    """Alexander polynomial through z^2 = t - 2 + 1/t substitution.

    Computes on its own {exponent: coefficient} dicts and builds a
    `LaurentPoly` only from the result, so it shares no arithmetic with
    the engine.
    """
    nabla = conway_z(gauss_code(pd))
    assert all(k % 2 == 0 for k in nabla), "knot Conway polynomial has even powers"
    total = {}
    for k, coef in nabla.items():
        term = {0: coef}
        for _ in range(k // 2):
            term = _times_zsq(term)
        total = _zadd(total, term)
    return LaurentPoly(total).normalize()


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), the classical closed form."""

    def div_exact(num, den):
        num = list(num)
        quot = [0] * (len(num) - len(den) + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = num[len(den) - 1 + k]
            assert c % den[-1] == 0
            quot[k] = c // den[-1]
            for j, b in enumerate(den):
                num[j + k] -= quot[k] * b
        assert not any(num)
        return quot

    num = [0] * (p * q + 2)
    num[0] += 1
    num[1] -= 1
    num[p * q] -= 1
    num[p * q + 1] += 1
    step = div_exact(num, [-1] + [0] * (p - 1) + [1])
    res = div_exact(step, [-1] + [0] * (q - 1) + [1])
    return LaurentPoly(dict(enumerate(res))).normalize()
