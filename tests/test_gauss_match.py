"""The R1-reduced signed Gauss code match, against a brute-force oracle.

The oracle reduces a code by deleting any two cyclically adjacent passes
of one crossing until none are left, relabels crossings by first pass,
and tries every start point in both directions.  It shares no code with
`knotfold.diagram`'s stack pass and offset encoding.

Some codes equal their own image under an over/under swap or a mirror up
to rotation: in a b a b with one sign, a over first and b under first,
swapping a's passes gives the code read from its second pass.  So those
two perturbations are checked against the oracle, and they are refused
outright only where an invariant kept by rotation and reversal refutes
them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from knotfold.diagram import build_diagram, r1_reduced_code, same_r1_reduced_code

TREFOIL = [("a", True, 1), ("b", False, 1), ("c", True, 1),
           ("a", False, 1), ("b", True, 1), ("c", False, 1)]


def naive_reduce(code):
    code = list(code)
    while True:
        m = len(code)
        i = next((i for i in range(m) if m > 1 and code[i][0] == code[(i + 1) % m][0]), None)
        if i is None:
            return code
        j = (i + 1) % m
        code = [p for k, p in enumerate(code) if k not in (i, j)]


def relabelled(code):
    first: dict = {}
    return [(first.setdefault(key, len(first)), over, sign) for key, over, sign in code]


def oracle_same(a, b):
    ra, rb = naive_reduce(a), naive_reduce(b)
    if len(ra) != len(rb):
        return False
    target = relabelled(ra)
    forms = (rb, rb[::-1])
    return any(relabelled(f[k:] + f[:k]) == target for f in forms for k in range(max(1, len(rb))))


def same(a, b):
    return same_r1_reduced_code(build_diagram(a), build_diagram(b))


@st.composite
def signed_codes(draw):
    """A signed Gauss code: every key passed once over and once under, one sign per key."""
    n = draw(st.integers(min_value=0, max_value=10))
    positions = draw(st.permutations(range(2 * n)))
    code = [None] * (2 * n)
    for key, p, q in zip(range(n), positions[::2], positions[1::2]):
        over_first = draw(st.booleans())
        sign = draw(st.sampled_from((-1, 1)))
        code[p] = (key, over_first, sign)
        code[q] = (key, not over_first, sign)
    return code


def with_kinks(draw, code):
    """code with up to four R1 kinks inserted, nested ones included, then rotated."""
    code = list(code)
    for key in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(code)))
        over, sign = draw(st.booleans()), draw(st.sampled_from((-1, 1)))
        code[at:at] = [(("kink", key), over, sign), (("kink", key), not over, sign)]
    k = draw(st.integers(0, max(0, len(code) - 1)))
    return code[k:] + code[:k]


def surviving_key(draw, code):
    """A crossing that R1 reduction keeps, or None when it keeps none."""
    keys = sorted({key for key, _, _ in naive_reduce(code)})
    return draw(st.sampled_from(keys)) if keys else None


def writhe(code):
    return sum(sign for _, over, sign in naive_reduce(code) if over)


@settings(max_examples=300, deadline=None)
@given(signed_codes(), st.data())
def test_matches_itself_after_rotation_reversal_and_kinks(code, data):
    k = data.draw(st.integers(0, max(0, len(code) - 1)))
    assert same(code, code[k:] + code[:k])
    assert same(code, code[::-1])
    kinked = with_kinks(data.draw, code)
    assert same(code, kinked) and same(kinked, code[::-1])
    assert len(r1_reduced_code(build_diagram(kinked))) == len(naive_reduce(code))


@settings(max_examples=300, deadline=None)
@given(signed_codes(), st.data())
def test_a_flipped_sign_never_matches(code, data):
    # the counts of over and under passes of each sign survive rotation and
    # reversal, and flipping one crossing's sign moves two passes between them
    key = surviving_key(data.draw, code)
    if key is None:
        return
    flipped = [(k, over, -sign if k == key else sign) for k, over, sign in code]
    assert not same(code, flipped)
    assert not same(with_kinks(data.draw, code), flipped)


@settings(max_examples=300, deadline=None)
@given(signed_codes(), st.data())
def test_a_swapped_crossing_matches_only_where_the_oracle_does(code, data):
    key = surviving_key(data.draw, code)
    if key is None:
        return
    swapped = [(k, over != (k == key), sign) for k, over, sign in code]
    assert same(code, swapped) == oracle_same(code, swapped)


@settings(max_examples=300, deadline=None)
@given(signed_codes(), st.data())
def test_the_mirror_matches_only_where_the_oracle_does(code, data):
    mirror = [(k, not over, -sign) for k, over, sign in code]
    verdict = same(with_kinks(data.draw, code), mirror)
    assert verdict == oracle_same(code, mirror)
    # rotation and reversal keep the writhe, and the mirror negates it
    if writhe(code):
        assert not verdict
    if not naive_reduce(code):
        assert verdict


def test_trefoil_is_not_its_mirror():
    mirror = [(k, not over, -sign) for k, over, sign in TREFOIL]
    assert not same(TREFOIL, mirror)
    assert same(TREFOIL, TREFOIL[::-1])


def test_a_swap_that_is_a_rotation_matches():
    code = [("a", True, 1), ("b", False, 1), ("a", False, 1), ("b", True, 1)]
    swapped = [("a", False, 1), ("b", False, 1), ("a", True, 1), ("b", True, 1)]
    assert same(code, swapped) and oracle_same(code, swapped)


def test_kinks_cancel_across_the_cyclic_ends():
    # z and y each have one pass at either end, so the stack pass keeps all
    # four and only the cyclic ends cancel them, y after z
    wrapped = [("z", True, 1), ("y", False, -1), *TREFOIL, ("y", True, -1), ("z", False, 1)]
    reduced = r1_reduced_code(build_diagram(wrapped))
    assert reduced == r1_reduced_code(build_diagram(TREFOIL))
    assert reduced == [(over, 1, 3) for over in (True, False) * 3]
    assert same(wrapped, TREFOIL)


def test_empty_codes_match():
    assert same([], [])
    assert same([("k", True, 1), ("k", False, 1)], [])
    assert not same(TREFOIL, [])
