"""The unit-thickness lemma against the brute-force all-pairs oracle.

`rope_metrics` reports thickness 1 for the rounding of every self-avoiding
lattice polygon and refuses every other rope.  The oracle measures the
least distance d over all non-adjacent pairs, so on pipeline knots twice
the thickness radius must equal min(d, 2) exactly, which holds only where
d >= 2.  On ropes that come closer than 2, `rope_metrics` must refuse.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knotfold.errors import KnotfoldError
from knotfold.grid import random_grid
from knotfold.lattice import LatticeKnot, canonicalize, validate_lattice
from knotfold.pipeline import run_pipeline
from knotfold.rope import export_geometry, import_geometry, rope_metrics, smooth
from scan_oracle import min_self_distance_oracle


def assert_matches_oracle(knot, label):
    s = smooth(knot)
    got = 2 * rope_metrics(s).thickness_radius
    assert got == min(min_self_distance_oracle(s), 2.0), label
    return got


def refused_below_two(s):
    """The oracle's d for the rope `s`; `rope_metrics` must refuse `s` when
    d < 2, and may report only thickness 1 otherwise."""
    d = min_self_distance_oracle(s)
    try:
        thickness = rope_metrics(s).thickness_radius
    except KnotfoldError:
        return d
    assert d >= 2.0 and thickness == 1.0, (d, thickness)
    return d


def test_corpus(corpus_pipelines):
    for entry, res in corpus_pipelines:
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (entry.name, step))


def test_acceptance_suite(pipelines200):
    for g, seed, res in pipelines200:
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (g, seed, step))


@pytest.mark.parametrize("g", range(2, 21))
def test_random_small(g):
    for seed in range(3):
        res = run_pipeline(random_grid(g, seed))
        for step in (1, 2, 3):
            assert_matches_oracle(res.stages[step].knot, (g, seed, step))


@pytest.mark.parametrize("seed", [1, 2])
def test_random_g48(seed):
    res = run_pipeline(random_grid(48, seed))
    for step in (1, 2, 3):
        assert_matches_oracle(res.stages[step].knot, (48, seed, step))


@pytest.mark.parametrize("w,h", [(10, 3), (3, 10), (40, 25), (2, 2), (5, 1)])
def test_rectangle_clearance_is_two(w, h):
    # only opposite straights are non-adjacent, 2*min(w, h) apart once doubled
    rect = LatticeKnot(((0, 0, 0), (w, 0, 0), (w, h, 0), (0, h, 0)))
    assert assert_matches_oracle(rect, (w, h)) == 2.0


def test_hexagon_through_three_planes():
    # a 6x6x6 loop whose nearest non-adjacent pieces are 12 or more apart
    hexagon = LatticeKnot(
        ((0, 0, 0), (6, 0, 0), (6, 6, 0), (6, 6, 6), (0, 6, 6), (0, 0, 6))
    )
    assert assert_matches_oracle(hexagon, "hexagon") == 2.0


def rope_of(corners):
    """The rope that `smooth` makes of these corners, but without doubling
    them, so two pieces may come closer than 2.  Every stick is at least 2 long."""
    records = []
    for p, q, r in zip(corners[-1:] + corners[:-1], corners, corners[1:] + corners[:1]):
        u = [(b > a) - (b < a) for a, b in zip(p, q)]  # into the corner q
        v = [(b > a) - (b < a) for a, b in zip(q, r)]  # out of it
        arc = [c - x + y for c, x, y in zip(q, u, v)] + [-y for y in v] + u
        seg = [c + y for c, y in zip(q, v)] + [c - y for c, y in zip(r, v)]
        records += ["ARC " + " ".join(map(str, arc)), "SEG " + " ".join(map(str, seg))]
    return import_geometry("\n".join(records))


@pytest.mark.parametrize(
    "corners,d",
    [
        # the straight of (4, -3, 1) -> (4, 3, 1) passes 1 over that of (0, 0, 0) -> (8, 0, 0)
        (
            [(0, 0, 0), (8, 0, 0), (8, 0, 3), (4, 0, 3), (4, -3, 3), (4, -3, 1),
             (4, 3, 1), (0, 3, 1), (0, 3, -2), (0, 0, -2)],
            1.0,
        ),
        # the straight of (6, 1, 1) -> (2, 1, 1) runs sqrt(2) from that of (-3, 0, 0) -> (8, 0, 0)
        (
            [(-3, 0, 0), (8, 0, 0), (8, 0, 3), (11, 0, 3), (11, 4, 3), (11, 4, 1), (6, 4, 1),
             (6, 1, 1), (2, 1, 1), (2, 1, 4), (-3, 1, 4), (-3, -3, 4), (-3, -3, 0)],
            math.sqrt(2.0),
        ),
    ],
)
def test_straights_closer_than_two(corners, d):
    assert refused_below_two(rope_of(corners)) == d


def random_turning_polygon(rng, sticks):
    """A closed lattice polygon with right-angle corners; it may cross itself."""
    while True:
        corners = [(0, 0, 0)]
        axis = rng.randrange(3)
        for _ in range(sticks):
            axis = rng.choice([a for a in range(3) if a != axis])
            step = [0, 0, 0]
            step[axis] = rng.choice((-1, 1)) * rng.randint(1, 3)
            corners.append(tuple(c + s for c, s in zip(corners[-1], step)))
        for axis in range(3):  # walk back to the origin one axis at a time
            back = list(corners[-1])
            back[axis] = 0
            corners.append(tuple(back))
        corners = corners[:-1]
        try:
            knot = canonicalize(LatticeKnot(tuple(corners)))
        except KnotfoldError:
            continue
        c = knot.corners
        dirs = [tuple(b - a for a, b in zip(c[i], c[(i + 1) % len(c)])) for i in range(len(c))]
        if all(sum(x * y for x, y in zip(d, e)) == 0 for d, e in zip(dirs, dirs[1:] + dirs[:1])):
            return knot


@pytest.mark.parametrize("seed", [1, 5])
def test_random_crossing_polygons(seed):
    # unlike lattice knots these come closer than 2, down to touching;
    # rope_metrics refuses exactly the ones that meet themselves
    rng = random.Random(seed)
    below_two = 0
    for idx in range(300):
        knot = random_turning_polygon(rng, 4 + idx % 10)
        s = smooth(knot)
        below_two += refused_below_two(s) < 2.0
        if validate_lattice(knot).ok:
            assert rope_metrics(s).thickness_radius == 1.0
        else:
            with pytest.raises(KnotfoldError):
                rope_metrics(s)
    assert below_two > 80


def mirror_arc(record):
    """The ARC record with the same ends and the other centre: it bulges the
    other way, so its rope still closes up."""
    c, u, v = (list(map(int, record.split()[k : k + 3])) for k in (1, 4, 7))
    start, end = [a + b for a, b in zip(c, u)], [a + b for a, b in zip(c, v)]
    centre = [a + b - x for a, b, x in zip(start, end, c)]
    fields = centre + [a - x for a, x in zip(start, centre)] + [b - x for b, x in zip(end, centre)]
    return "ARC " + " ".join(map(str, fields))


@pytest.fixture(scope="module")
def stage_texts(corpus_pipelines):
    return [
        export_geometry(smooth(res.stages[step].knot), "arcs").splitlines()
        for _, res in corpus_pipelines
        for step in (1, 2, 3)
    ]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_arcs_text_is_refused_or_two_apart(stage_texts, data):
    # one record of a corpus stage's .arcs.txt changes: one integer field
    # moves by -3..3 (0 leaves the text as it was), or an arc turns into its
    # mirror.  import_geometry or rope_metrics refuses the result, or the
    # oracle finds every non-adjacent pair at least 2 apart
    lines = list(data.draw(st.sampled_from(stage_texts)))
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    if tokens[0] == "ARC" and data.draw(st.booleans()):
        lines[i] = mirror_arc(lines[i])
    else:
        j = data.draw(st.integers(1, len(tokens) - 1))
        tokens[j] = str(int(tokens[j]) + data.draw(st.integers(-3, 3)))
        lines[i] = " ".join(tokens)
    try:
        s = import_geometry("\n".join(lines) + "\n")
    except KnotfoldError:
        return
    refused_below_two(s)


def test_mirrored_arc_imports_but_is_refused(stage_texts):
    # the mirror keeps the rope closed, so import_geometry takes it; its
    # centre is not a rounded lattice corner, so rope_metrics refuses it
    for lines in stage_texts:
        mirrored = [mirror_arc(lines[0]), *lines[1:]]
        s = import_geometry("\n".join(mirrored) + "\n")
        with pytest.raises(KnotfoldError, match="doubled lattice polygon"):
            rope_metrics(s)
