"""The unit-thickness lemma, proved by a finite check of lattice windows.

Lemma.  Let k be a self-avoiding lattice polygon.  In `smooth(k)`, two
pieces whose sticks are two or more apart round the cycle (stick gap > 1,
the adjacency rule of tests/scan_oracle.py) are at least 2 apart.  Every
arc has radius 1, so the rope has thickness exactly 1.

Proof.  In the doubled coordinates of `smooth`, each lattice point p that
the polygon visits carries a local piece l(p).  With a and b the unit
steps from p to its two neighbours on the polygon, l(p) runs from 2p + a
to 2p + b: the straight through 2p when b = -a, and otherwise the quarter
circle of radius 1 about 2p + a + b.  Then:

- the arc at a corner c is l(c);
- the straight of a stick of length L >= 2 is the union of l(p) over the
  L - 1 points inside the stick;
- the straight of a stick of length 1 is the single point 2p + a, which
  lies on the arcs l(p) and l(p + a) of the stick's two corners.

1. If pieces P and Q are non-adjacent and neither is a zero-length
   straight, take p with l(p) in P and q with l(q) in Q.  Between P's last
   stick and Q's first lies a whole stick, p lies at least one step before
   the end of its last stick, and q at least one step after the start of
   its first.  So p and q are at least 3 steps apart along the polygon,
   both ways round, and p, q and their four neighbours are six different
   points, as the polygon visits no point twice.
2. A polygon of 4 sticks is a rectangle, whose only non-adjacent pairs are
   opposite straights, at least 2 apart once doubled.  No polygon
   has 5 sticks: an axis that only one stick uses cannot close.  With 6 or
   more sticks, a piece Q non-adjacent to the zero-length straight of
   stick j is non-adjacent to one of the arcs at its ends.  Those arcs
   cover sticks j - 1, j and j, j + 1, so Q would need sticks j - 2 and
   j + 2, which no piece covers at once.  The straight lies on that arc,
   so its distance to Q is at least the arc's.  Applied to both pieces
   where both are zero-length, this reduces every pair to case 1.
3. l(p) lies in the box 2p +- 1, so when q - p has a coordinate of 2 or
   more, l(p) and l(q) are at least 2 apart.

So the lemma holds if every window is at least 2 apart: a window is l(p)
and l(q) with q - p in {-1, 0, 1}^3 \\ {0}, over every choice of the two
neighbours of p and of q that keeps the six points different.  The
windows are finite, and this module checks every one.  A window whose
pieces' integer boxes are at least 2 apart is decided by the boxes'
integer squared distance.  The others are measured by the exact kernels
of tests/scan_oracle.py, whose rounding error is far below 1e-9; any of
them reading within 1e-9 of 2 would have to be confirmed another way, and
fails the test instead.  None does: the nearest reads sqrt(5).  Windows
that a cube symmetry, a translation or swapping p and q maps onto each
other are the same window: 4512 windows with p at the origin come to 72,
of which 6 have boxes less than 2 apart.
"""

import itertools
import math

import pytest

from knotfold.rope import ArcPiece, StraightPiece
from scan_oracle import _arc_arc_dist, _arc_seg_dist

STEPS = [tuple(sign * (k == axis) for k in range(3)) for axis in range(3) for sign in (1, -1)]
NEIGHBOURS = list(itertools.combinations(STEPS, 2))
OFFSETS = [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
# the 48 symmetries of the cube: every axis permutation with every sign choice
SYMMETRIES = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def add(*vectors):
    return tuple(map(sum, zip(*vectors)))


def local_piece(p, a, b):
    """l(p) in doubled coordinates, for the unit steps a and b to p's neighbours."""
    twice = add(p, p)
    if add(a, b) == (0, 0, 0):
        return StraightPiece(add(twice, a), add(twice, b))
    return ArcPiece(add(twice, a, b), tuple(-x for x in b), tuple(-x for x in a))


def box_distance_squared(x, y):
    """Integer squared distance between the boxes of two local pieces: each
    lies in the box of its two ends (a quarter arc bulges toward its corner)."""
    total = 0
    for k in range(3):
        lo1, hi1 = sorted((x.start[k], x.end[k]))
        lo2, hi2 = sorted((y.start[k], y.end[k]))
        total += max(0, lo2 - hi1, lo1 - hi2) ** 2
    return total


def distance(x, y):
    """The exact kernels' distance between two local pieces."""
    if isinstance(x, StraightPiece) and isinstance(y, StraightPiece):
        return math.sqrt(box_distance_squared(x, y))  # each is its own box
    if isinstance(x, StraightPiece):
        x, y = y, x
    if isinstance(y, StraightPiece):
        return _arc_seg_dist(x, y.start, y.end)
    return _arc_arc_dist(x, y, cutoff=math.inf)


def windows():
    """Every window (p = 0, neighbour steps of p, q, neighbour steps of q)."""
    origin = (0, 0, 0)
    for (a, b), q, (c, d) in itertools.product(NEIGHBOURS, OFFSETS, NEIGHBOURS):
        if len({origin, a, b, q, add(q, c), add(q, d)}) == 6:
            yield (a, b), q, (c, d)


def canonical(window):
    """The least image of a window under the cube symmetries, translations and
    the swap of its two points."""
    (a, b), q, (c, d) = window
    images = []
    for perm, signs in SYMMETRIES:

        def g(v):
            return tuple(signs[k] * v[perm[k]] for k in range(3))

        ga, gb, gq, gc, gd = map(g, (a, b, q, c, d))
        back = tuple(-x for x in gq)
        images.append((tuple(sorted((ga, gb))), gq, tuple(sorted((gc, gd)))))
        images.append((tuple(sorted((gc, gd))), back, tuple(sorted((ga, gb)))))
    return min(images)


@pytest.fixture(scope="module")
def decided():
    """Each window up to symmetry, with its integer box distance squared and,
    for boxes less than 2 apart, the kernels' distance."""
    out = {}
    for window in windows():
        key = canonical(window)
        if key in out:
            continue
        (a, b), q, (c, d) = key
        x, y = local_piece((0, 0, 0), a, b), local_piece(q, c, d)
        box2 = box_distance_squared(x, y)
        out[key] = (box2, None if box2 >= 4 else distance(x, y))
    return out


def test_every_window_is_at_least_two_apart(decided):
    assert sum(1 for _ in windows()) == 4512
    assert len(decided) == 72
    close = [d for box2, d in decided.values() if box2 < 4]
    assert len(close) == 6
    assert not [d for d in close if abs(d - 2.0) <= 1e-9]  # no float reading decides alone
    assert min(close) > 2.0 + 1e-9
    assert min(close) == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_windows_at_exactly_two_are_decided_by_integer_boxes(decided):
    # parallel straights on neighbouring lattice lines, for one, are 2 apart
    # exactly; their boxes say so in integers
    x = local_piece((0, 0, 0), (1, 0, 0), (-1, 0, 0))
    y = local_piece((0, 1, 0), (1, 0, 0), (-1, 0, 0))
    assert box_distance_squared(x, y) == 4
    assert sum(box2 == 4 for box2, _ in decided.values()) == 21

