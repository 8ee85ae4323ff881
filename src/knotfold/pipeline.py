"""Orchestration: run the settle/fold pipeline on a grid diagram.

The fold directions are degrees of freedom: the horizontal fold can carry
either half, likewise the vertical one.  Each fold's counting argument is
guaranteed for a favorable half only, so the pipeline weighs both sides
of the horizontal fold and, for each, both sides of the vertical one, and
reports the step-2 and step-3 results with minimum total edges (ties
broken by the canonical corner list).  Each vertical fold starts from the
horizontal fold's curve as it was before the crease sticks were lowered.

A candidate's total edges follow exactly from the unchecked walk of its
fold: the input's edges, less the doubled edges removed and the z-edges
the lowering saves, plus six per bridge.  So the candidates are ranked by
that total and only then folded and checked, lowest total first, until
one of them gives a valid knot; candidates that tie are all folded, so
the tie is broken by their canonical corners.  The result is the one a
search that folds all six candidates would give, usually from two or
three folds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FoldCollision, KnotfoldError, ReconnectFailure
from .grid import GridDiagram
from .lattice import (
    EdgeCensus,
    FoldReport,
    LatticeKnot,
    _unchecked_fold,
    canonicalize,
    edge_census,
    fold_horizontal,
    fold_vertical,
    settle,
)

SIDES = ("high", "low")


@dataclass(frozen=True)
class Stage:
    step: int
    knot: LatticeKnot
    census: EdgeCensus
    report: FoldReport | None
    sides: tuple[str, ...]


@dataclass(frozen=True)
class PipelineResult:
    diagram: GridDiagram
    g: int
    stages: dict[int, Stage]


def _pick(candidates, totals, fold):
    """The candidate of least (total edges, corners) that folds, with its fold.

    ``candidates`` come in the order a search that folds every one of them
    goes through; totals[c] is c's total edges from its walk, or None when
    the walk failed.  fold(c) returns a tuple whose first two items are
    the knot and its FoldReport, or None when c fails.  A candidate whose
    walk failed is folded first, so that it raises what the full search
    would; then each group of equal totals is folded in full, lowest total
    first, until a group has a knot.  Returns None when none has.
    """
    totals = dict(totals)
    done = {}
    for c in candidates:
        if totals[c] is None:
            done[c] = fold(c)
            if done[c] is not None:
                totals[c] = done[c][1].post.total_edges
    for total in sorted({t for t in totals.values() if t is not None}):
        group = [c for c in candidates if totals[c] == total]
        for c in group:
            if c not in done:
                done[c] = fold(c)
        passed = [c for c in group if done[c] is not None]
        if passed:
            best = min(passed, key=lambda c: done[c][0].corners)
            return best, done[best]
    return None


def run_pipeline(d: GridDiagram, max_step: int = 3) -> PipelineResult:
    """Settle and fold, searching fold sides for the shortest valid result."""
    if max_step not in (1, 2, 3):
        raise ValueError(f"max_step must be 1, 2 or 3, not {max_step}")
    g = d.size
    k1 = settle(d)
    stages = {1: Stage(1, k1, edge_census(k1), None, ())}
    if max_step == 1:
        return PipelineResult(d, g, stages)
    pre = stages[1].census.total_edges

    totals2: dict[str, int | None] = dict.fromkeys(SIDES)  # None: the walk failed
    turned2 = {}  # side -> (corner cycle before the lowering, its total edges)
    for side in SIDES:
        try:
            corners, turned, total = _unchecked_fold(k1, g, 0, side)
        except ValueError:
            continue
        totals2[side] = pre + total
        turned2[side] = (corners, pre + turned)

    failures: dict = {}  # candidate -> the fold failure it raised
    folds2: dict[str, tuple | None] = {}  # side -> fold_horizontal's result

    def horizontal(side):
        if side not in folds2:
            try:
                folds2[side] = fold_horizontal(k1, g, side)
            except (FoldCollision, ReconnectFailure) as exc:
                folds2[side] = None
                failures[side] = exc
        return folds2[side]

    def first_failure(order):
        return next(failures[c] for c in order if c in failures)

    picked = _pick(SIDES, totals2, horizontal)
    if picked is None:
        raise first_failure(SIDES)
    best2_side, (k2, r2, _) = picked
    stages[2] = Stage(2, k2, r2.post, r2, (best2_side,))
    if max_step == 2:
        return PipelineResult(d, g, stages)

    candidates = [(h, v) for h in SIDES for v in SIDES]
    totals3: dict[tuple[str, str], int | None] = dict.fromkeys(candidates)
    for h_side, (corners, turned_total) in turned2.items():
        try:
            # the curve fold_horizontal returns, and fold_vertical folds
            unlowered = canonicalize(LatticeKnot(corners))
            for v_side in SIDES:
                total = _unchecked_fold(unlowered, g, 1, v_side)[2]
                totals3[(h_side, v_side)] = turned_total + total
        except (ValueError, KnotfoldError):
            # an unchecked curve need not walk; fold_horizontal decides first
            pass

    def vertical(c):
        step2 = horizontal(c[0])
        if step2 is None:
            return None
        try:
            return fold_vertical(step2[2], g, c[1])
        except (FoldCollision, ReconnectFailure) as exc:
            failures[c] = exc
            return None

    picked = _pick(candidates, totals3, vertical)
    if picked is None:
        # the eager search met the failures of step 2 before those of step 3
        raise first_failure((*SIDES, *candidates))
    best3, (k3, r3) = picked
    stages[3] = Stage(3, k3, r3.post, r3, best3)
    return PipelineResult(d, g, stages)
