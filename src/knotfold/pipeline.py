"""Orchestration: run the settle/fold pipeline on a grid diagram.

The fold directions are degrees of freedom: the horizontal fold can carry
either half, likewise the vertical one.  Each fold's counting argument is
guaranteed for a favorable half only, so the pipeline weighs both sides
of the horizontal fold and, for each, both sides of the vertical one, and
reports the step-2 and step-3 results with minimum total edges (ties
broken by the canonical corner list).  Each vertical fold starts from the
horizontal fold's curve as it was before the crease sticks were lowered.

Both horizontal sides are folded and checked.  A vertical candidate's
total edges follow exactly from the walk of its fold over that checked
curve: the curve's edges, less the doubled edges removed, plus six per
bridge.  So the four side pairs are ranked by that total and only then
folded and checked, lowest total first, until one of them gives a valid
knot; candidates that tie are all folded, so the tie is broken by their
canonical corners.  The result is the one a search that folds all six
candidates would give.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FoldCollision, ReconnectFailure
from .grid import GridDiagram
from .lattice import (
    EdgeCensus,
    FoldReport,
    LatticeKnot,
    _vertical_delta,
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


def run_pipeline(d: GridDiagram, max_step: int = 3) -> PipelineResult:
    """Settle and fold, searching fold sides for the shortest valid result."""
    if max_step not in (1, 2, 3):
        raise ValueError(f"max_step must be 1, 2 or 3, not {max_step}")
    g = d.size
    k1 = settle(d)
    stages = {1: Stage(1, k1, edge_census(k1), None, ())}
    if max_step == 1:
        return PipelineResult(d, g, stages)

    step2 = {}  # side -> fold_horizontal's (knot, report, unlowered curve)
    errors = []  # the fold failures, in the order the folds were tried
    for side in SIDES:
        try:
            step2[side] = fold_horizontal(k1, g, side)
        except (FoldCollision, ReconnectFailure) as exc:
            errors.append(exc)
    if not step2:
        raise errors[0]
    best2 = min(step2, key=lambda s: (step2[s][1].post.total_edges, step2[s][0].corners))
    k2, r2, _ = step2[best2]
    stages[2] = Stage(2, k2, r2.post, r2, (best2,))
    if max_step == 2:
        return PipelineResult(d, g, stages)

    totals = {}  # side pair -> its total edges, in (h, v) order
    for h, (_, _, u) in step2.items():
        pre = edge_census(u).total_edges
        for v in SIDES:
            totals[h, v] = pre + _vertical_delta(u, g, v)
    failures = {}  # side pair -> the fold failure it raised
    for total in sorted(set(totals.values())):
        folds = {}
        for (h, v), t in totals.items():
            if t == total:
                try:
                    folds[h, v] = fold_vertical(step2[h][2], g, v)
                except (FoldCollision, ReconnectFailure) as exc:
                    failures[h, v] = exc
        if folds:
            best3 = min(folds, key=lambda c: folds[c][0].corners)
            k3, r3 = folds[best3]
            stages[3] = Stage(3, k3, r3.post, r3, best3)
            return PipelineResult(d, g, stages)
    # every candidate failed; the search that folds them all meets the
    # step-2 failures first, then those of step 3 in (h, v) order
    raise (errors + [failures[c] for c in totals])[0]
