"""The fold-side search as it was: every candidate folded and checked.

A reference for ``knotfold.pipeline.run_pipeline``, which folds both
horizontal sides too, but ranks the four vertical side pairs by the exact
totals of their walks and folds only the ones it keeps.  This one folds
both sides of the horizontal fold and all four side pairs of the vertical
one, keeps every candidate that validates and takes the least (total
edges, canonical corners) at each step.  Both must give equal results, and the same error when every
candidate fails.  It calls the same public folds, through its own names,
so a test can patch a failure into both.
"""

from __future__ import annotations

from knotfold.errors import FoldCollision, KnotfoldError, ReconnectFailure
from knotfold.grid import GridDiagram
from knotfold.lattice import (
    FoldReport,
    LatticeKnot,
    edge_census,
    fold_horizontal,
    fold_vertical,
    settle,
)
from knotfold.pipeline import PipelineResult, Stage


def run_pipeline_eager(d: GridDiagram, max_step: int = 3) -> PipelineResult:
    """Settle and fold, searching fold sides for the shortest valid result."""
    if max_step not in (1, 2, 3):
        raise ValueError(f"max_step must be 1, 2 or 3, not {max_step}")
    g = d.size
    k1 = settle(d)
    stages = {1: Stage(1, k1, edge_census(k1), None, ())}
    if max_step == 1:
        return PipelineResult(d, g, stages)

    def keyfn(entry):
        knot, report = entry[0], entry[1]
        return (report.post.total_edges, knot.corners)

    step2: dict[str, tuple[LatticeKnot, FoldReport, LatticeKnot]] = {}
    errors: list[KnotfoldError] = []
    for side in ("high", "low"):
        try:
            step2[side] = fold_horizontal(k1, g, side)
        except (FoldCollision, ReconnectFailure) as exc:
            errors.append(exc)
    if not step2:
        raise errors[0]
    best2_side = min(step2, key=lambda s: keyfn(step2[s]))
    k2, r2, _ = step2[best2_side]
    stages[2] = Stage(2, k2, r2.post, r2, (best2_side,))
    if max_step == 2:
        return PipelineResult(d, g, stages)

    step3: dict[tuple[str, str], tuple[LatticeKnot, FoldReport]] = {}
    for h_side, (_k2, _r2, unlowered) in step2.items():
        for v_side in ("high", "low"):
            try:
                step3[(h_side, v_side)] = fold_vertical(unlowered, g, v_side)
            except (FoldCollision, ReconnectFailure) as exc:
                errors.append(exc)
    if not step3:
        raise errors[0]
    best3 = min(step3, key=lambda s: keyfn(step3[s]))
    k3, r3 = step3[best3]
    stages[3] = Stage(3, k3, r3.post, r3, best3)
    return PipelineResult(d, g, stages)
