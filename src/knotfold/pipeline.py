"""Orchestration: run the settle/fold pipeline on a grid diagram.

The fold directions are degrees of freedom: the horizontal fold can carry
either half, likewise the vertical one.  Each fold's counting argument is
guaranteed for a favorable half only, so the pipeline tries all four
side combinations, keeps every candidate that validates, and reports the
step-2 and step-3 results with minimum total edges (ties broken by the
canonical corner list).  Each vertical fold starts from the horizontal
fold's curve as it was before the crease sticks were lowered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FoldCollision, KnotfoldError, ReconnectFailure
from .grid import GridDiagram
from .lattice import (
    EdgeCensus,
    FoldReport,
    LatticeKnot,
    edge_census,
    fold_horizontal,
    fold_vertical,
    settle,
)


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
