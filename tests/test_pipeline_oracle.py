"""run_pipeline against the eager search that folds every candidate.

run_pipeline folds both horizontal sides, ranks the four vertical side
pairs by the totals of their walks over the checked curves and folds only
the ones it keeps; pipeline_oracle folds all six.  Their results must be
equal.  No candidate fails on random
diagrams, so failures are patched into the public folds, the same way
for both, and the two must then keep the same knots or raise the same
error.
"""

import pytest

from knotfold import lattice, pipeline
from knotfold.errors import FoldCollision, KnotfoldError, ReconnectFailure
from knotfold.grid import random_grid
from knotfold.lattice import fold_horizontal, fold_vertical, settle
from knotfold.pipeline import run_pipeline

import pipeline_oracle
from pipeline_oracle import run_pipeline_eager

SIDES = ("high", "low")
PAIRS = [(h, v) for h in SIDES for v in SIDES]


def test_corpus(corpus):
    for entry in corpus:
        for max_step in (1, 2, 3):
            assert run_pipeline(entry.diagram, max_step) == run_pipeline_eager(
                entry.diagram, max_step
            ), entry.name


@pytest.mark.parametrize("g", range(2, 41))
def test_random_grids(g):
    for seed in range(6):
        d = random_grid(g, seed)
        assert run_pipeline(d) == run_pipeline_eager(d), seed
        assert run_pipeline(d, 2) == run_pipeline_eager(d, 2), seed


@pytest.mark.parametrize("g", [48, 64, 128, 129])
def test_large_grids(g):
    for seed in range(3):
        d = random_grid(g, seed)
        assert run_pipeline(d) == run_pipeline_eager(d), seed


@pytest.mark.parametrize("seed", [8, 9])
def test_tie_broken_by_corners_not_by_order(seed):
    # high,high / high,low / low,low tie at step 3, and the second has the
    # least corners: the only such diagrams among g 4..15 and 48, 64, 128
    # with seeds below 40
    d = random_grid(4, seed)
    totals3 = _candidates(d)[1]
    assert totals3[("high", "high")] == totals3[("high", "low")] == min(totals3.values())
    result = run_pipeline(d)
    assert result == run_pipeline_eager(d)
    assert result.stages[3].sides == ("high", "low")


def _outcome(run, d, max_step):
    try:
        return run(d, max_step)
    except KnotfoldError as exc:
        return type(exc), str(exc)


def _same_outcome(d, max_step=3):
    want = _outcome(run_pipeline_eager, d, max_step)
    assert _outcome(run_pipeline, d, max_step) == want
    return want


def _candidates(d):
    """Each candidate's total edges, and the unlowered curve of each horizontal side."""
    g, k1 = d.size, settle(d)
    step2 = {h: fold_horizontal(k1, g, h) for h in SIDES}
    totals2 = {h: step2[h][1].post.total_edges for h in SIDES}
    totals3 = {(h, v): fold_vertical(step2[h][2], g, v)[1].post.total_edges for h, v in PAIRS}
    return totals2, totals3, {h: step2[h][2] for h in SIDES}


def _inject(monkeypatch, d, fail2=(), fail3=()):
    """Make the listed horizontal sides and side pairs fail in both searches."""
    _, _, unlowered = _candidates(d)
    side_of = {k: h for h, k in unlowered.items()}
    assert len(side_of) == 2

    def horizontal(k, g, side):
        if side in fail2:
            raise FoldCollision(f"injected failure of the horizontal fold, side {side}")
        return fold_horizontal(k, g, side)

    def vertical(k, g, side):
        if (side_of[k], side) in fail3:
            raise ReconnectFailure(f"injected failure of side pair {side_of[k]},{side}")
        return fold_vertical(k, g, side)

    for module in (pipeline, pipeline_oracle):
        monkeypatch.setattr(module, "fold_horizontal", horizontal)
        monkeypatch.setattr(module, "fold_vertical", vertical)


DIAGRAMS = [(g, seed) for g in (5, 9, 16, 24, 33) for seed in (1, 2)]


@pytest.mark.parametrize("g, seed", DIAGRAMS)
def test_top_candidate_fails_at_step_2(monkeypatch, g, seed):
    d = random_grid(g, seed)
    best = run_pipeline(d).stages[2].sides[0]
    _inject(monkeypatch, d, fail2={best})
    result = _same_outcome(d)
    assert result.stages[2].sides == ("low" if best == "high" else "high",)
    assert result.stages[3].sides[0] != best
    _same_outcome(d, 2)


@pytest.mark.parametrize("g, seed", DIAGRAMS)
def test_top_candidate_fails_at_step_3(monkeypatch, g, seed):
    d = random_grid(g, seed)
    best = run_pipeline(d).stages[3].sides
    _inject(monkeypatch, d, fail3={best})
    assert _same_outcome(d).stages[3].sides != best


def _tied_groups(limit):
    """(diagram, step, tied candidates) for least-total ties among small random grids."""
    found = []
    for g in range(6, 30):
        for seed in range(10):
            d = random_grid(g, seed)
            totals2, totals3, _ = _candidates(d)
            for step, totals in ((2, totals2), (3, totals3)):
                least = min(totals.values())
                tied = [c for c, t in totals.items() if t == least]
                if len(tied) > 1 and len(found) < limit:
                    found.append((d, step, tied))
    return found


@pytest.mark.parametrize("d, step, tied", _tied_groups(8))
def test_one_member_of_a_tied_group_fails(monkeypatch, d, step, tied):
    winner = run_pipeline(d).stages[step].sides
    winner = winner[0] if step == 2 else winner
    assert winner in tied
    for member in tied:
        with monkeypatch.context() as patch:
            if step == 2:
                _inject(patch, d, fail2={member})
            else:
                _inject(patch, d, fail3={member})
            result = _same_outcome(d)
            kept = result.stages[step].sides
            assert (kept[0] if step == 2 else kept) != member


@pytest.mark.parametrize("g, seed", DIAGRAMS)
def test_every_candidate_fails(monkeypatch, g, seed):
    d = random_grid(g, seed)
    with monkeypatch.context() as patch:
        _inject(patch, d, fail2=set(SIDES))
        assert _same_outcome(d) == (
            FoldCollision, "injected failure of the horizontal fold, side high"
        )
        assert _same_outcome(d, 2)[0] is FoldCollision
    with monkeypatch.context() as patch:
        _inject(patch, d, fail3=set(PAIRS))
        assert _same_outcome(d) == (ReconnectFailure, "injected failure of side pair high,high")
    for h in SIDES:
        # the other horizontal side fails at step 2 and every pair of this
        # one at step 3: the step-2 failure is raised, as it came first
        with monkeypatch.context() as patch:
            other = "low" if h == "high" else "high"
            _inject(patch, d, fail2={other}, fail3={(h, v) for v in SIDES})
            assert _same_outcome(d) == (
                FoldCollision, f"injected failure of the horizontal fold, side {other}"
            )


@pytest.mark.parametrize("g, seed", DIAGRAMS)
@pytest.mark.parametrize("h_fails", [True, False])
def test_walk_of_an_unchecked_curve_raises(monkeypatch, g, seed, h_fails):
    # the vertical walk of one horizontal side's curve raises ValueError.
    # Both searches walk a curve only once fold_horizontal has returned it,
    # so a side whose fold failed is never walked, and a side that passed
    # raises the walk's error from both
    d = random_grid(g, seed)
    _, _, unlowered = _candidates(d)
    h = run_pipeline(d).stages[3].sides[0]
    bad = unlowered[h]
    if h_fails:
        _inject(monkeypatch, d, fail2={h})
    walk = lattice._fold_walk

    def failing_walk(k, axis, *args):
        if axis == 1 and k == bad:
            raise ValueError("injected: this curve does not walk")
        return walk(k, axis, *args)

    # the step-3 ranking and fold_vertical both walk through this one function
    monkeypatch.setattr(lattice, "_fold_walk", failing_walk)
    if h_fails:
        assert _same_outcome(d).stages[3].sides[0] != h
    else:
        with pytest.raises(ValueError, match="injected"):
            run_pipeline_eager(d)
        with pytest.raises(ValueError, match="injected"):
            run_pipeline(d)


@pytest.mark.parametrize("g, seed", DIAGRAMS)
def test_step_3_walks_only_checked_curves(monkeypatch, g, seed):
    folded, walked = [], []

    def horizontal(k, g, side):
        folded.append((side, fold_horizontal(k, g, side)))
        return folded[-1][1]

    walk = lattice._fold_walk

    def recording_walk(k, axis, *args):
        if axis == 1:
            walked.append(k)
        return walk(k, axis, *args)

    monkeypatch.setattr(pipeline, "fold_horizontal", horizontal)
    monkeypatch.setattr(lattice, "_fold_walk", recording_walk)
    run_pipeline(random_grid(g, seed))
    assert [side for side, _ in folded] == list(SIDES)
    checked = [result[2] for _, result in folded]
    assert walked and all(any(k is u for u in checked) for k in walked)
