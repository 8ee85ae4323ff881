import tracemalloc
from fractions import Fraction

from knotfold.bounds import Provenance, certify, step_bound
from knotfold.grid import parse_grid, random_grid
from knotfold.lattice import validate_lattice
from knotfold.pipeline import run_pipeline


def test_prefix_steps():
    d = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    assert set(run_pipeline(d, max_step=1).stages) == {1}
    assert set(run_pipeline(d, max_step=2).stages) == {1, 2}
    assert set(run_pipeline(d, max_step=3).stages) == {1, 2, 3}


def test_deterministic():
    d = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    a = run_pipeline(d)
    b = run_pipeline(d)
    for step in (1, 2, 3):
        assert a.stages[step].knot == b.stages[step].knot
        assert a.stages[step].sides == b.stages[step].sides


def test_side_metadata():
    d = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    res = run_pipeline(d)
    assert res.stages[1].sides == ()
    assert res.stages[2].sides[0] in ("high", "low")
    assert len(res.stages[3].sides) == 2


def test_corpus_validity_and_bounds(corpus_pipelines):
    for entry, res in corpus_pipelines:
        g = entry.g
        for step in (1, 2, 3):
            stage = res.stages[step]
            assert validate_lattice(stage.knot).ok, (entry.name, step)
            assert Fraction(stage.census.total_edges) <= step_bound(step, g).value, (
                entry.name,
                step,
            )


def test_corpus_certificates_pass(corpus_pipelines):
    for entry, res in corpus_pipelines:
        for step in (1, 2, 3):
            cert = certify(
                res.stages[step].knot,
                Provenance(
                    label=entry.name,
                    g=entry.g,
                    step=step,
                    crossing_number=entry.crossing_number,
                    nonalternating_prime=entry.nonalternating_prime,
                    known_minimum_edges=entry.known_minimum_edges,
                ),
            )
            assert cert.passed, (entry.name, step, cert.render_text())


def test_random_suite_validity_and_bounds(pipelines200):
    for g, seed, res in pipelines200:
        for step in (1, 2, 3):
            stage = res.stages[step]
            assert validate_lattice(stage.knot).ok, (g, seed, step)
            assert Fraction(stage.census.total_edges) <= step_bound(step, g).value, (
                g,
                seed,
                step,
            )


def test_memory_grows_with_corners():
    # a step-1 knot has 4g corners but up to g^2 + 2g unit edges, so a
    # pipeline that never expands unit points needs about twice the memory
    # at twice g, not four times
    def peak(g):
        d = random_grid(g, 1)
        tracemalloc.start()
        try:
            run_pipeline(d)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) < 3 * peak(512)
