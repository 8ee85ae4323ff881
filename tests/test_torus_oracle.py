"""Torus knots against their closed forms, far beyond the corpus.

The grid with X on the diagonal and O shifted by p is the torus knot
T(p, q) with g = p + q (the corpus's t3_5 is X = 1..8, O = 4..8, 1..3).
Its Alexander polynomial is (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),
`conway_oracle.torus_alexander`, and for p < q its crossing number is
c = min(p(q - 1), q(p - 1)) (Murasugi, Knot Theory and Its Applications,
1996).  T(p, q) is prime, and nonalternating when p >= 3.  So every stage
must keep the closed-form polynomial and pass the paper's bounds in c,
here up to c = 990 (T(31, 33), whose polynomial spans 960).
"""

from dataclasses import replace

import pytest

from conway_oracle import torus_alexander
from knotfold.alexander import alexander, project
from knotfold.bounds import Provenance, certify
from knotfold.grid import GridDiagram, grid_to_planar
from knotfold.pipeline import run_pipeline

TORUS = [(2, 3), (3, 4), (3, 5), (5, 7), (2, 31), (7, 9), (11, 13), (15, 17), (3, 61), (31, 33)]


def torus_grid(p: int, q: int) -> GridDiagram:
    g = p + q
    return GridDiagram(size=g, x_col=tuple(range(1, g + 1)),
                       o_col=tuple((r + p) % g + 1 for r in range(g)))


def test_torus_grid_is_the_corpus_form(corpus):
    t3_5 = next(entry for entry in corpus if entry.name == "t3_5")
    assert torus_grid(3, 5) == t3_5.diagram


@pytest.mark.parametrize("p,q", TORUS, ids=[f"T{p}_{q}" for p, q in TORUS])
def test_every_stage_matches_the_closed_form_and_the_bounds_in_c(p, q):
    diagram = torus_grid(p, q)
    expected = torus_alexander(p, q)
    c = min(p * (q - 1), q * (p - 1))
    assert alexander(grid_to_planar(diagram)) == expected
    result = run_pipeline(diagram)
    assert sorted(result.stages) == [1, 2, 3]
    prov = Provenance(label=f"T{p}_{q}", g=p + q, crossing_number=c, nonalternating_prime=p >= 3)
    for step, stage in result.stages.items():
        assert alexander(project(stage.knot)) == expected, step
        cert = certify(stage.knot, replace(prov, step=step))
        failed = [check.name for check in cert.checks if not check.passed]
        assert cert.passed and not failed, (step, failed)
        if step > 1:
            # the paper's bounds in c apply from step 2 on: (a) at step 2, (b) at step 3
            kind = "nap" if p >= 3 else "general"
            part = "ab"[step - 2]
            checks = {check.name: check.comparison for check in cert.checks}
            assert checks[f"edges_le_len_bound_c{c}"].endswith(f"[thm_len_{kind}_{part}]")
            assert checks[f"rope_le_rop_bound_c{c}"].endswith(f"[thm_rop_{kind}_{part}]")
