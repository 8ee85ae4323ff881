"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time
from fractions import Fraction

import pytest

from conway_oracle import alexander_via_conway
from knotfold.alexander import alexander, project, same_knot_certificate
from knotfold.bounds import (
    Provenance,
    certify,
    comparator_bounds,
    rop_step_bound,
    smooth_length_exact,
    step_bound,
    theorem_len_bound,
    theorem_rop_bound,
    theorem_rop_decimal,
)
from knotfold.cli import main
from knotfold.grid import grid_to_planar, random_grid
from knotfold.lattice import validate_lattice
from knotfold.laurent import LaurentPoly
from knotfold.pipeline import run_pipeline
from knotfold.rope import rope_metrics, smooth


class criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {verdict} [{self.elapsed:.2f}s]")
        return False


def test_criterion_1_trefoil_bound_chain(corpus):
    with criterion(1, "trefoil bound chain") as c:
        entry = next(e for e in corpus if e.name == "3_1")
        res = run_pipeline(entry.diagram)
        limits = {1: 34, 2: 26, 3: 37}
        for step, limit in limits.items():
            stage = res.stages[step]
            assert validate_lattice(stage.knot).ok
            assert stage.census.total_edges <= limit, (step, stage.census.total_edges)
            assert stage.census.total_edges >= 24, (step, stage.census.total_edges)
        tb = theorem_len_bound(3)
        assert tb.value == Fraction(26)
        cert = certify(
            res.stages[2].knot,
            Provenance(label="3_1", g=5, step=2, crossing_number=3, known_minimum_edges=24),
        )
        assert cert.passed
        assert c.elapsed < 1.0


def test_criterion_2_known_minima(corpus):
    for name, g, crossings, minimum in (("4_1", 6, 4, 30), ("5_1", 7, 5, 34)):
        with criterion(2, f"known minimum {name}") as c:
            entry = next(e for e in corpus if e.name == name)
            assert entry.g == g
            res = run_pipeline(entry.diagram)
            tb = theorem_len_bound(crossings)
            best = min(res.stages[s].census.total_edges for s in (1, 2, 3))
            for step in (1, 2, 3):
                assert res.stages[step].census.total_edges >= minimum
            assert Fraction(best) <= tb.value
            assert c.elapsed < 1.0


def test_criterion_3_formula_suite():
    with criterion(3, "formula suite"):
        from test_bounds import STEP_TABLE, THEOREM_TABLE

        for step, table in STEP_TABLE.items():
            for g, expected in table.items():
                assert step_bound(step, g).value == Fraction(expected)
        for c, (ga, gb, na, nb) in THEOREM_TABLE.items():
            tb = theorem_len_bound(c)
            nb_ = theorem_len_bound(c, nonalternating_prime=True)
            assert (tb.form_a.value, tb.form_b.value) == (ga, gb)
            assert (nb_.form_a.value, nb_.form_b.value) == (na, nb)
        # min-form crossover sits between c=21 and c=22: root 10 + sqrt(137)
        root = 10 + math.sqrt(137)
        assert 21 < root < 22
        assert theorem_len_bound(21).chosen == "a"
        assert theorem_len_bound(22).chosen == "b"


def test_criterion_4_ropelength_identity_and_bounds(corpus_pipelines, pipelines200):
    with criterion(4, "ropelength identity and bounds") as c:
        runs = [(e.g, e.name, res) for e, res in corpus_pipelines]
        runs += [(g, f"g{g}s{seed}", res) for g, seed, res in pipelines200]
        for g, label, res in runs:
            for step in (1, 2, 3):
                stage = res.stages[step]
                census = stage.census
                m = rope_metrics(smooth(stage.knot))
                closed = 2 * census.total_edges - (2 - math.pi / 2) * census.corners
                assert abs(m.length - closed) <= 1e-12 * max(1.0, closed), (label, step)
                assert m.length_exact == smooth_length_exact(census), (label, step)
                bound = rop_step_bound(step, g).value
                assert m.length_exact.le(bound), (label, step)
                assert m.length_exact.le(Fraction(2 * census.total_edges)), (label, step)
        dec_a, _ = theorem_rop_decimal(3)
        assert dec_a == Fraction(4774, 100)  # 47.74 exactly
        assert theorem_rop_bound(3).form_a.value.le(dec_a)
        assert c.elapsed < 30.0


def test_criterion_5_thickness(corpus_pipelines, pipelines200):
    with criterion(5, "unit thickness") as c:
        runs = [(e.name, res) for e, res in corpus_pipelines]
        runs += [(f"g{g}s{seed}", res) for g, seed, res in pipelines200]
        for label, res in runs:
            for step in (1, 2, 3):
                m = rope_metrics(smooth(res.stages[step].knot))
                assert m.thickness_radius == 1.0, (label, step)
        assert c.elapsed < 60.0


def test_criterion_6_knot_type_preservation(corpus_pipelines):
    with criterion(6, "knot-type preservation") as c:
        published = {
            "3_1": LaurentPoly({-1: 1, 0: -1, 1: 1}),
            "4_1": LaurentPoly({-1: -1, 0: 3, 1: -1}),
            "5_1": LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}),
        }
        for entry, res in corpus_pipelines:
            pd = grid_to_planar(entry.diagram)
            base = alexander(pd)
            assert base == entry.alexander.normalize(), entry.name
            if entry.name in published:
                assert base == published[entry.name], entry.name
            if pd.crossing_count <= 8:
                assert alexander_via_conway(pd) == base, entry.name
            for step in (1, 2, 3):
                poly = alexander(project(res.stages[step].knot))
                assert same_knot_certificate(base, poly) == "consistent", (entry.name, step)
        sizes = list(range(3, 11))
        inconsistencies = 0
        for idx in range(500):
            g = sizes[idx % len(sizes)]
            seed = 2000 + idx
            d = random_grid(g, seed)
            res = run_pipeline(d)
            base = alexander(grid_to_planar(d))
            for step in (1, 2, 3):
                poly = alexander(project(res.stages[step].knot))
                if same_knot_certificate(base, poly) != "consistent":
                    inconsistencies += 1
        assert inconsistencies == 0
        assert c.elapsed < 300.0


def test_criterion_7_corner_floors(corpus_pipelines, pipelines200):
    with criterion(7, "corner count floors"):
        runs = [(e.g, e.name, res) for e, res in corpus_pipelines]
        runs += [(g, f"g{g}s{seed}", res) for g, seed, res in pipelines200]
        for g, label, res in runs:
            assert res.stages[1].census.corners == 4 * g, label
            assert res.stages[2].census.corners >= 2 * g, label
            assert res.stages[3].census.corners >= g, label


def test_criterion_8_comparator_dominance(capsys):
    with criterion(8, "comparator dominance"):
        ours100 = theorem_rop_bound(100).form_a.value
        cant100 = next(
            b.value for b in comparator_bounds(100) if b.formula_id == "cantarella_rop"
        )
        assert float(ours100) < float(cant100)
        for c in range(3, 61):
            ours = float(theorem_rop_bound(c).form_a.value)
            diao = next(b.value for b in comparator_bounds(c) if b.formula_id == "diao_rop")
            assert ours < diao, c
        code = main(["table", "--table", "c=3..100"])
        out = capsys.readouterr().out
        assert code == 0
        rows = {int(line.split("\t")[0]): line.split("\t") for line in out.splitlines()[1:]}
        for c in (3, 10, 100):
            cells = rows[c]
            assert abs(float(cells[3]) - float(theorem_rop_bound(c).value)) < 1e-6
            assert cells[1] == str(theorem_len_bound(c).value)
        assert float(rows[100][3]) < float(rows[100][7])  # rop_general < cantarella
