import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from knotfold.alexander import project
from knotfold.bounds import theorem_len_bound, theorem_rop_bound
from knotfold import cli
from knotfold.cli import main
from knotfold.diagram import PlanarDiagram, r1_reduced_code
from knotfold.grid import random_grid, serialize_grid
from knotfold.lattice import parse_lattice


SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
# 200 bytes that are not UTF-8: they start with 0xff, a byte UTF-8 never uses
NOT_UTF8 = bytes(range(255, 55, -1))


def set_header_field(path, key, value):
    """Rewrite one provenance field of a built lattice file, text or JSON."""
    if path.suffix == ".json":
        blob = json.loads(path.read_text())
        blob["provenance"][key] = value
        path.write_text(json.dumps(blob))
        return
    lines = path.read_text().splitlines()
    if not any(line.startswith(f"# {key}:") for line in lines):
        lines.insert(1, f"# {key}: {value}")
    path.write_text("\n".join(
        f"# {key}: {value}" if line.startswith(f"# {key}:") else line for line in lines
    ) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_corpus_trefoil_full(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "build", "--corpus", "trefoil", "--out", str(out))
        assert code == 0
        assert "3_1:" in stdout
        names = {p.name for p in out.iterdir()}
        assert names == {
            "3_1.step1.txt", "3_1.step1.json",
            "3_1.step2.txt", "3_1.step2.json",
            "3_1.step3.txt", "3_1.step3.json",
            "3_1.reports.txt",
        }

    def test_random_build_counts_and_seeds(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(
            capsys, "build", "--random", "g=7,seed=1,count=10", "--steps", "1-2",
            "--out", str(out),
        )
        assert code == 0
        lattice_files = [p for p in out.iterdir() if ".step" in p.name and p.suffix == ".txt"]
        assert len(lattice_files) == 20
        for seed in range(1, 11):
            assert (out / f"random_g7_s{seed}.step1.txt").exists()

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("X: 1,1\nO: 2,2\n")
        code, _, stderr = run(capsys, "build", "--input", str(bad))
        assert code == 2
        assert "NotAPermutation" in stderr

    def test_input_not_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_bytes(NOT_UTF8)
        code, _, stderr = run(capsys, "build", "--input", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: MalformedInput" in stderr and str(bad) in stderr

    def test_no_inputs_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "build", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "no inputs" in stderr

    def test_deterministic_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "build", "--corpus", "4_1", "--out", str(a))
        run(capsys, "build", "--corpus", "4_1", "--out", str(b))
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()


class TestCertify:
    def test_full_corpus_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "certify", "--corpus", "all", "--out", str(out))
        assert code == 0
        assert "FAIL" not in stdout
        blob = json.loads((out / "3_1.cert.json").read_text())
        assert len(blob) == 3
        assert all(cert["passed"] for cert in blob)
        names = {c["name"] for cert in blob for c in cert["checks"]}
        assert "alexander_preserved" in names
        assert "alexander_matches_corpus" in names

    def test_corrupted_lattice_fails_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(capsys, "build", "--corpus", "trefoil", "--steps", "1", "--out", str(out))
        artifact = out / "3_1.step1.txt"
        lines = artifact.read_text().splitlines()
        # hand-edit one corner to force a self-intersection
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                lines[i + 1] = lines[i]  # duplicate a corner position
                break
        artifact.write_text("\n".join(lines) + "\n")
        code, stdout, _ = run(capsys, "certify", "--lattice", str(artifact), "--out", str(out))
        assert code == 1
        assert "FAIL" in stdout

    def test_non_object_provenance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": SQUARE, "provenance": 5}))
        code, _, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr

    @pytest.mark.parametrize(
        "corners",
        [
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [[0.5, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
            [[0, 0, 0, 5], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
            [[True, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
        ],
    )
    def test_corners_not_integer_triples_exit_2(self, tmp_path, capsys, corners):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": corners}))
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize(
        "content",
        [
            NOT_UTF8,
            b'{"corners": [[' + b"1" * 4301 + b", 0, 0]]}",
            b'{"corners": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_unreadable_lattice_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "k.json"
        path.write_bytes(content)
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "error: MalformedInput" in stderr
        assert "PASS" not in stdout

    def test_corner_beyond_bound_exit_2(self, tmp_path, capsys):
        far = 2**50 + 1
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": [[0, 0, 0], [far, 0, 0], [far, 1, 0], [0, 1, 0]]}))
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr and "2**50" in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize("key", ["g", "step", "crossing_number", "known_minimum_edges"])
    @pytest.mark.parametrize("value", ["x", 2.5, None, True])
    def test_non_integer_provenance_json_exit_2(self, tmp_path, capsys, key, value):
        prov = {"g": 2, "step": 1, key: value}
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": SQUARE, "provenance": prov}))
        code, _, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr and key in stderr

    @pytest.mark.parametrize("key", ["g", "step", "crossing_number", "known_minimum_edges"])
    def test_non_integer_provenance_text_exit_2(self, tmp_path, capsys, key):
        prov = {"g": "2", "step": "1", key: "x"}
        path = tmp_path / "k.txt"
        header = "".join(f"# {k}: {v}\n" for k, v in prov.items())
        path.write_text(header + "".join(f"{x} {y} {z}\n" for x, y, z in SQUARE))
        code, _, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr and key in stderr

    @pytest.mark.parametrize("step", [0, 4, 7, -1])
    def test_step_out_of_range_exit_2(self, tmp_path, capsys, step):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": SQUARE, "provenance": {"g": 2, "step": step}}))
        code, stdout, stderr = run(
            capsys, "certify", "--lattice", str(path), "--out", str(tmp_path)
        )
        assert code == 2
        assert "MalformedInput" in stderr and "step" in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize("g", [0, 1, -3])
    def test_g_too_small_exit_2(self, tmp_path, capsys, g):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": SQUARE, "provenance": {"g": g, "step": 1}}))
        code, stdout, stderr = run(
            capsys, "certify", "--lattice", str(path), "--out", str(tmp_path)
        )
        assert code == 2
        assert "SizeTooSmall" in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize("length", [10**6, 2**40])
    def test_long_rectangle_validates_in_constant_memory(self, tmp_path, capsys, length):
        # a file of under 100 bytes; its sticks are checked as intervals,
        # never expanded into unit points
        corners = [[0, 0, 0], [length, 0, 0], [length, 1, 0], [0, 1, 0]]
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": corners, "provenance": {"g": 2, "step": 1}}))
        tracemalloc.start()
        try:
            code, stdout, _ = run(
                capsys, "certify", "--lattice", str(path), "--out", str(tmp_path)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1  # the step-1 edge bound fails
        assert "[PASS] lattice_valid" in stdout
        assert "[FAIL] edges_le_step1_bound" in stdout
        assert peak < 5 * 2**20

    def test_clean_lattice_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(capsys, "certify", "--corpus", "5_1", "--out", str(out))
        run(capsys, "build", "--corpus", "5_1", "--out", str(out))
        code, stdout, _ = run(
            capsys, "certify",
            "--lattice", str(out / "5_1.step2.txt"),
            "--lattice", str(out / "5_1.step3.txt"),
            "--out", str(out),
        )
        assert code == 0
        assert "FAIL" not in stdout

    @pytest.mark.parametrize(
        "form,flag",
        [("json", True), ("json", "yes"), ("txt", "yes")],
        ids=["json-bool", "json-yes", "text-yes"],
    )
    def test_nonalternating_prime_other_than_true_exit_2(self, tmp_path, capsys, form, flag):
        # t3_5 is nonalternating and prime; a flag the reader does not know
        # must not fall back to the looser general bound
        out = tmp_path / "o"
        run(capsys, "build", "--corpus", "t3_5", "--out", str(out))
        path = out / f"t3_5.step3.{form}"
        code, stdout, _ = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
        assert code == 0 and "[thm_len_nap_b]" in stdout
        if form == "json":
            blob = json.loads(path.read_text())
            blob["provenance"]["nonalternating_prime"] = flag
            path.write_text(json.dumps(blob))
        else:
            text = path.read_text()
            assert "# nonalternating_prime: true\n" in text
            path.write_text(text.replace("# nonalternating_prime: true", f"# nonalternating_prime: {flag}"))
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
        assert code == 2
        assert "MalformedInput" in stderr and "nonalternating_prime" in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize("form", ["txt", "json"])
    @pytest.mark.parametrize(
        "key,value,why",
        [
            ("crossing_number", 100000, "disagrees with corpus entry 3_1: crossing_number 100000"),
            ("known_minimum_edges", -5, "known_minimum_edges -5 is below 24"),
            ("known_minimum_edges", 23, "known_minimum_edges 23 is below 24"),
            ("g", 9, "disagrees with corpus entry 3_1: g 9"),
            ("nonalternating_prime", "true", "nonalternating_prime True (corpus False)"),
        ],
        ids=["crossing_number", "negative_minimum", "minimum_23", "g", "nonalternating_prime"],
    )
    def test_false_header_claim_exit_2(self, tmp_path, capsys, form, key, value, why):
        # each edit loosens a bound or a check, and each used to pass every line
        out = tmp_path / "o"
        run(capsys, "build", "--corpus", "3_1", "--out", str(out))
        path = out / f"3_1.step3.{form}"
        set_header_field(path, key, value)
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
        assert code == 2
        assert "MalformedInput" in stderr and why in stderr
        assert "PASS" not in stdout

    @pytest.mark.parametrize("crossings,known,floor", [(3, 12, 24), (None, -1, 0)])
    def test_impossible_known_minimum_outside_the_corpus_exit_2(self, tmp_path, capsys, crossings,
                                                                 known, floor):
        # a nontrivial lattice knot has at least 24 edges, and any knot at least 0
        prov = {"source": "mine", "g": 5, "step": 3, "known_minimum_edges": known}
        if crossings is not None:
            prov["crossing_number"] = crossings
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"corners": SQUARE, "provenance": prov}))
        code, _, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "MalformedInput" in stderr and f"known_minimum_edges {known} is below {floor}" in stderr

    def test_input_named_like_a_corpus_knot_is_not_refused(self, tmp_path, capsys):
        # only --corpus writes crossing_number, nonalternating_prime and
        # known_minimum_edges; an --input file records its own g under the
        # source its name gives, here 3_1 with g = 6 against the corpus's 5
        grid = tmp_path / "3_1.grid"
        grid.write_text(serialize_grid(random_grid(6, 1)))
        out = tmp_path / "o"
        assert run(capsys, "build", "--input", str(grid), "--out", str(out))[0] == 0
        for form in ("txt", "json"):
            path = out / f"3_1.step3.{form}"
            code, stdout, _ = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
            assert code == 0, form
            assert "certificate 3_1 step 3" in stdout and "FAIL" not in stdout

    def test_lattice_headers_certify_as_their_stage(self, tmp_path, capsys):
        # every step file, text and JSON, certifies from its header alone as
        # its stage did in certify --corpus, less the Alexander checks
        out = tmp_path / "o"
        assert run(capsys, "build", "--corpus", "all", "--out", str(out))[0] == 0
        assert run(capsys, "certify", "--corpus", "all", "--out", str(out))[0] == 0
        files = sorted(out.glob("*.step*.txt")) + sorted(out.glob("*.step*.json"))
        assert len(files) == 48
        for path in files:
            label, step = path.name.split(".")[:2]
            blocks = (out / f"{label}.cert.txt").read_text().split("certificate ")[1:]
            block = next(b for b in blocks if b.startswith(f"{label} {step[:4]} {step[4:]}\n"))
            want = [line for line in ("certificate " + block).splitlines()
                    if not line.startswith("  [PASS] alexander_")]
            code, stdout, _ = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
            assert code == 0, path.name
            assert stdout.splitlines() == want, path.name

    def test_crossing_number_above_the_reduced_projection_exit_2(self, tmp_path, capsys):
        # outside the corpus the header's crossing_number is refuted only by
        # a diagram of the knot with fewer crossings: its R1-reduced projection
        out = tmp_path / "o"
        assert run(capsys, "build", "--random", "g=12,seed=1,count=1", "--out", str(out))[0] == 0
        path = out / "random_g12_s1.step3.txt"
        knot, _ = parse_lattice(path.read_text())
        count = len(r1_reduced_code(project(knot))) // 2
        assert 0 < count < len(project(knot).crossings)
        set_header_field(path, "crossing_number", count + 1)
        code, stdout, stderr = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
        assert code == 2 and stdout == ""
        assert "MalformedInput" in stderr
        assert f"crossing_number {count + 1} exceeds the {count} crossings" in stderr
        set_header_field(path, "crossing_number", count)
        code, stdout, _ = run(capsys, "certify", "--lattice", str(path), "--out", str(out))
        assert code == 0
        assert f"edges_le_len_bound_c{count}:" in stdout and "FAIL" not in stdout

    def test_step1_without_a_code_match_computes_its_polynomial(self, tmp_path, capsys, monkeypatch):
        # in the step-1 projection of random_grid(8, 2), one crossing's over
        # pass lies on the arc that ends at its own under pass, so its
        # Wirtinger relation reads x_{j+1} = x_j whatever its sign: flipping
        # that sign breaks the code match and keeps the polynomial
        calls = []
        alexander = cli.alexander
        monkeypatch.setattr(cli, "alexander", lambda pd: calls.append(pd) or alexander(pd))
        spec = ("certify", "--random", "g=8,seed=2,count=1")
        assert run(capsys, *spec, "--out", str(tmp_path / "a"))[0] == 0
        assert len(calls) == 3  # base, step 2 and step 3

        def flip_one_sign(pd):
            unders = {c.under_in for c in pd.crossings}
            m = 2 * len(pd.crossings)

            def over_on_incoming_arc(c):
                between = [(c.under_in - k) % m for k in range(1, (c.under_in - c.over_in) % m)]
                return len(between) > 0 and not unders & set(between)

            i = next(i for i, c in enumerate(pd.crossings) if over_on_incoming_arc(c))
            crossings = list(pd.crossings)
            crossings[i] = replace(crossings[i], sign=-crossings[i].sign)
            return PlanarDiagram(tuple(crossings))

        stages = []

        def project_flipping_step1(knot):
            stages.append(knot)  # certify projects the stages in step order
            return flip_one_sign(project(knot)) if len(stages) == 1 else project(knot)

        monkeypatch.setattr(cli, "project", project_flipping_step1)
        calls.clear()
        assert run(capsys, *spec, "--out", str(tmp_path / "b"))[0] == 0
        assert len(calls) == 4  # the fallback computes step 1 as well
        for name in ("random_g8_s2.cert.txt", "random_g8_s2.cert.json"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


class TestExport:
    def test_trefoil_step2_metrics(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(
            capsys, "export", "--corpus", "trefoil", "--steps", "1-2", "--out", str(out)
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if "step 2" in l)
        fields = line.split()
        length = float(fields[fields.index("length") + 1])
        thickness = float(fields[fields.index("thickness") + 1])
        rope = float(fields[fields.index("ropelength") + 1])
        assert abs(thickness - 1.0) <= 1e-9
        assert rope <= 47.71
        assert abs(length - rope) < 1e-9
        assert (out / "3_1.step2.polyline.txt").exists()
        assert (out / "3_1.step2.arcs.txt").exists()

    def test_density_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(
            capsys, "export", "--corpus", "trefoil", "--steps", "1",
            "--format", "polyline", "--density", "8", "--out", str(out),
        )
        assert code == 0
        coarse = (out / "3_1.step1.polyline.txt").read_text()
        code, stdout2, _ = run(
            capsys, "export", "--corpus", "trefoil", "--steps", "1",
            "--format", "polyline", "--density", "64", "--out", str(out),
        )
        fine = (out / "3_1.step1.polyline.txt").read_text()
        assert len(fine.splitlines()) > len(coarse.splitlines())
        # metrics line identical regardless of sampling density
        assert stdout.splitlines()[0] == stdout2.splitlines()[0]

    @pytest.mark.parametrize("density", ["7", "4097"])
    @pytest.mark.parametrize("form", ["polyline", "both"])
    def test_bad_density_refused_before_any_work(self, tmp_path, capsys, monkeypatch, form, density):
        def no_pipeline(*args, **kwargs):
            raise AssertionError("run_pipeline called before the density check")

        monkeypatch.setattr("knotfold.cli.run_pipeline", no_pipeline)
        out = tmp_path / "o"
        code, _, err = run(
            capsys, "export", "--random", "g=96,seed=1,count=1", "--format", form,
            "--density", density, "--out", str(out),
        )
        assert code == 2
        assert "BadDensity" in err and "8..4096" in err
        assert not out.exists()

    def test_arcs_format_ignores_density(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(
            capsys, "export", "--corpus", "trefoil", "--steps", "1",
            "--format", "arcs", "--density", "7", "--out", str(out),
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"3_1.step1.arcs.txt", "3_1.metrics.txt"}

    def test_unknown_format_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--corpus", "trefoil", "--format", "stl"])
        assert exc.value.code == 2


class TestTable:
    def test_values_match_functions(self, capsys):
        code, stdout, _ = run(capsys, "table", "--table", "c=3..16")
        assert code == 0
        lines = stdout.strip().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "c"
        assert len(lines) == 15
        for line in lines[1:]:
            cells = line.split("\t")
            c = int(cells[0])
            assert cells[1] == str(theorem_len_bound(c).value)
            assert cells[2] == str(theorem_len_bound(c, nonalternating_prime=True).value)
            assert abs(float(cells[3]) - float(theorem_rop_bound(c).value)) < 1e-6

    def test_certify_rejects_table_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--table", "c=3..16"])
        assert exc.value.code == 2

    def test_single_value_range(self, capsys):
        code, stdout, _ = run(capsys, "table", "--table", "c=3")
        assert code == 0
        assert len(stdout.strip().splitlines()) == 2

    def test_empty_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--table", "c=5..3"])
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "argument --table" in stderr and "5..3" in stderr


def test_build_from_grid_file(tmp_path, capsys):
    grid = tmp_path / "my.grid"
    grid.write_text("# a trefoil\nX: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "build", "--input", str(grid), "--steps", "1", "--out", str(out))
    assert code == 0
    assert "my:" in stdout
    assert (out / "my.step1.txt").exists()


def test_unknown_corpus_name_exit_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "build", "--corpus", "nope", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "no corpus entry" in stderr


@pytest.mark.parametrize(
    "spec", ["g=5,coutn=3", "g=5,g=7", "g=5,seed=1,seed=2", "g=5,", "x", "g=5,count=0", "g=5,count=-2"]
)
def test_bad_random_spec_usage_error(tmp_path, capsys, spec):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--random", spec, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --random" in capsys.readouterr().err
    assert not out.exists()


def test_negative_random_count_beside_corpus_is_a_usage_error(tmp_path, capsys):
    # a count below 1 must not leave the --corpus inputs to run on their own
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--corpus", "3_1", "--random", "g=7,seed=1,count=-5", "--out", str(out)])
    assert exc.value.code == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert "count must be at least 1" in stderr
    assert not out.exists()


def test_main_calls_in_one_process_keep_their_own_inputs(tmp_path, capsys):
    # main builds its parser once; a later call must not see an earlier
    # call's --corpus or --input lists
    grid = tmp_path / "five.txt"
    grid.write_text("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["build", "--corpus", "3_1", "--input", str(grid), "--steps", "1",
                 "--out", str(first)]) == 0
    parser = cli._parser
    assert main(["build", "--corpus", "4_1", "--steps", "1", "--out", str(second)]) == 0
    assert main(["build", "--input", str(grid), "--steps", "1", "--out", str(second)]) == 0
    assert cli._parser is parser
    capsys.readouterr()

    def files(*labels):
        return sorted(f"{label}.{suffix}" for label in labels
                      for suffix in ("step1.txt", "step1.json", "reports.txt"))

    assert sorted(p.name for p in first.iterdir()) == files("3_1", "five")
    assert sorted(p.name for p in second.iterdir()) == files("4_1", "five")
    assert (second / "five.reports.txt").read_text() == (first / "five.reports.txt").read_text()


_STARTUP_SCRIPT = """
import sys
bare = set(sys.modules)
import json
from pathlib import Path

def added():
    return sorted({"numpy", "logging"} & (set(sys.modules) - bare))

out = Path(sys.argv[1])
stages, codes = {}, []
import knotfold, knotfold.cli
knotfold.load_corpus()
stages["import"] = added()
codes.append(knotfold.cli.main(["build", "--corpus", "all", "--out", str(out / "lat")]))
lattice = []
for path in sorted((out / "lat").glob("*.step*.*")):
    lattice += ["--lattice", str(path)]
codes.append(knotfold.cli.main(["certify", *lattice, "--out", str(out / "lat-cert")]))
codes.append(knotfold.cli.main(["certify", "--corpus", "3_1", "--out", str(out / "cert")]))
stages["numpy-free commands"] = added()
codes.append(knotfold.cli.main(["certify", "--corpus", "t3_5", "--out", str(out / "t3_5")]))
stages["t3_5"] = added()
print(json.dumps({"codes": codes, "files": len(lattice) // 2, "stages": stages}))
"""


def test_startup_and_numpy_free_commands_load_no_numpy(tmp_path):
    # the pytest process has numpy already, so a fresh interpreter runs the
    # commands and reports which of numpy and logging they added to the
    # modules it started with
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["files"] == 48  # 8 corpus knots, 3 steps, text and JSON
    assert report["stages"]["import"] == []
    assert report["stages"]["numpy-free commands"] == []
    # t3_5 has a dense core of two or more rows, so the guard can see numpy
    assert "numpy" in report["stages"]["t3_5"]
