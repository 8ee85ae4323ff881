import json
import tracemalloc

import pytest

from knotfold.bounds import theorem_len_bound, theorem_rop_bound
from knotfold.cli import main


SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]


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
