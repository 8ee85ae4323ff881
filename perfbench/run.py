"""Run one knotfold benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload small-full --seed 1 --seconds 20 --trace 0

Run from the root of a knotfold checkout; the program is imported from
./src.  One client calls ``knotfold.cli.main`` in-process, one diagram at
a time, in whole rounds over the workload's diagrams until ``--seconds`` of
command time have been measured.  Every output is checked after its
diagram's commands, outside the timed phase.  With ``--trace 1`` timing
wrappers record per-layer spans and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is the
result object; details of the run go to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS_JSON = SRC / "knotfold" / "data" / "corpus.json"
RESULTS = BENCH / "_results"

sys.path.insert(0, str(BENCH))
from checks import check_build, check_certify, check_export  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SPAWNS = 7
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import knotfold.cli
knotfold.load_corpus()
print(time.perf_counter() - start)
"""


def measure_setup() -> float:
    """Median time for a fresh interpreter to import knotfold and load the corpus.

    One extra spawn goes first and is not counted: it writes the bytecode
    cache, which an installed package already has.
    """
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        if spawn:
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def output_digest(out: Path, label: str) -> str:
    h = hashlib.blake2b()
    for path in sorted(out.glob(f"{label}.*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def verify(diagram, commands, out: Path) -> tuple[list[str], int | None]:
    """Every check that applies to the diagram's outputs; also its step-3 edges."""
    results = []
    if "build" in commands:
        results.append(check_build(out, diagram.label, diagram.g))
    if "certify" in commands:
        results.append(check_certify(out, diagram.label, diagram.g, diagram.x_col,
                                     diagram.o_col, diagram.published_alexander))
    if "export" in commands:
        results.append(check_export(out, diagram.label, diagram.g))
    errors = [e for found, _ in results for e in found]
    edges = {n for _, n in results}
    if len(edges) != 1 or None in edges:
        return errors + [f"step-3 edge counts {sorted(map(str, edges))} do not agree"], None
    return errors, edges.pop()


def run_workload(workload, diagrams, out: Path, seconds: float, tracer, cli_main) -> dict:
    times: list[float] = []
    verified: dict[str, tuple[str, int | None]] = {}
    crashes: list[str] = []
    wrong: list[str] = []
    attempted = failed = rounds = 0
    timed = 0.0
    sink = io.StringIO()
    while rounds == 0 or timed < seconds:
        rounds += 1
        for d in diagrams:
            attempted += 1
            spent, finished = 0.0, True
            for command in workload.commands:
                argv = [command, *d.source, "--out", str(out)]
                sink.seek(0)
                sink.truncate()
                start = perf_counter()
                try:
                    with redirect_stdout(sink), redirect_stderr(sink):
                        rc = tracer.call("cli", cli_main, argv) if tracer else cli_main(argv)
                except Exception:  # a crash is a failed operation, not the end of the run
                    rc = "exception"
                    sink.write(traceback.format_exc())
                spent += perf_counter() - start
                if rc != 0:
                    finished = False
                    crashes.append(f"{d.label}: {command} exited {rc}: {sink.getvalue()[-500:]}")
                    break
            timed += spent
            if not finished:
                failed += 1
                continue
            times.append(spent)
            digest = output_digest(out, d.label)
            if verified.get(d.label, ("",))[0] != digest:
                try:
                    errors, edges = verify(d, workload.commands, out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    errors, edges = [f"output has an unexpected shape: {exc!r}"], None
                if errors:
                    failed += 1
                    wrong += [f"{d.label}: {e}" for e in errors[:5]]
                    continue
                verified[d.label] = (digest, edges)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "timed_s": timed,
        "times": times,
        "lattice_edges": sum(edges for _, edges in verified.values()),
        "crashes": crashes,
        "wrong": wrong,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotfold" / "__init__.py").is_file():
        print(f"error: no knotfold sources under {SRC}; run from a knotfold checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    from knotfold import cli

    if Path(cli.__file__).resolve().parent != SRC / "knotfold":
        print(f"error: imported knotfold from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        diagrams = make_inputs(workload, args.seed, CORPUS_JSON, work / "inputs")
        if tracer:
            tracer.install()
        try:
            run = run_workload(workload, diagrams, work / "out", args.seconds, tracer, cli.main)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {k: v for k, v in run.items() if k not in ("crashes", "wrong")}
    RESULTS.mkdir(exist_ok=True)
    if tracer:
        metrics, detail["trace"] = tracer.layer_metrics(run["rounds"])
        tracer.write(RESULTS / f"{tag}.spans.json")
    else:
        done = len(run["times"])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "diagrams_per_s": {"value": done / run["timed_s"], "unit": "1/s"},
            "diagram_p50_s": {"value": statistics.median(run["times"]) if done else 0.0,
                              "unit": "s"},
            "lattice_edges": {"value": run["lattice_edges"], "unit": "edges"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    detail["metrics"] = metrics
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in (run["crashes"] + run["wrong"])[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({"correct": not run["wrong"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
