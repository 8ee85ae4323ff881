"""Regenerate perfbench/reference.json: repeated runs and their spread.

    python3 perfbench/reference.py

For each workload this runs ``run.py`` untraced once per seed, on seeds
1..10 for the ``run_seconds`` that BENCHMARK.json sets, and reports every
end-to-end metric's median, quartiles and spread (interquartile distance
over median, from ``statistics.quantiles(n=4)``).  It then makes one
traced run on the first seed and reports its per-layer
metrics and the tracing overhead, measured (traced command time per round
over the untraced command time per round of the same seed, minus one) and
estimated (spans per round times the cost of one span, over the command
time per round).  Markdown tables for README.md go to standard output.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    wall = perf_counter() - start
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads((BENCH / "_results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail, wall


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "runs": RUNS,
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in range(1, RUNS + 1):
            result, detail, wall = run_once(name, seed, seconds, 0)
            runs.append({"seed": seed, "wall_s": wall, "rounds": detail["rounds"], **result})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, f"{wall:.1f}s", json.dumps(result), file=sys.stderr)
        entry = {"end_to_end": {k: spread(v) for k, v in values.items()}, "runs": runs}
        untraced = runs[0]
        result, detail, wall = run_once(name, untraced["seed"], seconds, 1)
        per_round_untraced = (len(detail["times"]) / detail["rounds"]) / untraced["metrics"]["diagrams_per_s"]["value"]
        trace = detail["trace"]
        entry["traced"] = {
            "seed": untraced["seed"],
            "wall_s": wall,
            "correct": result["correct"],
            "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
            "op_s_per_round": trace["op_s_per_round"],
            "self_s_sum_per_round": trace["self_s_sum_per_round"],
            "untraced_op_s_per_round": per_round_untraced,
            "overhead": trace["op_s_per_round"] / per_round_untraced - 1.0,
            "spans_per_round": trace["spans_per_round"],
            "estimated_overhead": trace["spans_per_round"] * trace["span_cost_s"]
            / trace["op_s_per_round"],
        }
        print(name, "traced", json.dumps(entry["traced"]), file=sys.stderr)
        report["workloads"][name] = entry
    (BENCH / "reference.json").write_text(json.dumps(report, indent=1) + "\n")
    print(markdown(report))
    return 0


def markdown(report: dict) -> str:
    """The README's reference tables."""
    names = list(report["workloads"])
    lines = ["| workload | metric | median | q1 | q3 | spread |", "|---|---|---|---|---|---|"]
    for name in names:
        for metric, s in report["workloads"][name]["end_to_end"].items():
            lines.append(f"| {name} | {metric} | {s['median']:.4g} | {s['q1']:.4g} | "
                         f"{s['q3']:.4g} | {100 * s['spread']:.1f} % |")
    lines += ["", "| per-layer metric (per round) | " + " | ".join(names) + " |",
              "|---|" + "---|" * len(names)]
    traced = [report["workloads"][n]["traced"] for n in names]
    for metric in traced[0]["per_layer"]:
        lines.append(f"| {metric} | " + " | ".join(f"{t['per_layer'][metric]:.4g}" for t in traced) + " |")
    for key in ("self_s_sum_per_round", "op_s_per_round", "untraced_op_s_per_round", "overhead",
                "spans_per_round", "estimated_overhead"):
        lines.append(f"| {key} | " + " | ".join(f"{t[key]:.4g}" for t in traced) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
