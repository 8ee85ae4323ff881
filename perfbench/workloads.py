"""The benchmark's workloads and the seeded inputs they run on.

Inputs are generated here, without knotfold's code, and written as grid
files; the program only ever sees ``--input FILE`` or ``--corpus NAME``.
Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # knotfold subcommands run on every diagram
    corpus: bool  # include the eight built-in corpus diagrams
    random_g: tuple[int, ...]  # grid size of each seeded random diagram
    # if set, random diagrams are redrawn until their crossing count is within
    # this share of typical_crossings(g), so every seed gets inputs of one size
    crossing_band: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-full", ("build", "certify", "export"), True, (8, 11, 14, 17, 20) * 4),
        Workload("certify-large", ("certify",), False, (48,) * 23, 0.05),
        Workload("export-large", ("export",), False, (64,) * 9, 0.05),
        Workload("build-large", ("build",), False, (128,) * 46, 0.05),
    )
}


@dataclass(frozen=True)
class Diagram:
    label: str
    source: tuple[str, ...]  # the CLI arguments that name this input
    x_col: tuple[int, ...]
    o_col: tuple[int, ...]
    published_alexander: str | None  # from corpus.json, where there is one

    @property
    def g(self) -> int:
        return len(self.x_col)


def random_knot_grid(g: int, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uniform grid diagram of a knot: X columns, then O columns, row by row.

    Following a row's O marker up its column to the X marker gives the next
    row, so O columns are X columns permuted by a random g-cycle of rows:
    that makes the curve a single component and never puts X and O in one
    cell.
    """
    x_col = list(range(1, g + 1))
    rng.shuffle(x_col)
    order = list(range(g))
    rng.shuffle(order)
    successor = [0] * g
    for k, row in enumerate(order):
        successor[row] = order[(k + 1) % g]
    return tuple(x_col), tuple(x_col[successor[r]] for r in range(g))


def crossing_count(x_col, o_col) -> int:
    """Crossings of the grid diagram: row strands strictly crossed by column strands."""
    x_row = {c: r for r, c in enumerate(x_col, start=1)}
    o_row = {c: r for r, c in enumerate(o_col, start=1)}
    count = 0
    for r, (x, o) in enumerate(zip(x_col, o_col), start=1):
        for c in range(min(x, o) + 1, max(x, o)):
            if min(x_row[c], o_row[c]) < r < max(x_row[c], o_row[c]):
                count += 1
    return count


def typical_crossings(g: int) -> float:
    """About the mean crossing count of a uniform random knot grid diagram of size g."""
    return (g - 1) * (g - 2) / 9


def make_inputs(workload: Workload, seed: int, corpus_json: Path, input_dir: Path) -> list[Diagram]:
    """The workload's diagrams for one seed; random ones are written to input_dir."""
    diagrams = []
    if workload.corpus:
        for entry in json.loads(corpus_json.read_text()):
            diagrams.append(Diagram(entry["name"], ("--corpus", entry["name"]),
                                    tuple(entry["x_col"]), tuple(entry["o_col"]),
                                    entry["alexander"]))
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    for k, g in enumerate(workload.random_g):
        x_col, o_col = random_knot_grid(g, rng)
        while workload.crossing_band is not None and (
            abs(crossing_count(x_col, o_col) - typical_crossings(g))
            > workload.crossing_band * typical_crossings(g)
        ):
            x_col, o_col = random_knot_grid(g, rng)
        label = f"r{k:02d}_g{g}"
        path = input_dir / f"{label}.grid"
        path.write_text(f"# seed {seed}\nX: {','.join(map(str, x_col))}\nO: {','.join(map(str, o_col))}\n")
        diagrams.append(Diagram(label, ("--input", str(path)), x_col, o_col, None))
    return diagrams
