"""Built-in grid-diagram corpus.

Ships diagrams for the first three knots with published minimum lattice
lengths plus five larger torus knots, each carrying its crossing number
and expected Alexander polynomial so pipeline runs can be certified
against stored invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import MalformedInput
from .grid import GridDiagram
from .laurent import LaurentPoly, parse_poly


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    aliases: tuple[str, ...]
    g: int
    x_col: tuple[int, ...]
    o_col: tuple[int, ...]
    crossing_number: int
    nonalternating_prime: bool
    known_minimum_edges: int | None
    alexander_text: str
    comment: str

    @property
    def diagram(self) -> GridDiagram:
        return GridDiagram(size=self.g, x_col=self.x_col, o_col=self.o_col)

    @property
    def alexander(self) -> LaurentPoly:
        return parse_poly(self.alexander_text)


def load_corpus() -> list[CorpusEntry]:
    raw = resources.files("knotfold.data").joinpath("corpus.json").read_text()
    entries = []
    for item in json.loads(raw):
        entries.append(
            CorpusEntry(
                name=item["name"],
                aliases=tuple(item.get("aliases", ())),
                g=item["g"],
                x_col=tuple(item["x_col"]),
                o_col=tuple(item["o_col"]),
                crossing_number=item["crossing_number"],
                nonalternating_prime=item["nonalternating_prime"],
                known_minimum_edges=item.get("known_minimum_edges"),
                alexander_text=item["alexander"],
                comment=item.get("comment", ""),
            )
        )
    return entries


def corpus_names() -> list[str]:
    return [e.name for e in load_corpus()]


def find_entry(name: str) -> CorpusEntry | None:
    """The entry with this name or alias, in any case; None when there is none."""
    wanted = name.strip().lower()
    return next((e for e in load_corpus() if wanted in (e.name.lower(), *map(str.lower, e.aliases))), None)


def get_entry(name: str) -> CorpusEntry:
    entry = find_entry(name)
    if entry is None:
        raise MalformedInput(f"no corpus entry named {name!r}; have {corpus_names()}")
    return entry
