"""Fuzzed input: the parsers may refuse it, but only with a KnotfoldError.

A parser that accepts a text must return what its format promises: a valid
grid diagram, a lattice knot whose corners are integer triples, or a closed
smooth curve whose metrics can be measured.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from knotfold.errors import KnotfoldError
from knotfold.grid import parse_grid, validate_grid
from knotfold.lattice import LatticeKnot, parse_lattice, serialize_lattice
from knotfold.rope import export_geometry, import_geometry, rope_metrics, smooth

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SQUARE = LatticeKnot(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
L_SHAPE = LatticeKnot(
    ((0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 1, 0))
)


def accepts(parse, text):
    """parse(text), or None when it refuses the text with a KnotfoldError."""
    try:
        return parse(text)
    except KnotfoldError:
        return None


integer_texts = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.sampled_from(["", " ", "x", "1.5", "-", "+2", "0x1", "1e3", "٣"]),
)


def lines_of(token, sep):
    return st.lists(token, max_size=8).map(sep.join)


grid_texts = st.one_of(
    st.text(max_size=60),
    st.builds(
        lambda x, o, extra: f"X: {x}\nO: {o}\n{extra}",
        lines_of(integer_texts, ","),
        lines_of(integer_texts, ","),
        st.text(alphabet="XOxo.:#, \n123", max_size=12),
    ),
    lines_of(st.text(alphabet="XOxo. ", max_size=7), "\n"),
)


@FUZZ
@given(grid_texts)
@example("X: 1,2\nO: 2,1\n")
@example("X: 1,1\nO: 2,2\n")
@example(".O..X\nO..X.\n..X.O\n.X.O.\nX.O..\n")
def test_parse_grid_refuses_only_with_knotfold_errors(text):
    d = accepts(parse_grid, text)
    if d is not None:
        assert validate_grid(d).ok


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=20,
)
corner_lists = st.lists(
    st.one_of(st.lists(st.integers(-3, 3), min_size=2, max_size=4), json_values), max_size=6
)
lattice_documents = st.one_of(
    st.fixed_dictionaries({"corners": corner_lists}),
    st.fixed_dictionaries(
        {"corners": corner_lists}, optional={"provenance": json_values, "extra": json_values}
    ),
    st.dictionaries(st.sampled_from(["corners", "provenance"]), json_values, max_size=2),
).map(json.dumps)
lattice_texts = st.one_of(
    st.text(max_size=60),
    lines_of(lines_of(integer_texts, " "), "\n"),
    st.builds(
        lambda header, body: f"# {header}\n{body}",
        st.text(max_size=12),
        lines_of(lines_of(integer_texts, " "), "\n"),
    ),
)


@FUZZ
@given(st.one_of(lattice_texts, lattice_documents))
@example(json.dumps({"corners": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
@example(json.dumps({"corners": [[0.5, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}))
@example(json.dumps({"corners": [[0, 0, 0, 5], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}))
@example(serialize_lattice(SQUARE, {"g": 2}, form="json"))
@example(serialize_lattice(SQUARE, {"g": 2}))
@example(json.dumps({"corners": [[0, 0, 0], [2**50 + 1, 0, 0], [2**50 + 1, 1, 0], [0, 1, 0]]}))
# past Python's limit on the digits of an integer, and past its recursion limit
@example('{"corners": [[' + "1" * 4301 + ", 0, 0]]}")
@example('{"corners": ' + "[" * 100_000 + "]" * 100_000 + "}")
def test_parse_lattice_refuses_only_with_knotfold_errors(text):
    parsed = accepts(parse_lattice, text)
    if parsed is not None:
        knot, provenance = parsed
        assert isinstance(provenance, dict)
        assert knot.corners
        for corner in knot.corners:
            assert isinstance(corner, tuple) and len(corner) == 3
            assert all(type(v) is int and abs(v) <= 2**50 for v in corner)


def _records(knot):
    return export_geometry(smooth(knot), "arcs").splitlines()


BASE_RECORDS = [_records(SQUARE), _records(L_SHAPE)]
huge = st.one_of(st.integers(-5, 5), st.integers(), st.integers(2**48, 2**51))


def _move(record, move):
    """Apply move(axis, value) to a record's point coordinates; an ARC's axes stay."""
    kind, *fields = record.split()
    points = 3 if kind == "ARC" else 6
    moved = [str(move(i % 3, int(v))) for i, v in enumerate(fields[:points])]
    return " ".join([kind, *moved, *fields[points:]])


def _stretch(axis, cut, length):
    """Push every point beyond a plane further out, lengthening the sticks it cuts."""
    return lambda a, v: v + length if a == axis and v > cut else v


@st.composite
def geometry_texts(draw):
    """Exported SEG/ARC files, stretched and moved whole, then mutated record by record."""
    records = list(draw(st.sampled_from(BASE_RECORDS)))
    stretch = _stretch(draw(st.integers(0, 2)), draw(st.integers(-1, 4)), draw(huge))
    offset = draw(st.tuples(huge, huge, huge))
    records = [_move(_move(r, stretch), lambda a, v: v + offset[a]) for r in records]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "token", "text"]))
        if op == "drop" and len(records) > 1:
            del records[i]
        elif op == "repeat":
            records.insert(i, records[i])
        elif op == "token":
            tokens = records[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(integer_texts)
            records[i] = " ".join(tokens)
        else:
            records[i] = draw(st.text(max_size=20))
    return "\n".join(records) + "\n"


@FUZZ
@given(st.one_of(geometry_texts(), st.text(max_size=60)))
@example("\n".join(_records(SQUARE)))
@example("\n".join(_move(r, lambda a, v: v + 10**20) for r in _records(SQUARE)))
@example("\n".join(_move(r, _stretch(0, 1, 2**49)) for r in _records(SQUARE)))
def test_import_geometry_then_metrics_refuse_only_with_knotfold_errors(text):
    curve = accepts(import_geometry, text)
    if curve is not None:
        metrics = rope_metrics(curve)
        assert metrics.length >= 0.0
        assert metrics.thickness_radius >= 0.0
