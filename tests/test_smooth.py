import math

import pytest

from knotfold.bounds import PiExpr, rop_step_bound, smooth_length_exact
from knotfold.errors import BadDensity, DegenerateKnot, MalformedInput
from knotfold.grid import parse_grid
from knotfold.lattice import LatticeKnot, edge_census
from knotfold.pipeline import run_pipeline
from knotfold.rope import (
    ArcPiece,
    StraightPiece,
    export_geometry,
    import_geometry,
    import_polyline,
    rope_metrics,
    smooth,
)

UNIT_SQUARE = LatticeKnot(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
TREFOIL = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")


class TestSmooth:
    def test_piece_count_is_twice_corners(self):
        res = run_pipeline(TREFOIL)
        for step in (1, 2, 3):
            k = res.stages[step].knot
            s = smooth(k)
            assert len(s.pieces) == 2 * len(k.corners)
            assert len(s.arcs) == len(k.corners)

    def test_alternation_and_tangency(self):
        s = smooth(run_pipeline(TREFOIL).stages[2].knot)
        pieces = s.pieces
        for i, p in enumerate(pieces):
            expected = ArcPiece if i % 2 == 0 else StraightPiece
            assert isinstance(p, expected)
        for i in range(0, len(pieces), 2):
            arc = pieces[i]
            seg = pieces[i + 1]
            nxt = pieces[(i + 2) % len(pieces)]
            assert arc.end == seg.start
            assert seg.end == nxt.start

    def test_unit_square_becomes_circle(self):
        s = smooth(UNIT_SQUARE)
        m = rope_metrics(s)
        assert abs(m.length - 2 * math.pi) < 1e-12
        assert m.length_exact == PiExpr(0, 2)
        assert m.thickness_radius == 1.0
        assert abs(m.ropelength - 2 * math.pi) < 1e-12
        # every sampled point lies on the unit circle around (1, 1, 0)
        for arc in s.arcs:
            for j in range(5):
                p = arc.point(j * math.pi / 8)
                assert abs(math.hypot(p[0] - 1, p[1] - 1) - 1) < 1e-12

    def test_zero_length_pieces_kept(self):
        s = smooth(UNIT_SQUARE)
        assert all(p.length == 0 for p in s.straights)
        assert len(s.pieces) == 8

    def test_degenerate_rejected(self):
        k = LatticeKnot(((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
        with pytest.raises(DegenerateKnot):
            smooth(k)


class TestMetrics:
    def test_length_identity_trefoil(self):
        res = run_pipeline(TREFOIL)
        for step in (1, 2, 3):
            census = res.stages[step].census
            m = rope_metrics(smooth(res.stages[step].knot))
            expected = smooth_length_exact(census)
            assert m.length_exact == expected
            closed = 2 * census.total_edges - (2 - math.pi / 2) * census.corners
            assert abs(m.length - closed) < 1e-12

    def test_trefoil_step2_rope_bound(self):
        res = run_pipeline(TREFOIL, max_step=2)
        m = rope_metrics(smooth(res.stages[2].knot))
        bound = rop_step_bound(2, 5).value  # 32 + 5*pi ~ 47.71
        assert m.length_exact.le(bound)
        assert m.ropelength <= float(bound) + 1e-9

    def test_thickness_components(self):
        m = rope_metrics(smooth(run_pipeline(TREFOIL).stages[3].knot))
        assert m.thickness_radius == 1.0

    def test_self_crossing_rope_has_infinite_ropelength(self):
        knot = LatticeKnot(
            ((0, 0, 0), (3, 0, 0), (3, 2, 0), (1, 2, 0), (1, 1, 0), (4, 1, 0), (4, 3, 0), (0, 3, 0))
        )
        m = rope_metrics(smooth(knot))
        assert m.thickness_radius == 0.0 and m.ropelength == math.inf

    def test_unit_square_scan(self):
        # only the two opposite zero-length straights are non-adjacent
        m = rope_metrics(smooth(UNIT_SQUARE))
        assert m.thickness_radius == 1.0


    def test_long_sticks_scan_in_few_cells(self):
        # a 2**48-long rectangle: hashing its straights into cells of side 4
        # would need about 2**47 cells each
        n = 2**48
        m = rope_metrics(smooth(LatticeKnot(((0, 0, 0), (n, 0, 0), (n, 1, 0), (0, 1, 0)))))
        assert m.thickness_radius == 1.0

class TestExport:
    def test_polyline_circle_density_90(self):
        text = export_geometry(smooth(UNIT_SQUARE), "polyline", density=90)
        verts = import_polyline(text)
        assert len(verts) == 360
        max_err = max(abs(math.hypot(v[0] - 1, v[1] - 1) - 1) for v in verts)
        assert max_err < 1e-3

    def test_polyline_length_error(self):
        s = smooth(run_pipeline(TREFOIL).stages[2].knot)
        m = rope_metrics(s)
        verts = import_polyline(export_geometry(s, "polyline", density=64))
        total = 0.0
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            total += math.dist(v, w)
        assert abs(total - m.length) / m.length < 1e-3

    def test_arc_exact_round_trip(self):
        for step in (1, 2, 3):
            s = smooth(run_pipeline(TREFOIL).stages[step].knot)
            assert import_geometry(export_geometry(s, "arcs")).pieces == s.pieces

    def test_bad_density(self):
        with pytest.raises(BadDensity):
            export_geometry(smooth(UNIT_SQUARE), "polyline", density=7)
        with pytest.raises(BadDensity):
            export_geometry(smooth(UNIT_SQUARE), "polyline", density=4097)
        # the range's ends are both allowed
        for density in (8, 4096):
            text = export_geometry(smooth(UNIT_SQUARE), "polyline", density=density)
            assert len(text.splitlines()) == 4 * density

    def test_density_does_not_change_metrics(self):
        s = smooth(run_pipeline(TREFOIL).stages[2].knot)
        m1 = rope_metrics(s)
        for density in (8, 64):
            export_geometry(s, "polyline", density=density)
            m2 = rope_metrics(s)
            assert m2.length == m1.length

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            export_geometry(smooth(UNIT_SQUARE), "stl")

    def test_import_errors(self):
        with pytest.raises(MalformedInput):
            import_polyline("1 2\n")
        with pytest.raises(MalformedInput):
            import_geometry("CIRCLE 1 2 3\n")
        with pytest.raises(MalformedInput):
            import_geometry("")
        with pytest.raises(MalformedInput, match="2\\*\\*50"):
            import_geometry(f"SEG {2**50 + 1} 0 0 0 0 0\n")

    @pytest.mark.parametrize(
        "record",
        [
            "ARC 0 0 0 2 0 0 0 2 0",  # radius 2
            "ARC 0 0 0 1 0 0 1 0 0",  # u == v
            "ARC 0 0 0 1 0 0 -1 0 0",  # antiparallel axes
            "ARC 0 0 0 1 1 0 0 0 1",  # diagonal u
            "ARC 0 0 0 0 0 0 0 1 0",  # zero u
            "SEG 0 2 0 2 0 0",  # diagonal straight
            "SEG 0 0 0 1 1 1",
        ],
    )
    def test_import_rejects_bad_arc_axes_and_skew_straights(self, record):
        with pytest.raises(MalformedInput, match="axis"):
            import_geometry(record + "\n")
        # also inside an otherwise closed curve
        lines = export_geometry(smooth(UNIT_SQUARE), "arcs").splitlines()
        lines[0 if record.startswith("ARC") else 1] = record
        with pytest.raises(MalformedInput, match="axis"):
            import_geometry("\n".join(lines) + "\n")

    def test_import_rejects_open_or_unalternating_pieces(self):
        s = smooth(UNIT_SQUARE)
        lines = export_geometry(s, "arcs").splitlines()
        with pytest.raises(MalformedInput, match="alternate"):
            import_geometry("SEG 0 0 0 2 0 0\n" * 4)
        with pytest.raises(MalformedInput, match="alternate"):
            import_geometry("\n".join(lines[1:] + lines[:1]) + "\n")
        with pytest.raises(MalformedInput, match="alternate"):
            import_geometry("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MalformedInput, match="ends at"):  # open: last arc and straight cut
            import_geometry("\n".join(lines[:-2]) + "\n")
        broken = lines[:]
        broken[1] = "SEG 0 0 0 9 0 0"
        with pytest.raises(MalformedInput, match="ends at"):
            import_geometry("\n".join(broken) + "\n")
        # a closed curve with the pieces shifted by a whole arc+straight pair is fine
        assert import_geometry("\n".join(lines[2:] + lines[:2]) + "\n").pieces
