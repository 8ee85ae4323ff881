import pytest

from knotfold import lattice
from knotfold.errors import DegenerateCurve, FoldCollision, MalformedInput
from knotfold.grid import parse_grid, random_grid
from knotfold.lattice import (
    LatticeKnot,
    _fold,
    _fold_check,
    _fold_finish,
    _fold_line,
    _lower_stick,
    _require_valid,
    canonicalize,
    edge_census,
    fold_horizontal,
    fold_vertical,
    parse_lattice,
    serialize_lattice,
    settle,
    validate_lattice,
)
from knotfold.pipeline import run_pipeline
from lattice_oracle import unit_points

TREFOIL = parse_grid("X: 1,2,3,4,5\nO: 3,4,5,1,2\n")
UNKNOT2 = parse_grid("X: 1,2\nO: 2,1\n")
G3 = parse_grid("X: 1,2,3\nO: 2,3,1\n")


class TestSettle:
    def test_unknot_rectangle(self):
        k = settle(UNKNOT2)
        c = edge_census(k)
        assert (c.x_edges, c.y_edges, c.z_edges) == (2, 2, 4)
        assert c.total_edges == 8
        assert c.corners == 8

    def test_trefoil_census(self):
        c = edge_census(settle(TREFOIL))
        assert (c.x_edges, c.y_edges, c.z_edges) == (12, 12, 10)
        assert c.total_edges == 34
        assert c.corners == 20

    def test_g3_saturates_bound(self):
        c = edge_census(settle(G3))
        assert c.total_edges == 14  # g^2 + 2g - 1 at g=3

    def test_z_edges_and_corners(self):
        for g in range(2, 11):
            for seed in range(5):
                d = random_grid(g, seed)
                c = edge_census(settle(d))
                assert c.z_edges == 2 * g
                assert c.corners == 4 * g

    def test_rejects_invalid_diagram(self):
        from knotfold.grid import GridDiagram

        with pytest.raises(MalformedInput):
            settle(GridDiagram(2, (1, 1), (2, 2)))

    def test_valid_all_corpus(self, corpus):
        for entry in corpus:
            assert validate_lattice(settle(entry.diagram)).ok


class TestFoldHorizontal:
    def test_trefoil_high_side(self):
        k, r, _ = fold_horizontal(settle(TREFOIL), 5, side="high")
        c = edge_census(k)
        assert (c.x_edges, c.y_edges, c.z_edges) == (6, 12, 8)
        assert c.total_edges == 26
        assert c.corners == 16
        assert r.removed_overlap_edges == 6
        assert r.removed_z_edges == 2
        assert validate_lattice(k).ok

    def test_g3_saturates_bound(self):
        k, _, _ = fold_horizontal(settle(G3), 3, side="high")
        assert edge_census(k).total_edges == 10  # (3g^2+8g-11)/4 at g=3

    def test_g2_collapses_to_plane(self):
        for side in ("high", "low"):
            k, r, _ = fold_horizontal(settle(UNKNOT2), 2, side)
            c = edge_census(k)
            assert c.total_edges == 4  # the 4k+2 bound at g=2
            assert c.z_edges == 0
            assert r.removed_z_edges == 4

    def test_odd_g_saves_exactly_two_z_edges(self):
        for g in (3, 5, 7, 9):
            for seed in range(5):
                k1 = settle(random_grid(g, seed))
                pre = edge_census(k1).z_edges
                for side in ("high", "low"):
                    k2, _, _ = fold_horizontal(k1, g, side=side)
                    assert edge_census(k2).z_edges == pre - 2

    def test_even_g_saves_exactly_four_z_edges(self):
        for g in (4, 6, 8, 10):
            for seed in range(5):
                k1 = settle(random_grid(g, seed))
                pre = edge_census(k1).z_edges
                for side in ("high", "low"):
                    k2, _, _ = fold_horizontal(k1, g, side=side)
                    assert edge_census(k2).z_edges == pre - 4

    def test_rejects_x_stick_off_the_fold_plane(self):
        # an x-stick on z=2 that crosses the fold line: neither collapsible
        # in the fold plane nor a severed stick to bridge
        k = LatticeKnot(((1, 1, 1), (3, 1, 1), (3, 1, 2), (1, 1, 2)))
        with pytest.raises(ValueError, match="z-level 2"):
            fold_horizontal(k, 3, "high")

    def test_bookkeeping(self):
        for g in range(2, 11):
            for seed in range(4):
                k1 = settle(random_grid(g, seed))
                for side in ("high", "low"):
                    k2, r, unlowered = fold_horizontal(k1, g, side)
                    assert r.post.x_edges == r.pre.x_edges - r.removed_overlap_edges
                    assert r.post.y_edges == r.pre.y_edges
                    assert r.post.z_edges == r.pre.z_edges - r.removed_z_edges
                    assert r.broken_sticks_reconnected == 0
                    assert r.post == edge_census(k2)
                    # the unlowered curve differs only by the lowered sticks' z-edges
                    flat = edge_census(unlowered)
                    assert (flat.x_edges, flat.y_edges) == (r.post.x_edges, r.post.y_edges)
                    assert flat.z_edges == r.post.z_edges + r.removed_z_edges
                    assert validate_lattice(unlowered).ok


class TestFoldVertical:
    def test_trefoil_high_side(self):
        _, _, unlowered = fold_horizontal(settle(TREFOIL), 5, side="high")
        k3, r = fold_vertical(unlowered, 5, side="high")
        c = edge_census(k3)
        assert (c.x_edges, c.y_edges, c.z_edges) == (6, 12, 18)
        assert c.total_edges == 36
        assert r.broken_sticks_reconnected == 2
        assert r.pre.z_edges == 10  # the step-2 knot's 8 plus the crease stick's 2
        assert r.post.z_edges == r.pre.z_edges + r.added_z_edges
        assert validate_lattice(k3).ok

    def test_rejects_lowered_step2_knot(self):
        for side in ("high", "low"):
            k2, _, _ = fold_horizontal(settle(TREFOIL), 5, side)
            with pytest.raises(ValueError, match="z-level 1"):
                fold_vertical(k2, 5, side)

    def test_refuses_a_stick_running_back(self):
        # the last stick runs down x=3 to y=0 and the first runs back up it
        k = LatticeKnot(((3, 0, 2), (3, 1, 2), (0, 1, 2), (0, 4, 2), (0, 5, 2), (3, 5, 2)))
        assert "lattice point (3, 1, 2) visited twice" in str(validate_lattice(k))
        with pytest.raises(ValueError, match="runs back along the stick before it"):
            fold_vertical(k, 3, "high")

    def test_collision_without_bridges_stops_at_the_first_meeting(self, monkeypatch):
        # 400 laps of one rectangle: every stick meets 399 others, but a
        # cycle with no bridge needs only the first meeting to refuse
        drawn = []
        meetings = lattice._meetings

        def counted(sticks):
            for hit in meetings(sticks):
                drawn.append(hit)
                yield hit

        monkeypatch.setattr(lattice, "_meetings", counted)
        k = LatticeKnot(((0, 0, 2), (0, 5, 2), (1, 5, 2), (1, 0, 2)) * 400)
        with pytest.raises(FoldCollision, match="left coincident lattice points"):
            fold_vertical(k, 5, "high")
        assert len(drawn) <= 1

    def test_broken_stick_accounting(self):
        for g in range(2, 11):
            for seed in range(4):
                k1 = settle(random_grid(g, seed))
                for h_side in ("high", "low"):
                    _, _, unlowered = fold_horizontal(k1, g, h_side)
                    for v_side in ("high", "low"):
                        k3, r = fold_vertical(unlowered, g, v_side)
                        assert r.added_y_edges == 2 * r.broken_sticks_reconnected
                        assert r.added_z_edges == 4 * r.broken_sticks_reconnected
                        assert r.pre == edge_census(unlowered)
                        assert r.post.x_edges == r.pre.x_edges
                        assert (
                            r.post.y_edges
                            == r.pre.y_edges - r.removed_overlap_edges + r.added_y_edges
                        )
                        assert r.post.z_edges == r.pre.z_edges + r.added_z_edges

    def test_g2_pipeline_stays_valid(self):
        for h_side in ("high", "low"):
            _, _, unlowered = fold_horizontal(settle(UNKNOT2), 2, h_side)
            for v_side in ("high", "low"):
                k3, _ = fold_vertical(unlowered, 2, v_side)
                assert validate_lattice(k3).ok
                assert edge_census(k3).total_edges == 8  # the 4k+2 bound at g=2

    def test_z_edge_ceiling(self):
        for g in range(2, 12):
            for seed in range(4):
                res = run_pipeline(random_grid(g, seed))
                zmax = 4 * g - 2 if g % 2 else 4 * g - 4
                assert res.stages[3].census.z_edges <= zmax


class TestCanonicalize:
    def test_colinear_merge(self):
        k = LatticeKnot(((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)))
        assert len(canonicalize(k).corners) == 4

    def test_zero_stick_dropped(self):
        k = LatticeKnot(((0, 0, 0), (2, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)))
        assert len(canonicalize(k).corners) == 4

    def test_idempotent_on_pipeline_outputs(self):
        count = 0
        for g in range(2, 10):
            for seed in range(10):
                res = run_pipeline(random_grid(g, seed))
                for step in (1, 2, 3):
                    k = res.stages[step].knot
                    assert canonicalize(k) == k
                    count += 1
        assert count == 240

    def test_translation_invariance(self):
        k = settle(TREFOIL)
        moved = LatticeKnot(tuple((x + 7, y - 3, z + 11) for x, y, z in k.corners))
        assert edge_census(canonicalize(moved)) == edge_census(k)

    def test_degenerate(self):
        with pytest.raises(DegenerateCurve):
            canonicalize(LatticeKnot(((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 0))))


class TestValidate:
    def test_revisited_point_flagged(self):
        # figure-eight shaped path revisiting (1, 1, 0)
        k = LatticeKnot(
            (
                (0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0),
                (0, 2, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0),
            )
        )
        report = validate_lattice(LatticeKnot(k.corners[:-1]))
        assert "SelfIntersection" in report.codes() or "ZeroLengthStick" in report.codes()

    def test_open_polyline_not_closed(self):
        k = LatticeKnot(((0, 0, 0), (3, 0, 0), (3, 2, 0), (5, 2, 1)))
        assert "NotClosed" in validate_lattice(k).codes()

    def test_diagonal_flagged(self):
        k = LatticeKnot(((0, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)))
        assert "NotAxisParallel" in validate_lattice(k).codes()

    def test_too_few(self):
        assert "TooFewCorners" in validate_lattice(LatticeKnot(((0, 0, 0),))).codes()

    def test_names_the_first_point_visited_again(self):
        # trace: (0,0) (1,0) (2,0) (3,0) (3,1) (2,1) (2,0)* (2,-1) (1,-1) (1,0)* (1,1) (0,1)
        # (1, 0) is visited first, but (2, 0) is the first point visited again
        k = LatticeKnot(
            (
                (0, 0, 0), (3, 0, 0), (3, 1, 0), (2, 1, 0), (2, -1, 0), (1, -1, 0),
                (1, 1, 0), (0, 1, 0),
            )
        )
        report = validate_lattice(k)
        assert report.codes() == {"SelfIntersection"}
        assert "lattice point (2, 0, 0) visited twice" in str(report)
        assert "(1, 0, 0)" not in str(report)

    def test_settle_outputs_clean(self, corpus):
        for entry in corpus:
            assert validate_lattice(settle(entry.diagram)).ok


class TestSerialize:
    def test_text_round_trip(self):
        k = settle(TREFOIL)
        prov = {"source": "3_1", "g": 5, "step": 1}
        text = serialize_lattice(k, prov)
        k2, p2 = parse_lattice(text)
        assert k2 == k
        assert p2["source"] == "3_1"
        assert p2["g"] == "5"

    def test_json_round_trip(self):
        k = settle(TREFOIL)
        blob = serialize_lattice(k, {"g": 5}, form="json")
        k2, p2 = parse_lattice(blob)
        assert k2 == k
        assert p2["g"] == 5

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            parse_lattice("1 2\n")
        with pytest.raises(MalformedInput):
            parse_lattice("")
        with pytest.raises(MalformedInput):
            parse_lattice('{"corners": "nope"}')

    @pytest.mark.parametrize("form", ["text", "json"])
    @pytest.mark.parametrize("v", [2**50, -(2**50)])
    def test_coordinate_bound(self, form, v):
        def rectangle(w):
            return LatticeKnot(((0, 0, 0), (w, 0, 0), (w, 1, 0), (0, 1, 0)))

        assert parse_lattice(serialize_lattice(rectangle(v), form=form))[0] == rectangle(v)
        with pytest.raises(MalformedInput, match=r"beyond 2\*\*50"):
            parse_lattice(serialize_lattice(rectangle(v + (1 if v > 0 else -1)), form=form))


def test_unit_points_length_equals_edges():
    for seed in range(5):
        k = settle(random_grid(6, seed))
        assert len(unit_points(k)) == edge_census(k).total_edges


class TestCensusSymmetry:
    def test_rotation_permutes_axis_fields(self):
        k = settle(TREFOIL)
        # rotate 90 degrees about the z-axis: x -> y, y -> -x
        rotated = canonicalize(
            LatticeKnot(tuple((-y, x, z) for x, y, z in k.corners))
        )
        c, r = edge_census(k), edge_census(rotated)
        assert (r.x_edges, r.y_edges, r.z_edges) == (c.y_edges, c.x_edges, c.z_edges)
        assert (r.x_sticks, r.y_sticks, r.z_sticks) == (c.y_sticks, c.x_sticks, c.z_sticks)
        assert r.corners == c.corners

    def test_rotation_about_x(self):
        k = settle(TREFOIL)
        rotated = canonicalize(
            LatticeKnot(tuple((x, -z, y) for x, y, z in k.corners))
        )
        c, r = edge_census(k), edge_census(rotated)
        assert (r.x_edges, r.y_edges, r.z_edges) == (c.x_edges, c.z_edges, c.y_edges)


def test_pipeline_validity_up_to_g12():
    for g in (11, 12):
        for seed in range(10):
            res = run_pipeline(random_grid(g, seed))
            for step in (1, 2, 3):
                assert validate_lattice(res.stages[step].knot).ok, (g, seed, step)


class TestLowerStick:
    SPLIT = canonicalize(
        LatticeKnot(
            (
                (3, 1, 2), (3, 2, 2), (3, 2, 1), (1, 2, 1), (1, 2, 2), (1, 4, 2),
                (1, 4, 1), (3, 4, 1), (3, 4, 2), (3, 5, 2), (3, 5, 1), (5, 5, 1),
                (5, 5, 2), (5, 1, 2), (5, 1, 1), (3, 1, 1),
            )
        )
    )

    def test_split_block_raises_fold_collision(self):
        # the z=2 points over the crease column x=3 form two separate runs
        assert validate_lattice(self.SPLIT).ok
        with pytest.raises(FoldCollision, match="more than one run"):
            fold_horizontal(self.SPLIT, 5, "high")
        for g, side in ((4, "high"), (5, "low"), (6, "low")):
            with pytest.raises(FoldCollision):
                fold_horizontal(self.SPLIT, g, side)

    def test_block_wrapping_the_list_start(self):
        g, side = 9, "high"
        col = _fold_line(g, side)
        corners, _, _ = _fold(settle(random_grid(g, 1)), 0, col, 1, side)
        n = len(corners)
        on_crease = [c[0] == col and c[2] == 2 for c in corners]
        i = next(i for i in range(n) if on_crease[i] and on_crease[(i + 1) % n])
        # start the cycle inside the crease stick, so it spans the end of the list
        wrapped = corners[i + 1 :] + corners[: i + 1]
        want = canonicalize(LatticeKnot(_lower_stick(corners, col)))
        assert canonicalize(LatticeKnot(_lower_stick(wrapped, col))) == want
        assert len(want) < n


class TestFoldFinishErrors:
    def test_repeated_point_matches_require_valid(self):
        # lowering the crease stick at x=4 lands it on the x-stick at y=4
        k = LatticeKnot(
            ((0, 0, 1), (0, 4, 1), (4, 4, 1), (4, 5, 1), (4, 5, 2), (4, 0, 2), (4, 0, 1))
        )
        lowered = _lower_stick(_fold(k, 0, 4, 1, "low")[0], 4)
        with pytest.raises(FoldCollision, match=r"lattice point \(4, 4, 1\) visited twice"):
            _require_valid(canonicalize(LatticeKnot(lowered)), "lowered")
        with pytest.raises(FoldCollision) as got:
            fold_horizontal(k, 7, "low")
        assert str(got.value) == "fold about the x-line 4 left coincident lattice points"

    def test_two_unit_jump_still_valid(self):
        # the two-unit stick (0, 0, 0) -> (2, 0, 0) carries an extra collinear
        # corner; the corner cycle still traces the square
        corners = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
        square = LatticeKnot(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
        knot, report = _fold_finish(square, corners, 0, 1, "high", 0, 0, 0)
        assert knot == canonicalize(square)
        assert report.pre == report.post == edge_census(square)


def _assert_horizontal_folds_valid(k1, g):
    """Both curves of each fold_horizontal that passes are self-avoiding."""
    for side in ("high", "low"):
        try:
            knot, _, unlowered = fold_horizontal(k1, g, side)
        except FoldCollision:
            continue
        assert validate_lattice(knot).ok, side
        assert validate_lattice(unlowered).ok, side


class TestLoweringCheck:
    """fold_horizontal sweeps its lowered cycle once; both curves it returns validate."""

    @pytest.mark.parametrize("g", range(2, 41))
    def test_agrees_with_validate_lattice_on_random_grids(self, g):
        for seed in range(10):
            _assert_horizontal_folds_valid(settle(random_grid(g, seed)), g)

    def test_agrees_with_validate_lattice_on_the_corpus(self, corpus):
        for entry in corpus:
            _assert_horizontal_folds_valid(settle(entry.diagram), entry.diagram.size)

    # Self-avoiding cycles whose z=2 y-stick at x=4 lowers onto z=1: the
    # lowered stick's open interior meets another stick in the first three
    CASES = {
        # the x-stick at y=3, z=1 crosses the interior
        "x_stick": (
            ((4, 0, 1), (4, 0, 2), (4, 6, 2), (4, 6, 1), (7, 6, 1), (7, 3, 1), (1, 3, 1),
             (1, 3, 0), (1, 0, 0), (4, 0, 0)),
            (4, 3, 1),
        ),
        # the y-stick from (4, 4, 1) to (4, 2, 1) lies along the interior
        "collinear_y_stick": (
            ((4, 0, 1), (4, 0, 2), (4, 6, 2), (4, 6, 1), (6, 6, 1), (6, 4, 1), (6, 4, 0),
             (4, 4, 0), (4, 4, 1), (4, 2, 1), (4, 2, 0), (2, 2, 0), (2, 0, 0), (4, 0, 0)),
            (4, 4, 1),
        ),
        # the z-stick up from (4, 3, 0) ends on the interior at z=1
        "z_stick": (
            ((4, 0, 1), (4, 0, 2), (4, 6, 2), (4, 6, 1), (6, 6, 1), (6, 6, 0), (6, 3, 0),
             (4, 3, 0), (4, 3, 1), (2, 3, 1), (2, 0, 1)),
            (4, 3, 1),
        ),
        # sticks end on both end corners of the lowered stick, and an
        # x-stick crosses x=4 one step beyond one of them: still valid
        "end_corners_only": (
            ((4, 2, 1), (4, 2, 2), (4, 7, 2), (4, 7, 1), (4, 9, 1), (6, 9, 1), (6, 1, 1),
             (1, 1, 1), (1, 2, 1)),
            None,
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_synthetic_cases(self, name):
        corners, point = self.CASES[name]
        k = LatticeKnot(corners)
        assert validate_lattice(k).ok
        lowered = _lower_stick(list(corners), 4)
        report = validate_lattice(canonicalize(LatticeKnot(lowered)))
        assert (point is None) == report.ok
        if point is None:
            _fold_check(lowered, (), 0, 4)
            knot, fold = _fold_finish(k, lowered, 0, 4, "high", 0, 2, 0)
            assert fold.post.z_edges == edge_census(k).z_edges - 2
            assert validate_lattice(knot).ok
        else:
            assert str(report) == f"SelfIntersection: lattice point {point} visited twice"
            with pytest.raises(FoldCollision) as err:
                _fold_check(lowered, (), 0, 4)
            assert str(err.value) == "fold about the x-line 4 left coincident lattice points"
