"""Exact LP, polytope membership/separation, and V<->H conversion."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paretostar import (
    CapExceededError,
    HRep,
    Polytope,
    frac,
    hrep_vertices,
    lp_solve,
    membership,
    remove_redundant,
    separate,
    support,
    vec,
    vrep_to_hrep,
)
from paretostar import geometry
from paretostar.geometry import (
    LPResult,
    argmax_vertex,
    convex_weights,
    dot,
    intersect_polytopes,
    nullspace,
    rank,
    rref,
    solve_linear,
)

F = Fraction


def P(*points) -> Polytope:
    return Polytope.from_generators([vec(p) for p in points])


class TestFrac:
    def test_decimal_strings_are_exact(self):
        assert frac("0.2") == F(1, 5)
        assert frac("3/7") == F(3, 7)
        assert frac(4) == F(4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            frac(0.2)


class TestMembership:
    def test_midpoint_of_generators(self):
        assert membership(vec(["0.5", "0.5"]), P(["0.2", "0.8"], ["0.8", "0.2"]))

    def test_outside_first_coordinate(self):
        assert not membership(vec(["0.9", "0.1"]), P(["0.2", "0.8"], ["0.8", "0.2"]))

    def test_identity_singleton(self):
        assert membership(vec(["0.3", "0.7"]), P(["0.3", "0.7"]))


class TestSeparate:
    def test_outside_point_gets_validated_hyperplane(self):
        poly = P(["0.2", "0.8"], ["0.8", "0.2"])
        pt = vec(["0.9", "0.1"])
        h = separate([pt], poly)
        assert h is not None
        assert dot(h.normal, pt) > h.threshold
        assert all(dot(h.normal, w) < h.threshold for w in poly.vertices)

    def test_inside_point_has_no_separator(self):
        assert separate([vec(["0.5", "0.5"])], P(["0.2", "0.8"], ["0.8", "0.2"])) is None

    def test_two_points_vs_singleton(self):
        poly = P(["0.8", "0.2"])
        pts = [vec(["0.6", "0.4"]), vec(["0.3", "0.7"])]
        h = separate(pts, poly)
        assert h is not None
        assert all(dot(h.normal, p) > h.threshold for p in pts)
        assert dot(h.normal, poly.vertices[0]) < h.threshold

    def test_bad_lp_point_is_rejected_in_every_mode(self, monkeypatch):
        # A separator the LP got wrong must raise even under python -O.
        bad = LPResult("optimal", (F(1), F(0), F(0), F(1)), F(1))
        monkeypatch.setattr(geometry, "lp_solve", lambda objective, constraints: bad)
        with pytest.raises(RuntimeError, match="does not strictly separate"):
            separate([vec(["0.9", "0.1"])], P(["0.2", "0.8"], ["0.8", "0.2"]))


class TestSupport:
    def test_interval_max(self):
        assert support(P(["0.2", "0.8"], ["0.8", "0.2"]), vec([1, 0])) == F(4, 5)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            support(P(["0.2", "0.8"]), (F(0), F(0)))

    def test_single_vertex(self):
        assert support(P(["0.3", "0.7"]), vec([2, -1])) == F(-1, 10)

    def test_argmax_vertex_attains_support(self):
        poly = P(["0.2", "0.8"], ["0.8", "0.2"], ["0.5", "0.5"])
        d = vec([3, 1])
        assert dot(d, argmax_vertex(poly, d)) == support(poly, d)


class TestLpSolve:
    def test_simplex_corner(self):
        res = lp_solve(
            vec([1, 0]),
            HRep(
                (((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))),
                (((F(1), F(1)), F(1)),),
            ),
        )
        assert res.status == "optimal"
        assert res.point == (F(1), F(0))
        assert res.value == 1

    def test_contradictory_bounds(self):
        res = lp_solve(vec([1]), HRep((((F(1),), F(3)), ((F(-1),), F(-5)))))
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = lp_solve(vec([1]), HRep((((F(-1),), F(0)),)))
        assert res.status == "unbounded"


class TestRemoveRedundant:
    def test_midpoint_dropped(self):
        pts = [vec(["0.2", "0.8"]), vec(["0.5", "0.5"]), vec(["0.8", "0.2"])]
        assert remove_redundant(pts) == [pts[0], pts[2]]

    def test_single_point_identity(self):
        assert remove_redundant([vec(["0.3", "0.7"])]) == [vec(["0.3", "0.7"])]

    def test_duplicates_collapse(self):
        pts = [vec([1, 0]), vec([1, 0]), vec([0, 1])]
        assert remove_redundant(pts) == [vec([1, 0]), vec([0, 1])]

    def test_idempotent_and_hull_preserving(self):
        pts = [
            vec(["0.1", "0.9"]),
            vec(["0.9", "0.1"]),
            vec(["0.5", "0.5"]),
            vec(["0.3", "0.7"]),
        ]
        reduced = remove_redundant(pts)
        assert remove_redundant(reduced) == reduced
        hull = Polytope.from_generators(reduced)
        assert all(membership(p, hull) for p in pts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            remove_redundant([])


class TestHRepConversion:
    def test_interval_round_trip_and_facets(self):
        poly = P(["0.2", "0.8"], ["0.8", "0.2"])
        h = vrep_to_hrep(poly)
        assert len(h.equalities) == 1
        a, b = h.equalities[0]
        assert all(dot(a, v) == b for v in poly.vertices)
        assert hrep_vertices(h).vertices == poly.vertices
        # bounds act as 0.2 <= p_A <= 0.8
        assert not all(
            dot(n, vec(["0.9", "0.1"])) <= bd for n, bd in h.inequalities
        )

    def test_single_point_pins_coordinates(self):
        poly = P(["0.3", "0.7"])
        h = vrep_to_hrep(poly)
        assert h.inequalities == ()
        assert len(h.equalities) == 2
        assert hrep_vertices(h).vertices == poly.vertices

    def test_full_simplex(self):
        poly = P([1, 0, 0], [0, 1, 0], [0, 0, 1])
        h = vrep_to_hrep(poly)
        assert len(h.inequalities) == 3
        assert len(h.equalities) == 1
        assert hrep_vertices(h).vertices == poly.vertices

    def test_dimension_cap(self):
        poly = Polytope.from_generators([tuple(F(int(i == j)) for i in range(7)) for j in range(7)])
        with pytest.raises(CapExceededError):
            vrep_to_hrep(poly)

    def test_four_state_round_trips(self):
        from paretostar import SplitMix64

        rng = SplitMix64(77)
        for _ in range(12):
            gens = [rng.simplex_point(4, 6) for _ in range(rng.randint(1, 5))]
            poly = Polytope.from_generators(gens)
            assert hrep_vertices(vrep_to_hrep(poly)).vertices == poly.vertices

    def test_intersection_of_intervals(self):
        a = P(["0.2", "0.8"], ["0.8", "0.2"])
        b = P(["0.6", "0.4"], ["0.9", "0.1"])
        inter = intersect_polytopes([a, b])
        assert inter.vertices == (
            (F(3, 5), F(2, 5)),
            (F(4, 5), F(1, 5)),
        )

    def test_disjoint_intersection_is_empty(self):
        a = P(["0.9", "0.1"])
        b = P(["0.1", "0.9"], ["0.2", "0.8"])
        assert intersect_polytopes([a, b]) is None

    @pytest.mark.parametrize(
        "rows",
        [
            [((1, 0), 1)],  # half-plane x <= 1, rank 1 < 2
            [((1, 0), 1), ((-1, 0), 0)],  # strip 0 <= x <= 1, rank 1 < 2
            [((-1, 0), 0), ((0, -1), 0)],  # quadrant: full rank, no positive null combination
        ],
        ids=["half-plane", "strip", "quadrant"],
    )
    def test_unbounded_region_raises(self, rows):
        H = HRep(tuple((vec(a), F(b)) for a, b in rows))
        with pytest.raises(ValueError, match="unbounded"):
            hrep_vertices(H)

    @pytest.mark.parametrize(
        "rows",
        [
            # x <= 0, y <= 0, x + y >= 1: bounded recession cone, no vertex.
            [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)],
            # x <= 0, x >= 1, y <= 0: full rank but unbounded in -y.
            [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)],
            # x <= 0, x >= 1: rank 1 < 2.
            [((1, 0), 0), ((-1, 0), -1)],
        ],
        ids=["full-rank-bounded-cone", "full-rank-open-cone", "rank-deficient"],
    )
    def test_empty_region_is_none(self, rows):
        H = HRep(tuple((vec(a), F(b)) for a, b in rows))
        assert hrep_vertices(H) is None

    def test_six_state_hypersimplex_known_answer(self):
        """At the dimension cap: the 15 points with mass 1/2 on two of six
        states.  Its facets are x_i >= 0 and x_i <= 1/2; those of the last
        state are written through the equality sum x = 1."""
        half = F(1, 2)
        poly = Polytope.from_generators(
            [tuple(half if s in pair else F(0) for s in range(6))
             for pair in itertools.combinations(range(6), 2)]
        )
        h = vrep_to_hrep(poly)

        def row(normal, bound):
            return tuple(F(x) for x in normal), F(bound)

        def unit(i, c):
            return [c if s == i else 0 for s in range(5)] + [0]

        assert h.equalities == (row([1] * 6, 1),)
        assert h.inequalities == tuple(sorted(
            [row([-2] * 5 + [0], -1), row([1] * 5 + [0], 1)]
            + [row(unit(i, -1), 0) for i in range(5)]
            + [row(unit(i, 2), 1) for i in range(5)]
        ))
        assert hrep_vertices(h) == poly


class TestLinearAlgebra:
    def test_rank_and_nullspace(self):
        rows = [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]
        assert rank(rows) == 2
        null = nullspace(rows, 3)
        assert len(null) == 1
        for row in rows:
            assert dot(tuple(row), null[0]) == 0

    def test_solve_linear_consistency(self):
        sol = solve_linear([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
        assert sol is not None
        assert sol[0] == (F(2), F(1))
        assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None

    def test_rref_is_idempotent(self):
        rows = [[F(2), F(4)], [F(1), F(3)]]
        red, pivots = rref(rows)
        again, pivots2 = rref(red)
        assert red == again and pivots == pivots2


small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@st.composite
def point_and_polytope(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    point = tuple(draw(small_fracs) for _ in range(d))
    k = draw(st.integers(min_value=1, max_value=4))
    gens = [tuple(draw(small_fracs) for _ in range(d)) for _ in range(k)]
    return point, Polytope.from_generators(gens)


class TestDuality:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(point_and_polytope())
    def test_membership_iff_no_separator(self, case):
        point, poly = case
        assert membership(point, poly) == (separate([point], poly) is None)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(point_and_polytope(), st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_support_dominates_hull_points(self, case, weights):
        _, poly = case
        weights = (weights * len(poly.vertices))[: len(poly.vertices)]
        total = sum(weights)
        p = tuple(
            sum(F(w, total) * v[k] for w, v in zip(weights, poly.vertices))
            for k in range(poly.ambient_dim)
        )
        direction = vec([1] + [-1] * (poly.ambient_dim - 1))
        assert membership(p, poly)
        assert support(poly, direction) >= dot(direction, p)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(point_and_polytope())
    def test_vrep_hrep_round_trip(self, case):
        _, poly = case
        assert hrep_vertices(vrep_to_hrep(poly)).vertices == poly.vertices

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(point_and_polytope())
    def test_hrep_contains_exactly_the_hull(self, case):
        point, poly = case
        h = vrep_to_hrep(poly)
        inside = all(dot(a, point) <= b for a, b in h.inequalities) and all(
            dot(a, point) == b for a, b in h.equalities
        )
        assert inside == membership(point, poly)

    def test_convex_weights_reconstruct_point(self):
        poly = P(["0.2", "0.8"], ["0.8", "0.2"], ["0.5", "0.1"])
        target = vec(["0.5", "0.4"])
        w = convex_weights(target, list(poly.vertices))
        if w is not None:
            recon = tuple(
                sum(wi * v[k] for wi, v in zip(w, poly.vertices)) for k in range(2)
            )
            assert recon == target
