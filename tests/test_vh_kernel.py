"""V<->H conversion by tight k-subsets against the double-description oracle.

`geometry.vrep_to_hrep` / `hrep_vertices` enumerate vertices as the feasible
solutions of k-subsets of rows; `vh_oracle` is the bounding-box-and-cut
conversion they replaced.  Both bring facets to primitive integers and sort
facets and vertices, so they must agree exactly: the same `HRep`, the same
vertex tuples, and the same answer (None or ValueError) on empty and
unbounded regions.

The oracle is slow where the new kernel is not: on one full-dimensional
five-state set with five or six vertices it takes from a second to over a
minute.  Single sets cover every shape; intersections and the Hypothesis
property draw five-state sets with at most four generators, which keeps the
oracle's side of the file within seconds.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import vh_oracle
from paretostar.geometry import (
    HRep,
    Polytope,
    hrep_vertices,
    intersect_polytopes,
    vrep_to_hrep,
)

F = Fraction


def _simplex_point(rng, m, den):
    cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
    return tuple(F(p, den) for p in parts)


def _poly(*points):
    return Polytope.from_generators(
        [tuple(F(x) for x in p) for p in points]
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _assert_same_conversion(P):
    h = vrep_to_hrep(P)
    assert h == vh_oracle.vrep_to_hrep(P)
    assert hrep_vertices(h) == vh_oracle.hrep_vertices(h) == P


def _assert_same_intersection(polys):
    new = intersect_polytopes(polys)
    assert new == vh_oracle.intersect_polytopes(polys)
    return new


def _max_generators(m):
    return 6 if m < 5 else 4


def test_single_sets_match_oracle():
    """m 2-5 states, 1-6 generators with denominators <= 4, four sets of
    each shape."""
    rng = random.Random(20260301)
    shapes = set()
    for m in range(2, 6):
        for g in range(1, 7):
            for _ in range(4):
                P = Polytope.from_generators([_simplex_point(rng, m, 4) for _ in range(g)])
                _assert_same_conversion(P)
                shapes.add((m, len(P.vertices)))
    assert (5, 6) in shapes


def test_intersections_match_oracle():
    """2-3 sets: around a shared point (often lower-dimensional or a single
    point) or independent (often disjoint); a set repeated stacks duplicate
    facets."""
    rng = random.Random(20260302)
    outcomes = {"empty": 0, "point": 0, "lower": 0, "full": 0}
    for i in range(90):
        m = rng.randint(2, 5)
        shared = _simplex_point(rng, m, 4) if i % 3 else None
        polys = []
        for _ in range(rng.randint(2, 3)):
            g = rng.randint(1, _max_generators(m))
            pts = [_simplex_point(rng, m, 4) for _ in range(g)]
            polys.append(Polytope.from_generators(pts + [shared] * (shared is not None)))
        if i % 5 == 0:
            polys.append(polys[0])
        inter = _assert_same_intersection(polys)
        if inter is None:
            outcomes["empty"] += 1
        elif inter.is_singleton():
            outcomes["point"] += 1
        else:
            dim = len(vrep_to_hrep(inter).equalities)
            outcomes["full" if dim == 1 else "lower"] += 1
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize(
    "polys",
    [
        # Intervals meeting in one point.
        [_poly(["1/5", "4/5"], ["1/2", "1/2"]), _poly(["1/2", "1/2"], ["4/5", "1/5"])],
        # Disjoint intervals.
        [_poly(["1/5", "4/5"], ["2/5", "3/5"]), _poly(["1/2", "1/2"], ["4/5", "1/5"])],
        # The 2-simplex and one of its edges: a segment on its boundary.
        [_poly([1, 0, 0], [0, 1, 0], [0, 0, 1]), _poly([1, 0, 0], [0, 1, 0])],
        # Two segments crossing inside the 2-simplex: one point.
        [
            _poly(["1/2", "1/2", 0], [0, 0, 1]),
            _poly(["1/2", 0, "1/2"], [0, 1, 0]),
        ],
        # The 3-simplex and a segment inside it, given twice.
        [
            _poly([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
            _poly(["1/4", "1/4", "1/4", "1/4"], [0, "1/2", "1/2", 0]),
            _poly(["1/4", "1/4", "1/4", "1/4"], [0, "1/2", "1/2", 0]),
        ],
        # The same set three times: every facet stacked thrice.
        [_poly([1, 0, 0], [0, 1, 0], [0, 0, 1])] * 3,
    ],
    ids=["one-point", "disjoint", "edge", "crossing", "segment-in-simplex", "stacked"],
)
def test_named_intersections_match_oracle(polys):
    _assert_same_intersection(polys)


def _random_rows(rng, k):
    n = rng.randint(1, 2 * k + 2)
    rows = []
    for _ in range(n):
        a = tuple(F(rng.randint(-2, 2)) for _ in range(k))
        rows.append((a, F(rng.randint(-3, 3))))
    return rows


def test_user_rows_match_oracle_on_empty_and_unbounded_regions():
    """Raw inequality systems: bounded, empty and unbounded all occur."""
    rng = random.Random(20260303)
    seen = {"polytope": 0, "empty": 0, "unbounded": 0}
    for _ in range(300):
        k = rng.randint(1, 3)
        H = HRep(tuple(_random_rows(rng, k)))
        new = _outcome(hrep_vertices, H)
        assert new == _outcome(vh_oracle.hrep_vertices, H)
        seen["empty" if new is None else "unbounded" if new is ValueError else "polytope"] += 1
    assert min(seen.values()) >= 30, seen


@st.composite
def belief_sets(draw):
    m = draw(st.integers(min_value=2, max_value=5))
    den = draw(st.integers(min_value=1, max_value=3))

    def point():
        cuts = sorted(draw(st.integers(0, den)) for _ in range(m - 1))
        parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
        return tuple(F(p, den) for p in parts)

    shared = [point()] if draw(st.booleans()) else []
    return [
        Polytope.from_generators(
            [point() for _ in range(draw(st.integers(1, _max_generators(m))))] + shared
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(belief_sets())
def test_property_conversion_and_intersection_match_oracle(polys):
    for P in polys:
        assert vrep_to_hrep(P) == vh_oracle.vrep_to_hrep(P)
    _assert_same_intersection(polys)
