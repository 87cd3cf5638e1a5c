"""The coordinate-box pre-check against the routes it short-cuts.

A point set's hull lies inside its coordinate box.  `geometry.convex_weights`
therefore answers None without an LP when some coordinate of the point lies
strictly outside the points' range, and `intersect_polytopes` answers None
without a V->H conversion when the polytopes' boxes share no value in some
coordinate.  Those answers must be the old routes' answers:
`lp_oracle.convex_weights` solves one phase-1 LP for every query and
`vh_oracle.intersect_polytopes` stacks facet descriptions for every query.
The work is pinned too: a query the box decides solves no LP (converts no
polytope), and every other query solves exactly one (converts every one).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import lp_oracle
import vh_oracle
from paretostar import geometry
from paretostar.errors import DimensionMismatchError
from paretostar.geometry import Polytope, convex_weights, intersect_polytopes

F = Fraction


def _simplex_point(rng, m, den):
    cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
    return tuple(F(p, den) for p in parts)


def _in_box(p, points) -> bool:
    return all(
        min(q[k] for q in points) <= x <= max(q[k] for q in points) for k, x in enumerate(p)
    )


@pytest.fixture
def lp_calls(monkeypatch):
    calls = [0]
    solve = geometry.feasible_nonneg

    def counting(rows, rhs):
        calls[0] += 1
        return solve(rows, rhs)

    monkeypatch.setattr(geometry, "feasible_nonneg", counting)
    return calls


def _queries(rng, pts):
    """(kind, point) pairs: one of the points, the midpoint of two, a
    positive mix of all, two points drawn in the box (often outside the
    hull) and one of the points pushed out of the box along one axis."""
    d = len(pts[0])
    yield "vertex", rng.choice(pts)
    a, b = rng.choice(pts), rng.choice(pts)
    yield "edge", tuple((x + y) / 2 for x, y in zip(a, b))
    weights = [rng.randint(1, 4) for _ in pts]
    yield "mix", tuple(
        sum(w * q[k] for w, q in zip(weights, pts)) / sum(weights) for k in range(d)
    )
    for _ in range(2):
        yield "box", tuple(
            F(rng.randint(0, 6), 6) * (max(q[k] for q in pts) - min(q[k] for q in pts))
            + min(q[k] for q in pts)
            for k in range(d)
        )
    k = rng.randrange(d)
    out = list(rng.choice(pts))
    out[k] = max(q[k] for q in pts) + F(1, rng.randint(1, 5)) if rng.random() < 0.5 else (
        min(q[k] for q in pts) - F(1, rng.randint(1, 5))
    )
    yield "out", tuple(out)


def test_convex_weights_match_oracle(lp_calls):
    """2-4 states, 1-6 simplex points with duplicates; the same None-ness
    and the same weights as one oracle LP per query."""
    rng = random.Random(20261019)
    seen = Counter()
    for i in range(300):
        d = 2 + i % 3
        pts = [_simplex_point(rng, d, 6) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            pts += rng.sample(pts, rng.randint(1, len(pts)))
            rng.shuffle(pts)
        for kind, p in _queries(rng, pts):
            lp_calls[0] = 0
            got = convex_weights(p, pts)
            want = lp_oracle.convex_weights(p, pts)
            assert (got is None) == (want is None), (p, pts)
            assert got == want, (p, pts)
            inside_box = _in_box(p, pts)
            assert lp_calls[0] == inside_box, (p, pts)
            on_boundary = any(
                x in (min(q[k] for q in pts), max(q[k] for q in pts)) for k, x in enumerate(p)
            )
            seen[kind, "box" if not inside_box else "hull" if got else "lp-outside"] += 1
            seen["boundary, in hull"] += bool(on_boundary and got)
            seen["single point"] += len(pts) == 1
            seen["duplicates"] += len(set(pts)) < len(pts)
    for key in (("vertex", "hull"), ("edge", "hull"), ("mix", "hull"), ("box", "hull"),
                ("box", "lp-outside"), ("out", "box"), "boundary, in hull",
                "single point", "duplicates"):
        assert seen[key] >= 20, seen


def test_convex_weights_without_points_is_none(lp_calls):
    assert convex_weights((F(1, 2), F(1, 2)), []) is None
    assert lp_oracle.convex_weights((F(1, 2), F(1, 2)), []) is None
    assert lp_calls[0] == 0


@pytest.mark.parametrize(
    "p, points",
    [
        # p leaves the box in its first coordinate, where both have one.
        ((F(0), F(1)), [(F(1, 2), F(1, 2), F(0)), (F(1), F(0), F(0))]),
        ((F(0), F(1)), [(F(1, 2), F(1, 2)), (F(1), F(0), F(0))]),
        # p is longer than every point.
        ((F(1, 2), F(1, 2), F(0)), [(F(1, 2), F(1, 2)), (F(1), F(0))]),
    ],
)
def test_convex_weights_rejects_mixed_dimensions(p, points):
    with pytest.raises(DimensionMismatchError):
        convex_weights(p, points)


def _poly(rng, m, shared):
    pts = [_simplex_point(rng, m, 4) for _ in range(rng.randint(1, 4))]
    if shared is not None:
        pts.append(shared)
    if rng.random() < 0.2:
        pts += pts
    return Polytope.from_generators(pts)


@pytest.fixture
def vh_calls(monkeypatch):
    calls = [0]
    convert = geometry.vrep_to_hrep

    def counting(P):
        calls[0] += 1
        return convert(P)

    monkeypatch.setattr(geometry, "vrep_to_hrep", counting)
    return calls


def _boxes_meet(polys) -> bool:
    m = polys[0].ambient_dim
    return all(
        max(min(v[k] for v in P.vertices) for P in polys)
        <= min(max(v[k] for v in P.vertices) for P in polys)
        for k in range(m)
    )


def _intervals(*bounds):
    return [
        Polytope.from_generators([(F(lo), 1 - F(lo)), (F(hi), 1 - F(hi))]) for lo, hi in bounds
    ]


def test_intersections_match_oracle(vh_calls):
    """2-3 sets in 2-4 states, around a shared point (the boxes meet, often
    only in one value) or independent (the boxes often disjoint)."""
    rng = random.Random(20261020)
    seen = Counter()
    for i in range(150):
        m = 2 + i % 3
        shared = _simplex_point(rng, m, 4) if i % 3 == 0 else None
        polys = [_poly(rng, m, shared) for _ in range(rng.randint(2, 3))]
        vh_calls[0] = 0
        got = intersect_polytopes(polys)
        assert got == vh_oracle.intersect_polytopes(polys), polys
        meet = _boxes_meet(polys)
        assert vh_calls[0] == (len(polys) if meet else 0), polys
        seen["box" if not meet else "empty" if got is None else "nonempty"] += 1
    assert min(seen["box"], seen["empty"], seen["nonempty"]) >= 10, seen


@pytest.mark.parametrize(
    "polys, converted",
    [
        # Intervals touching in one value: the boxes meet, one point.
        (_intervals(("1/5", "1/2"), ("1/2", "4/5")), 2),
        # The same interval twice, and one meeting it only at 0.2.
        (_intervals(("1/5", "1/2"), ("1/5", "1/2"), ("1/10", "1/5")), 3),
        # Disjoint intervals, decided by the box.
        (_intervals(("1/5", "2/5"), ("1/2", "4/5")), 0),
        # A single point inside, on the boundary of and outside an interval.
        (_intervals(("3/10", "3/10"), ("1/5", "1/2")), 2),
        (_intervals(("1/2", "1/2"), ("1/5", "1/2")), 2),
        (_intervals(("3/5", "3/5"), ("1/5", "1/2")), 0),
    ],
    ids=["touching", "touching-stacked", "disjoint", "point-inside", "point-on-edge",
         "point-outside"],
)
def test_named_intersections_match_oracle(polys, converted, vh_calls):
    assert intersect_polytopes(polys) == vh_oracle.intersect_polytopes(polys)
    assert vh_calls[0] == converted


def test_boxes_inside_each_other_still_go_to_the_conversion(vh_calls):
    """Segments in the 2-simplex whose boxes overlap on every axis but which
    miss each other: empty, found by the conversion."""
    one = Polytope.from_generators([(F(0), F(0), F(1)), (F(1, 2), F(1, 2), F(0))])
    two = Polytope.from_generators([(F(1, 4), F(0), F(3, 4)), (F(1, 2), F(1, 4), F(1, 4))])
    assert intersect_polytopes([one, two]) is vh_oracle.intersect_polytopes([one, two]) is None
    assert vh_calls[0] == 2


@pytest.mark.parametrize(
    "polys",
    [
        # The first two coordinates' boxes are disjoint: a box test that
        # ran first, on the first polytope's coordinates, would say empty.
        [Polytope.from_generators([(F(1, 5), F(4, 5))]),
         Polytope.from_generators([(F(3, 5), F(2, 5), F(0)), (F(1), F(0), F(0))])],
        [Polytope.from_generators([(F(3, 5), F(2, 5), F(0)), (F(1), F(0), F(0))]),
         Polytope.from_generators([(F(1, 5), F(4, 5))])],
        # The boxes meet in the shared coordinates.
        [Polytope.from_generators([(F(1, 2), F(1, 2))]),
         Polytope.from_generators([(F(1, 2), F(1, 2), F(0))])],
    ],
)
def test_intersection_rejects_mixed_dimensions(polys, vh_calls):
    with pytest.raises(DimensionMismatchError):
        intersect_polytopes(polys)
    assert vh_calls[0] == 0
