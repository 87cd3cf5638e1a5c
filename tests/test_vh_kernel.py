"""V<->H conversion by double description against the reference oracles.

`geometry.vrep_to_hrep` / `hrep_vertices` read vertices and facets off the
extreme rays of one integer double description (`geometry._cone_rays`);
`vh_oracle` keeps the bounding-box-and-cut conversion and the tight
k-subset enumeration that came before it.  All bring facets to primitive
integers and sort facets and vertices, so they must agree exactly: the same
`HRep`, the same vertex tuples, and the same answer (None or ValueError) on
empty and unbounded regions.

The box-and-cut oracle is slow: on one full-dimensional five-state set with
five or six vertices it takes from a second to over a minute.  So the two
seeded sweeps (96 single sets covering every shape, 90 intersections)
compare the package with the oracle's answers pinned in
`tests/golden/vh_oracle.json`, which ``PYTHONPATH=src python
tests/test_golden.py`` rebuilds from the live oracle; the named cases, the
raw inequality systems and the Hypothesis property run the oracle live.
Intersections and the property draw five-state sets with at most four
generators, which keeps the oracle's side within seconds.  The k-subset
oracle reaches three to eight states live (hull dimensions 1-7), on single
sets, perturbed facet systems and intersections; the six-state corollary 2
intersection, which neither oracle answers in test time, is checked vertex
by vertex.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
import vh_oracle
from paretostar import SplitMix64, geometry
from paretostar.geometry import (
    HRep,
    Polytope,
    _primitive,
    dot,
    hrep_vertices,
    intersect_polytopes,
    vec_parts,
    vrep_to_hrep,
)

F = Fraction

PINNED = pathlib.Path(__file__).resolve().parent / "golden" / "vh_oracle.json"


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


def _assert_same_intersection(polys):
    new = intersect_polytopes(polys)
    assert new == vh_oracle.intersect_polytopes(polys)
    return new


def _max_generators(m):
    return 6 if m < 5 else 4


def single_set_inputs() -> list[Polytope]:
    """m 2-5 states, 1-6 generators with denominators <= 4, four sets of
    each shape."""
    rng = random.Random(20260301)
    return [
        Polytope.from_generators([_simplex_point(rng, m, 4) for _ in range(g)])
        for m in range(2, 6) for g in range(1, 7) for _ in range(4)
    ]


def intersection_inputs() -> list[list[Polytope]]:
    """2-3 sets: around a shared point (often lower-dimensional or a single
    point) or independent (often disjoint); a set repeated stacks duplicate
    facets."""
    rng = random.Random(20260302)
    cases = []
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
        cases.append(polys)
    return cases


def _rows(vectors) -> list:
    return [[str(x) for x in v] for v in vectors]


def _vecs(rows) -> tuple:
    return tuple(tuple(F(x) for x in row) for row in rows)


def _polytope(rows) -> Polytope | None:
    return None if rows is None else Polytope(_vecs(rows))


def _hrep_rows(h: HRep) -> dict:
    return {
        "inequalities": [[[str(x) for x in a], str(b)] for a, b in h.inequalities],
        "equalities": [[[str(x) for x in a], str(b)] for a, b in h.equalities],
    }


def _hrep(doc: dict) -> HRep:
    return HRep(*(
        tuple((tuple(F(x) for x in a), F(b)) for a, b in doc[key])
        for key in ("inequalities", "equalities")
    ))


def oracle_answers() -> dict:
    """The live oracle's answers on every seeded input: the content of
    `tests/golden/vh_oracle.json`, which `test_golden.regenerate` writes."""
    singles = []
    for P in single_set_inputs():
        h = vh_oracle.vrep_to_hrep(P)
        back = vh_oracle.hrep_vertices(h)
        singles.append({
            "vertices": _rows(P.vertices),
            "hrep": _hrep_rows(h),
            "hrep_vertices": None if back is None else _rows(back.vertices),
        })
    intersections = []
    for polys in intersection_inputs():
        inter = vh_oracle.intersect_polytopes(polys)
        intersections.append({
            "sets": [_rows(P.vertices) for P in polys],
            "vertices": None if inter is None else _rows(inter.vertices),
        })
    return {"single_sets": singles, "intersections": intersections}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_single_sets_match_oracle(pinned):
    """Each seeded set's `HRep` and its vertices back equal the oracle's."""
    sets = single_set_inputs()
    assert len(sets) == len(pinned["single_sets"]) == 96
    shapes = set()
    for P, case in zip(sets, pinned["single_sets"]):
        assert P.vertices == _vecs(case["vertices"])
        h = vrep_to_hrep(P)
        assert h == _hrep(case["hrep"])
        assert hrep_vertices(h) == _polytope(case["hrep_vertices"]) == P
        shapes.add((P.ambient_dim, len(P.vertices)))
    assert (5, 6) in shapes


def test_intersections_match_oracle(pinned):
    """Each seeded intersection equals the oracle's, with every outcome
    represented."""
    cases = intersection_inputs()
    assert len(cases) == len(pinned["intersections"]) == 90
    outcomes = {"empty": 0, "point": 0, "lower": 0, "full": 0}
    for polys, case in zip(cases, pinned["intersections"]):
        assert [P.vertices for P in polys] == [_vecs(rows) for rows in case["sets"]]
        inter = intersect_polytopes(polys)
        assert inter == _polytope(case["vertices"])
        if inter is None:
            outcomes["empty"] += 1
        elif inter.is_singleton():
            outcomes["point"] += 1
        else:
            dim = len(vrep_to_hrep(inter).equalities)
            outcomes["full" if dim == 1 else "lower"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_integer_frame_matches_fraction_frame_and_oracle():
    """3-6 states, one vertex denominator in 7-13 per generator, so the
    vertices clear over a product of coprime denominators.  Every hull
    dimension 0-5 gives the `HRep` of the `Fraction` frame (a base vertex,
    the centroid of the offsets, the base added back into every bound) with
    the same dual-vertex solver, and its vertices back; up to dimension 3
    also the live oracle's, which takes 10-30 s on one 4-dimensional hull
    with these denominators."""
    rng = random.Random(20261020)
    dims = {k: 0 for k in range(6)}
    wide = 0
    for m in range(3, 7):
        for g in range(1, m + 2):
            for _ in range(2):
                P = _poly(*(_simplex_point(rng, m, rng.randint(7, 13)) for _ in range(g)))
                h = vrep_to_hrep(P)
                assert h == vh_oracle.vrep_to_hrep(P, dual_vertices_of=vh_oracle._tight_vertices)
                k = m - len(h.equalities)
                if k <= 3:
                    assert h == vh_oracle.vrep_to_hrep(P)
                assert hrep_vertices(h) == P
                dims[k] += 1
                wide += vec_parts([x for v in P.vertices for x in v])[1] > 1000
    assert min(dims.values()) >= 4 and wide >= 10, (dims, wide)


@pytest.mark.parametrize(
    "normal, bound, want",
    [
        ((F(1, 2), F(-2, 3), F(0)), F(5, 4), ((6, -8, 0), 15)),
        ((F(2, 3), F(4, 3)), F(-2, 3), ((1, 2), -1)),
        ((F(-4), F(6), F(-2)), F(-8), ((-2, 3, -1), -4)),
        ((F(3), F(0), F(-5)), F(7), ((3, 0, -5), 7)),
        ((F(0), F(0)), F(0), ((0, 0), 0)),
    ],
    ids=["fractional", "fractional-common-factor", "negative", "already-primitive", "zero"],
)
def test_primitive_rows(normal, bound, want):
    """A positive multiple with coprime integer entries, as the oracle's."""
    got = _primitive(normal, bound)
    assert got == (tuple(F(x) for x in want[0]), F(want[1])) == vh_oracle._primitive(normal, bound)
    assert all(type(x) is Fraction for x in (*got[0], got[1]))


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


EQUALITY_KINDS = ("none", "consistent", "duplicated", "rank-deficient", "inconsistent")


def _random_equalities(rng, k, kind):
    """Equality rows of one kind; all but the inconsistent ones hold at an
    integer point, and the inconsistent ones are a row and its shift."""
    if kind == "none":
        return ()
    x0 = [rng.randint(-1, 1) for _ in range(k)]

    def row():
        a = tuple(F(rng.randint(-2, 2)) for _ in range(k))
        return a, sum((x * y for x, y in zip(a, x0)), F(0))

    first = row()
    if kind == "consistent":
        return (first,)
    if kind == "duplicated":
        return (first, first)
    if kind == "rank-deficient":
        second = row()
        total = tuple(x + y for x, y in zip(first[0], second[0])), first[1] + second[1]
        return (first, second, total)
    return (first, (first[0], first[1] + 1))


def test_user_rows_match_oracle_on_empty_and_unbounded_regions():
    """Raw inequality systems with each kind of equality rows: bounded,
    empty and unbounded all occur for every consistent kind, and
    inconsistent equalities give None."""
    rng = random.Random(20260303)
    seen = {(kind, outcome): 0 for kind in EQUALITY_KINDS
            for outcome in ("polytope", "empty", "unbounded")}
    for i in range(1500):
        kind = EQUALITY_KINDS[i % len(EQUALITY_KINDS)]
        k = rng.randint(1, 3)
        H = HRep(tuple(_random_rows(rng, k)), _random_equalities(rng, k, kind))
        new = _outcome(hrep_vertices, H)
        assert new == _outcome(vh_oracle.hrep_vertices, H)
        seen[kind, "empty" if new is None else "unbounded" if new is ValueError else "polytope"] += 1
    assert seen["inconsistent", "empty"] == 300, seen
    assert min(n for (kind, _), n in seen.items() if kind != "inconsistent") >= 20, seen


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


# ---------------------------------------------------------------------------
# The k-subset oracle on three to eight states
# ---------------------------------------------------------------------------


def _hull_dim(P: Polytope) -> int:
    return lp_oracle.rank([[x - y for x, y in zip(v, P.vertices[0])] for v in P.vertices[1:]])


def subset_sweep_sets() -> list[Polytope]:
    """3-8 states, 2 to m + 3 generators with denominators 2-6: hull
    dimensions 1-7, simplices and sets with more vertices than a simplex."""
    rng = random.Random(20261022)
    return [
        Polytope.from_generators([_simplex_point(rng, m, rng.randint(2, 6)) for _ in range(g)])
        for m in range(3, 9) for g in range(2, m + 4) for _ in range(2)
    ]


def _perturbed(h: HRep, P: Polytope) -> list[HRep]:
    """The first facet dropped, cut halfway into P, and pushed past P; and
    the equalities dropped (fewer pivot columns than coordinates)."""
    (a, b), rest = h.inequalities[0], h.inequalities[1:]
    low = min(dot(a, v) for v in P.vertices)
    return [
        HRep(rest, h.equalities),
        HRep(((a, (low + b) / 2), *rest), h.equalities),
        HRep(((a, low - 1), *rest), h.equalities),
        HRep(h.inequalities, ()),
    ]


def test_single_sets_and_perturbed_facets_match_subset_oracle():
    """Each set's `HRep` equals the k-subset oracle's and gives the set back;
    on at most 12 facets, so is every answer of `hrep_vertices` on the
    perturbed systems, with bounded, empty and unbounded regions at every
    hull dimension 1-7."""
    dims = {k: 0 for k in range(1, 8)}
    seen = {(outcome, k): 0 for outcome in ("polytope", "empty", "unbounded") for k in dims}
    for P in subset_sweep_sets():
        h = vrep_to_hrep(P)
        assert h == vh_oracle.vrep_to_hrep(P, 8, vh_oracle._tight_vertices)
        assert hrep_vertices(h) == P
        k = _hull_dim(P)
        dims[k] = dims.get(k, 0) + 1
        if k == 0 or len(h.inequalities) > 12:
            continue
        for H in _perturbed(h, P):
            got = _outcome(hrep_vertices, H)
            assert got == _outcome(vh_oracle.hrep_vertices, H, 8, vh_oracle.subset_vertices)
            seen["empty" if got is None else "unbounded" if got is ValueError else "polytope", k] += 1
    assert min(dims[k] for k in range(1, 8)) >= 4, dims
    assert min(seen.values()) >= 2, seen


def subset_intersection_inputs() -> list[list[Polytope]]:
    """Two or three sets over 3-8 states, each kind twice per state count:
    independent (often disjoint), around a shared point (often a point or
    lower-dimensional), or simplices whose corners lie between a unit
    vector and the uniform prior (full-dimensional)."""
    rng = random.Random(20261023)
    cases = []
    for i in range(36):
        m = 3 + i // 3 % 6
        u = F(1, m)
        polys = []
        for _ in range(2 + (i % 4 == 0) * (m < 6)):
            if i % 3 == 2:
                ts = [F(rng.randint(1, 3), 4) for _ in range(m)]
                pts = [tuple((1 - t) * (s == j) + t * u for s in range(m)) for j, t in enumerate(ts)]
            else:
                pts = [_simplex_point(rng, m, 4) for _ in range(rng.randint(1, m))]
            polys.append(Polytope.from_generators(pts))
        if i % 3 == 1:
            shared = _simplex_point(rng, m, 4)
            polys = [Polytope.from_generators([*P.vertices, shared]) for P in polys]
        cases.append(polys)
    return cases


def test_intersections_match_subset_oracle():
    outcomes = {"empty": 0, "point": 0, "lower": 0, "full": 0}
    states = set()
    for polys in subset_intersection_inputs():
        inter = intersect_polytopes(polys)
        assert inter == vh_oracle.intersect_polytopes(polys, 8, vh_oracle.subset_vertices)
        if inter is None:
            outcomes["empty"] += 1
        elif inter.is_singleton():
            outcomes["point"] += 1
        else:
            full = _hull_dim(inter) == inter.ambient_dim - 1
            outcomes["full" if full else "lower"] += 1
            states.add(inter.ambient_dim)
    assert min(outcomes.values()) >= 4 and states == set(range(3, 9)), (outcomes, states)


def test_vertex_sets_solve_no_lp(monkeypatch):
    """`vrep_to_hrep`, `hrep_vertices` and `intersect_polytopes` on four-
    and five-state sets, built with interior and repeated points, and on
    empty and unbounded regions: no LP.  The sets are built first, as
    `remove_redundant` takes one hull LP per point of a hull of dimension
    3 or more."""
    rng = random.Random(20261024)
    pairs = []
    for m in (4, 5):
        for g in range(3, 10):
            pts = [_simplex_point(rng, m, 6) for _ in range(g)]
            pts += [tuple(sum(c) / g for c in zip(*pts)), pts[0]]
            pairs.append((Polytope.from_generators(pts),
                          Polytope.from_generators([_simplex_point(rng, m, 6) for _ in range(g)])))

    def no_lp(*args):
        raise RuntimeError("an LP was solved")

    monkeypatch.setattr(geometry, "simplex_standard", no_lp)
    kinds = set()
    for P, Q in pairs:
        h = vrep_to_hrep(P)
        assert hrep_vertices(h) == P
        for H in _perturbed(h, P):
            got = _outcome(hrep_vertices, H)
            kinds.add("empty" if got is None else "unbounded" if got is ValueError else "bounded")
        kinds.add("disjoint" if intersect_polytopes([P, Q]) is None else "meeting")
    assert kinds == {"empty", "unbounded", "bounded", "disjoint", "meeting"}, kinds


def six_state_beliefs() -> list[Polytope]:
    """The agents' belief sets of the six-state corollary 2 profile: ten
    `SplitMix64(9).simplex_point(6, 12)` draws per agent, three agents on
    one stream, each draw averaged with the uniform prior."""
    rng = SplitMix64(9)
    u = F(1, 6)
    return [
        Polytope.from_generators(
            [tuple((x + u) / 2 for x in rng.simplex_point(6, 12)) for _ in range(10)]
        )
        for _ in range(3)
    ]


def test_six_state_intersection_vertices():
    """The 726 vertices of the six-state intersection: each satisfies every
    stacked row and is tight on six independent ones, equalities included."""
    sets = six_state_beliefs()
    inter = intersect_polytopes(sets)
    assert len(inter.vertices) == 726
    ineqs, eqs = [], []
    for P in sets:
        h = vrep_to_hrep(P)
        ineqs += h.inequalities
        eqs += h.equalities
    for v in inter.vertices:
        assert all(dot(a, v) == b for a, b in eqs)
        assert all(dot(a, v) <= b for a, b in ineqs)
        tight = [list(a) for a, b in ineqs if dot(a, v) == b] + [list(a) for a, _ in eqs]
        assert lp_oracle.rank(tight) == 6
