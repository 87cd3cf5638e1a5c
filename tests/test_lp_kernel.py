"""The integer-preserving pivot kernel against the `Fraction` oracles.

`geometry.simplex_standard` pivots an integer tableau whose rows each keep
their own denominator; `lp_oracle.simplex_standard` is the `Fraction`
tableau it replaced.  Bland's rule reads only signs, zero tests and ratio
comparisons, so both must return exactly the same `(status, z, value)`.
`geometry.rref` runs Gauss-Jordan on the same pivot; RREF is unique, so it
and everything built on it must equal `lp_oracle`'s `Fraction` elimination.
"""

import collections
import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from paretostar import DimensionMismatchError, characterizations, geometry
from paretostar.geometry import nullspace, rank, rref, simplex_standard, solve_linear
from paretostar.harness import GenParams, random_profile
from paretostar.preferences import check_c_minimal_agreement, validate_profile

F = Fraction


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def _assert_exact(rows, rhs, objective, result):
    status, z, value = result
    if status != "optimal":
        assert z is None and value is None
        return
    assert all(x >= 0 for x in z)
    assert [_dot(r, z) for r in rows] == list(rhs)
    assert value == _dot(objective, z)


def _solve_both(rows, rhs, objective):
    new = simplex_standard(rows, rhs, objective)
    old = lp_oracle.simplex_standard(rows, rhs, objective)
    assert new == old
    assert all(type(x) is Fraction for x in new[1] or ())
    _assert_exact(rows, rhs, objective, new)
    return new


def _random_lp(rng):
    """m 1-6 rows, n 1-8 columns, denominators <= 6, about 30 % zeros."""

    def num():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    m, n = rng.randint(1, 6), rng.randint(1, 8)
    rows = [[num() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        # A linearly dependent row: a copy, or a combination of two rows.
        a, b = rng.sample(range(m), 2)
        c = num()
        rows[a] = [c * x + y for x, y in zip(rows[b], rows[a])] if c else list(rows[b])
    if rng.random() < 0.5:
        # Feasible by construction (rhs of either sign), so that optimal
        # and unbounded outcomes are as common as infeasible ones.
        z0 = [max(num(), F(0)) for _ in range(n)]
        rhs = [_dot(r, z0) for r in rows]
    else:
        rhs = [num() for _ in range(m)]
    objective = [num() for _ in range(n)] if rng.random() < 0.85 else [F(0)] * n
    return rows, rhs, objective


def test_matches_oracle_on_seeded_random_lps():
    rng = random.Random(20240611)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(2000):
        status, _, _ = _solve_both(*_random_lp(rng))
        seen[status] += 1
    assert min(seen.values()) >= 200, seen


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def standard_lps(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    rows = [[draw(fracs) for _ in range(n)] for _ in range(m)]
    rhs = [draw(fracs) for _ in range(m)]
    objective = [draw(fracs) for _ in range(n)]
    return rows, rhs, objective


@settings(max_examples=150, derandomize=True, deadline=None)
@given(standard_lps())
def test_matches_oracle_property(lp):
    _solve_both(*lp)


@pytest.fixture
def spy(monkeypatch):
    """Record each pivot entry and the basis size of each Bland loop."""
    seen = {"pivot": [], "basis": [], "first_tab": None}
    pivot, loop = geometry._pivot, geometry._bland_loop

    def spy_pivot(tab, dens, d, row, col):
        seen["pivot"].append(tab[row][col])
        return pivot(tab, dens, d, row, col)

    def spy_loop(tab, dens, basis, d, n):
        if seen["first_tab"] is None:
            seen["first_tab"] = [list(r) for r in tab]
        seen["basis"].append(len(basis))
        return loop(tab, dens, basis, d, n)

    monkeypatch.setattr(geometry, "_pivot", spy_pivot)
    monkeypatch.setattr(geometry, "_bland_loop", spy_loop)
    return seen


def test_negative_pivot_out_of_an_artificial(spy):
    # Phase 1 ends with the artificial of row 2 basic at zero and a negative
    # first entry in its row; without re-signing the denominator, phase 2
    # reads every sign backwards and returns z = (0, 2, -2).
    rows = [[F(1, 2), F(0), F(-1, 2)], [F(0), F(-1), F(-1)]]
    rhs = [F(1), F(0)]
    objective = [F(1), F(0), F(-2)]
    status, z, value = _solve_both(rows, rhs, objective)
    assert any(p < 0 for p in spy["pivot"])
    assert status == "optimal" and z == [F(2), F(0), F(0)] and value == 2


def test_redundant_row_is_dropped(spy):
    rows = [[F(1, 2), F(1), F(0)], [F(1), F(2), F(0)], [F(0), F(1, 3), F(1)]]
    rhs = [F(3, 2), F(3), F(1)]
    objective = [F(1), F(1), F(-1)]
    status, z, value = _solve_both(rows, rhs, objective)
    # Phase 2 runs on two rows: the doubled first row left the tableau.
    assert spy["basis"] == [3, 2]
    assert status == "optimal" and value == 2


def test_all_integer_data_is_not_rescaled(spy):
    rows = [[1, 2, 1, 0], [3, -1, 0, 1]]
    rhs = [4, -2]
    objective = [2, 1, 0, 0]
    status, z, value = _solve_both(rows, rhs, objective)
    # L = 1: the phase-1 tableau is the sign-flipped input with its rhs.
    assert spy["first_tab"][:2] == [[1, 2, 1, 0, 4], [-3, 1, 0, -1, 2]]
    assert status == "optimal"


def test_large_coprime_denominators():
    p, q, r, s = 1009, 1013, 1019, 1021
    rows = [
        [F(1, p), F(2, q), F(-1, r), F(0)],
        [F(3, s), F(0), F(1, p), F(-5, q)],
        [F(1, r), F(1, s), F(1, p), F(1, q)],
    ]
    rhs = [F(1, q * r), F(-2, p), F(1)]
    objective = [F(7, p), F(-1, s), F(2, r), F(1, q)]
    status, z, value = _solve_both(rows, rhs, objective)
    assert status == "optimal"
    assert any(x.denominator > 10**6 for x in z)


def _zero_objective_lp(rng):
    """A feasibility LP with 1-3 redundant rows (copies, multiples or sums of
    other rows, rhs included), all-int or `Fraction` entries, zero objective."""
    ints = rng.random() < 0.5

    def num():
        if rng.random() < 0.3:
            return 0 if ints else F(0)
        return rng.randint(-9, 9) if ints else F(rng.randint(-9, 9), rng.randint(1, 6))

    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[num() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.7:
        z0 = [max(num(), 0) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(r, z0)), 0) for r in rows]
    else:
        rhs = [num() for _ in range(m)]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        c = rng.choice((1, -1, 2, -3) if ints else (F(1), F(-1), F(2, 3), F(-5, 2)))
        rows.append([c * x + y for x, y in zip(rows[a], rows[b])] if a != b
                    else [c * x for x in rows[a]])
        rhs.append(c * rhs[a] + rhs[b] if a != b else c * rhs[a])
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], [0 if ints else F(0)] * n


def test_zero_objective_lps_with_redundant_rows_match_oracle():
    """Phase 1 and the artificial drive-out alone give the oracle's answer."""
    rng = random.Random(20261020)
    seen = collections.Counter()
    for _ in range(800):
        rows, rhs, objective = _zero_objective_lp(rng)
        got = simplex_standard(rows, rhs, objective)
        want = lp_oracle.simplex_standard(
            [_as_fractions(r) for r in rows], _as_fractions(rhs), _as_fractions(objective)
        )
        assert got == want, (rows, rhs)
        assert got[0] != "unbounded"
        if got[0] == "optimal":
            assert type(got[2]) is Fraction and got[2] == 0
            assert all(type(x) is Fraction for x in got[1])
            _assert_exact(rows, rhs, objective, got)
        assert geometry.feasible_nonneg(rows, rhs) == lp_oracle.feasible_nonneg(rows, rhs)
        seen[got[0]] += 1
        seen["int rows"] += type(objective[0]) is int
        augmented = [_as_fractions([*r, b]) for r, b in zip(rows, rhs)]
        seen["rank deficient"] += lp_oracle.rank(augmented) < len(rows)
    assert seen["optimal"] >= 400 and seen["infeasible"] >= 100, seen
    assert seen["int rows"] >= 300 and seen["rank deficient"] == 800, seen


@pytest.mark.parametrize(
    "rows, rhs, objective",
    [
        ([[F(1), F(2)]], [F(1), F(2)], [F(1), F(1)]),  # rhs longer than rows
        ([[F(1), F(2)], [F(3), F(4)]], [F(1)], [F(1), F(1)]),  # rhs shorter
        ([[F(1), F(2)]], [F(1)], [F(1)]),  # row wider than objective
    ],
)
def test_mismatched_shapes_are_rejected(rows, rhs, objective):
    with pytest.raises(DimensionMismatchError):
        simplex_standard(rows, rhs, objective)


# ---------------------------------------------------------------------------
# rref and the linear algebra built on it
# ---------------------------------------------------------------------------

COPRIME = (991, 997, 1009, 1013, 1019, 1021)


def _random_matrix(rng):
    """Rows 0-6, width 1-7, with zero, dependent and int-typed entries."""

    def num(kind):
        if rng.random() < 0.3:
            return 0 if kind == "int" else F(0)
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "coprime":
            return F(rng.randint(-9, 9), rng.choice(COPRIME))
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    kind = rng.choice(("int", "small", "small", "coprime"))
    m, n = rng.randint(0, 6), rng.randint(1, 7)
    rows = [[num(kind) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        c = rng.choice((0, 1, -2, F(3, 7)))
        rows[a] = [c * x + y for x, y in zip(rows[b], rows[a])] if c else list(rows[b])
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    if rng.random() < 0.2:
        col = rng.randrange(n)
        for r in rows:
            r[col] = F(0)
    if rng.random() < 0.5:
        x0 = [num(kind) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(r, x0)), F(0)) for r in rows]
    else:
        rhs = [num(kind) for _ in range(m)]
    return rows, rhs


def _all_fractions(values):
    return all(type(x) is Fraction for v in values for x in v)


def _check_linear_algebra(rows, rhs):
    width = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    assert (red, pivots) == lp_oracle.rref(rows)
    assert _all_fractions(red)
    assert rank(rows) == lp_oracle.rank(rows) == len(pivots)
    null = nullspace(rows, width)
    assert null == lp_oracle.nullspace(rows, width) and _all_fractions(null)
    sol = solve_linear(rows, rhs)
    assert sol == lp_oracle.solve_linear(rows, rhs)
    if sol is not None:
        assert _all_fractions([sol[0], *sol[1]])
    return pivots


def test_rref_matches_oracle_on_seeded_matrices():
    rng = random.Random(20261018)
    negative_pivot = rank_deficient = 0
    for _ in range(2500):
        rows, rhs = _random_matrix(rng)
        pivots = _check_linear_algebra(rows, rhs)
        rank_deficient += len(pivots) < len(rows)
        # The first pivot of the elimination is the first nonzero entry of
        # the first nonzero column, in the first row that has one.
        first = next((r[pivots[0]] for r in rows if r[pivots[0]]), None) if pivots else None
        negative_pivot += first is not None and first < 0
    assert rank_deficient >= 500 and negative_pivot >= 500


ratios = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(F, st.integers(-9, 9), st.sampled_from(COPRIME)),
)


@st.composite
def matrices(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    rows = [[draw(ratios) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        rows.append([a - b for a, b in zip(rows[0], rows[1])])
    rhs = [draw(ratios) for _ in rows]
    return rows, rhs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices())
def test_rref_matches_oracle_property(system):
    _check_linear_algebra(*system)


# ---------------------------------------------------------------------------
# Every LP of a seeded many-agent sweep
# ---------------------------------------------------------------------------

def _sweep_profiles(count=60):
    """n = 3, m = 3 profiles with 1-12 vertex combos, each with a Minkowski society."""
    rng = random.Random(20261019)
    seed = 0
    while count:
        seed += 1
        base = random_profile(GenParams(
            seed=seed, n=3, m=3, d=2, max_vertices=3, denom_bound=6, society_rule="none",
        ))
        if characterizations.combo_count([a.beliefs for a in base.agents]) > 12:
            continue
        if validate_profile(base) or check_c_minimal_agreement(base) is None:
            continue
        alpha = tuple(F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3))
        weights = [rng.randint(1, 6) for _ in range(3)]
        gamma = tuple(F(w, sum(weights)) for w in weights)
        count -= 1
        yield base, alpha, F(rng.randint(-3, 3)), gamma


@functools.lru_cache(maxsize=None)
def _sweep_lps():
    """Every LP the sweep solves, and the (pivot, row) pairs a pivot left lagging.

    A row lags when its entry in the pivot column is 0, so the pivot does not
    rewrite it, and its denominator then differs from the new one.
    """
    lps, lagging = [], [0]
    solve, pivot = geometry.simplex_standard, geometry._pivot

    def spy_solve(rows, rhs, objective):
        lps.append(([list(r) for r in rows], list(rhs), list(objective)))
        return solve(rows, rhs, objective)

    def spy_pivot(tab, dens, d, row, col):
        d = pivot(tab, dens, d, row, col)
        lagging[0] += sum(1 for r, q in zip(tab, dens) if not r[col] and q != d)
        return d

    ch = characterizations
    patched = [(geometry, "simplex_standard", spy_solve), (ch, "simplex_standard", spy_solve),
               (geometry, "_pivot", spy_pivot)]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patched]
    try:
        for mod, name, fn in patched:
            setattr(mod, name, fn)
        for base, alpha, beta, gamma in _sweep_profiles():
            society = ch.aggregate_society(base, alpha, beta, "minkowski", gamma=gamma)
            prof = dataclasses.replace(base, society=society)
            # Minkowski societies meet both bounds (criterion 06).
            thm2, eq4 = ch.check_thm2_condition(prof), ch.check_eq4_dght2(prof)
            assert thm2.holds and eq4.holds
            ch.check_eq1_dght1(prof)
            ch.check_corollary2(prof)
            ch.check_seu_existence([a.beliefs for a in prof.agents])
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return lps, lagging[0]


def _as_fractions(values):
    return [F(x) for x in values]


def test_every_lp_of_a_many_agent_sweep_matches_oracle():
    lps, _ = _sweep_lps()
    assert len(lps) >= 1000
    seen = collections.Counter()
    for rows, rhs, objective in lps:
        # The oracle gets the `Fraction` data it was written for.
        want = lp_oracle.simplex_standard(
            [_as_fractions(r) for r in rows], _as_fractions(rhs), _as_fractions(objective)
        )
        got = simplex_standard(rows, rhs, objective)
        assert got == want
        assert all(type(x) is Fraction for x in got[1] or ())
        seen[got[0]] += 1
    assert seen["optimal"] >= 100 and seen["infeasible"] >= 100, seen


def test_rows_lag_behind_the_pivot_in_the_sweep():
    _, lagging = _sweep_lps()
    assert lagging >= 1000


# ---------------------------------------------------------------------------
# remove_redundant: no LP for the lexicographic extremes
# ---------------------------------------------------------------------------


def _random_point_set(rng):
    """1-12 points in dimension 2-4 with duplicates, collinear runs and
    repeated lexicographic extremes, in shuffled order."""
    d = rng.randint(2, 4)

    def point():
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))

    pts = [point() for _ in range(rng.randint(1, 6))]
    if len(pts) > 1 and rng.random() < 0.5:
        a, b = rng.sample(pts, 2)
        for t in rng.sample((F(-1, 2), F(1, 3), F(1, 2), F(2, 3), F(3, 2)), rng.randint(1, 3)):
            pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    while rng.random() < 0.4:
        pts.append(rng.choice(pts))
    if rng.random() < 0.4:
        pts += [min(pts), max(pts)]
    del pts[12:]
    rng.shuffle(pts)
    return pts


def test_remove_redundant_matches_oracle():
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(400):
        pts = _random_point_set(rng)
        got = geometry.remove_redundant(pts)
        assert got == lp_oracle.remove_redundant(pts), pts
        seen["duplicates"] += len(set(pts)) < len(pts)
        seen["extreme repeated"] += pts.count(min(pts)) > 1 or pts.count(max(pts)) > 1
        seen["redundant"] += len(got) < len(set(pts))
        seen["single"] += len(got) == 1
    assert min(seen.values()) >= 20, seen


def test_two_point_set_solves_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(geometry, "convex_weights", no_lp)
    pair = [(F(3, 10), F(7, 10)), (F(3, 5), F(2, 5))]
    assert geometry.remove_redundant(pair + pair[::-1]) == pair


@pytest.mark.parametrize(
    "points",
    [
        [(F(0), F(0)), (F(1), F(1), F(1))],  # two points: neither reaches an LP
        [(F(0), F(0)), (F(1), F(1)), (F(2),)],  # the short point is the greatest
        [(F(1), F(1)), (F(0), F(0), F(0)), (F(1, 2), F(1, 2))],
    ],
)
def test_remove_redundant_rejects_mixed_dimensions(points):
    with pytest.raises(DimensionMismatchError):
        geometry.remove_redundant(points)
    with pytest.raises(DimensionMismatchError):
        lp_oracle.remove_redundant(points)
