"""The integer-preserving pivot kernel against the `Fraction` oracles.

`geometry.simplex_standard` pivots an integer tableau whose rows each keep
their own denominator; `lp_oracle.simplex_standard` is the `Fraction`
tableau it replaced.  The kernel takes `int` entries only, so rational data
is cleared over one common scale first (`helpers.cleared_lp`) and the
oracle gets the `Fraction` data.  Bland's rule reads only signs, zero tests
and ratio comparisons, so both must return exactly the same
`(status, z, value)`.
`geometry._echelon` runs Gauss-Jordan on the same pivot and keeps the RREF
in integer rows over their denominators; RREF is unique, so those rows and
everything read off them must equal `lp_oracle`'s `Fraction` elimination.
"""

import collections
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from helpers import cleared_lp, interior_point, table_act
from paretostar import DimensionMismatchError, axioms, characterizations, geometry
from paretostar.geometry import _echelon, nullspace, rank, simplex_standard, vec_parts
from paretostar.harness import GenParams, SplitMix64, _segment_rows, random_profile
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


def _solve_cleared(rows, rhs, objective):
    """`simplex_standard` on rational data cleared by `cleared_lp`, its value
    divided back by the scale: the answer for the rational LP."""
    *lp, scale = cleared_lp(rows, rhs, objective)
    status, z, value = simplex_standard(*lp)
    return status, z, None if value is None else value / scale


def _solve_both(rows, rhs, objective):
    new = _solve_cleared(rows, rhs, objective)
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


def test_zero_objective_lps_with_redundant_rows_match_oracle(monkeypatch):
    """A feasibility LP stops right after phase 1, often with an artificial
    still basic at zero, and gives the oracle's answer.  The same rows under
    a nonzero objective still drive every such artificial out: phase 2
    starts on a basis of structural columns only."""
    loops = []  # per Bland loop: (an artificial basic on entry, on exit)
    loop = geometry._bland_loop

    def spy_loop(tab, dens, basis, d, n):
        entry = any(b >= n for b in basis)
        result = loop(tab, dens, basis, d, n)
        loops.append((entry, any(b >= n for b in basis)))
        return result

    monkeypatch.setattr(geometry, "_bland_loop", spy_loop)
    rng, objectives = random.Random(20261020), random.Random(20261026)
    seen = collections.Counter()
    for _ in range(800):
        rows, rhs, objective = _zero_objective_lp(rng)
        loops.clear()
        got = _solve_cleared(rows, rhs, objective)
        want = lp_oracle.simplex_standard(
            [_as_fractions(r) for r in rows], _as_fractions(rhs), _as_fractions(objective)
        )
        assert got == want, (rows, rhs)
        assert got[0] != "unbounded"
        assert len(loops) == 1  # no phase 2
        if got[0] == "optimal":
            assert type(got[2]) is Fraction and got[2] == 0
            assert all(type(x) is Fraction for x in got[1])
            _assert_exact(rows, rhs, objective, got)
            seen["artificial left basic"] += loops[0][1]
        ints, ints_rhs, _, _ = cleared_lp(rows, rhs, objective)
        assert geometry.feasible_nonneg(ints, ints_rhs) == lp_oracle.feasible_nonneg(rows, rhs)
        seen[got[0]] += 1
        seen["int rows"] += type(objective[0]) is int
        augmented = [_as_fractions([*r, b]) for r, b in zip(rows, rhs)]
        seen["rank deficient"] += lp_oracle.rank(augmented) < len(rows)

        costs = [F(objectives.randint(-4, 4), objectives.randint(1, 3)) for _ in objective]
        costs[objectives.randrange(len(costs))] = F(1)
        loops.clear()
        assert _solve_both(rows, rhs, costs)[0] == got[0] or got[0] == "optimal"
        if got[0] == "optimal":
            assert len(loops) == 2 and not loops[1][0], (rows, rhs, costs)
            seen["drive-out before phase 2"] += loops[0][1]
    assert seen["optimal"] >= 400 and seen["infeasible"] >= 100, seen
    assert seen["int rows"] >= 300 and seen["rank deficient"] == 800, seen
    assert seen["artificial left basic"] >= 200, seen
    assert seen["drive-out before phase 2"] == seen["artificial left basic"], seen


@pytest.mark.parametrize("where", ["rows", "rhs", "objective"])
@pytest.mark.parametrize("bad", [F(1), F(1, 2), True, 1.0])
def test_non_int_entries_raise_type_error(where, bad):
    lp = {"rows": [[1, 2], [0, 1]], "rhs": [3, 1], "objective": [1, 0]}
    if where == "rows":
        lp["rows"][1][0] = bad
    else:
        lp[where][0] = bad
    with pytest.raises(TypeError, match="int entries"):
        simplex_standard(lp["rows"], lp["rhs"], lp["objective"])


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
# _echelon and the linear algebra read off it
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


def _check_echelon(rows):
    """`_echelon`'s rows over their denominators are the oracle's RREF, and
    each row's pivot entry is its denominator."""
    mat, dens, pivots = _echelon(rows)
    assert ([[F(a, q) for a in row] for row, q in zip(mat, dens)], pivots) == lp_oracle.rref(rows)
    assert all(type(a) is int for row in mat for a in row)
    assert [row[p] for row, p in zip(mat, pivots)] == dens and all(q > 0 for q in dens)
    return pivots


def _check_linear_algebra(rows, rhs):
    """The coefficient rows and the augmented system, as the V<->H solves
    eliminate them."""
    width = len(rows[0]) if rows else 0
    pivots = _check_echelon(rows)
    _check_echelon([[*r, b] for r, b in zip(rows, rhs)])
    assert rank(rows) == lp_oracle.rank(rows) == len(pivots)
    null = nullspace(rows, width)
    assert null == lp_oracle.nullspace(rows, width) and _all_fractions(null)
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


def test_echelon_of_int_rows_mixed_with_fraction_rows_matches_oracle():
    """The integer frame hands `_echelon` rows cleared by `vec_parts`, the
    dual and augmented systems bring `Fraction` rows; a matrix mixing both
    reduces as the oracle's, with the pivots of its `Fraction` form."""
    rng = random.Random(20261020)
    mixed = 0
    for _ in range(800):
        rows, rhs = _random_matrix(rng)
        cleared = [list(vec_parts(r)[0]) if rng.random() < 0.5 else r for r in rows]
        assert _check_linear_algebra(cleared, rhs) == lp_oracle.rref(rows)[1]
        kinds = {type(x) for r in cleared for x in r if x}
        mixed += kinds == {int, Fraction}
    assert mixed >= 200, mixed


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

def _sweep_profiles(count=100):
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


def _lp_guard_lps():
    """Every kernel LP of an lp-guard-style batch, as (rows, rhs, objective).

    Per profile (2-3 agents, 2-3 states, Minkowski and pooled societies):
    the c-minimal pair's box LP, three interior combos through `combo_meets`,
    two common-taste segment act pairs through the exchange margin LPs, and
    the separation of each agent's vertices from P0.
    """
    lps = []
    solve = geometry.simplex_standard

    def spy_solve(rows, rhs, objective):
        lps.append((rows, rhs, objective))
        return solve(rows, rhs, objective)

    ch = characterizations
    patched = [(geometry, "simplex_standard"), (ch, "simplex_standard")]
    saved = [(mod, name, getattr(mod, name)) for mod, name in patched]
    try:
        for mod, name in patched:
            setattr(mod, name, spy_solve)
        for seed in range(60):
            params = GenParams(seed=seed, n=2 + seed % 2, m=2 + (seed // 2) % 2, d=1 + seed % 3,
                               max_vertices=1 + seed % 3, denom_bound=6,
                               society_rule=("minkowski", "hull-union")[seed % 2])
            try:
                prof = random_profile(params)
            except AssertionError:
                continue
            rng = SplitMix64(seed)
            soc = prof.society.beliefs
            pair = check_c_minimal_agreement.__wrapped__(prof)
            for _ in range(3):
                ch.combo_meets(tuple(interior_point(rng, a.beliefs) for a in prof.agents), soc)
            if pair is not None:
                table = _segment_rows(pair, 6, ())
                for _ in range(2):
                    f, g = (table_act(rng, prof.states, table)[0] for _ in range(2))
                    axioms.exchange_pareto_star_check(prof, f, g)
            for a in prof.agents:
                geometry.separate(list(a.beliefs.vertices), soc)
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return lps


def test_every_kernel_call_carries_int_data():
    """Every LP entry clears its data: the sweep's hull, meet, decomposition
    and single-prior LPs and an lp-guard batch's box, meet and margin LPs all
    reach `simplex_standard` with `int` rows, rhs and objective."""
    sweep, _ = _sweep_lps()
    batch = _lp_guard_lps()
    seen = collections.Counter()
    for source, lps in (("sweep", sweep), ("lp-guard", batch)):
        for rows, rhs, objective in lps:
            assert all(type(x) is int for v in (*rows, rhs, objective) for x in v)
            seen[source, "feasibility" if not any(objective) else "optimization"] += 1
    assert len(batch) >= 300 and min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# remove_redundant: corners of a line or plane without an LP, the LP loop
# from dimension 3, no LP for the lexicographic extremes
# ---------------------------------------------------------------------------


def _random_point_set(rng):
    """1-12 points of an affine hull of dimension at most k in R^d, d 2-4 and
    k 0-d, with duplicates, collinear runs and repeated lexicographic
    extremes, in shuffled order."""
    d = rng.randint(2, 4)
    k = rng.randint(0, d)
    base = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    dirs = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(k)]

    def point():
        c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
        return tuple(b + sum((x * u[j] for x, u in zip(c, dirs)), F(0)) for j, b in enumerate(base))

    pts = [point() for _ in range(rng.randint(1, 8))]
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


def _hull_dim(pts) -> int:
    return lp_oracle.rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])


def test_remove_redundant_matches_oracle():
    """Every hull dimension k <= d in R^d, d 2-4: a line in R^3 and a plane
    in R^4 among the planar route's inputs, k >= 3 on the LP loop."""
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(1500):
        pts = _random_point_set(rng)
        got = geometry.remove_redundant(pts)
        assert got == lp_oracle.remove_redundant(pts), pts
        seen[f"k={_hull_dim(pts)} in R^{len(pts[0])}"] += 1
        seen["duplicates"] += len(set(pts)) < len(pts)
        seen["extreme repeated"] += pts.count(min(pts)) > 1 or pts.count(max(pts)) > 1
        seen["redundant"] += len(got) < len(set(pts))
        seen["collinear dropped"] += any(
            _hull_dim([a, b, p]) == 1
            for p in set(pts) - set(got) for a, b in itertools.combinations(got, 2)
        )
        seen["single"] += len(got) == 1
    cases = {f"k={k} in R^{d}" for d in (2, 3, 4) for k in range(d + 1)}
    assert cases <= set(seen) and min(seen.values()) >= 30, seen


def test_two_point_set_solves_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(geometry, "convex_weights", no_lp)
    pair = [(F(3, 10), F(7, 10)), (F(3, 5), F(2, 5))]
    assert geometry.remove_redundant(pair + pair[::-1]) == pair


def test_integer_minkowski_sums_match_oracle():
    """Distinct sums of integer simplex points, as `_minkowski_vertices`
    passes them: in a plane over three states, in a 3-dimensional hull over
    four.  The oracle gets the same points as `Fraction`s."""
    rng = random.Random(20261021)
    seen = collections.Counter()
    for _ in range(300):
        m = rng.randint(3, 4)

        def simplex_ints():
            cuts = sorted(rng.randint(0, 6) for _ in range(m - 1))
            return tuple(b - a for a, b in zip((0, *cuts), (*cuts, 6)))

        sets = [[simplex_ints() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 3))]
        sums = list(dict.fromkeys(tuple(map(sum, zip(*c))) for c in itertools.product(*sets)))
        got = geometry.remove_redundant(sums)
        assert got == lp_oracle.remove_redundant([tuple(map(F, s)) for s in sums]), sums
        assert all(type(x) is int for p in got for x in p)
        if len(sums) > 2:
            seen[f"k={_hull_dim(sums)}, m={m}"] += 1
        seen["redundant"] += len(got) < len(sums)
    assert {"k=1, m=3", "k=2, m=3", "k=2, m=4", "k=3, m=4"} <= set(seen), seen
    assert min(seen[k] for k in ("k=2, m=3", "k=3, m=4", "redundant")) >= 30, seen


def _count_lps(monkeypatch) -> list:
    calls = []
    solve = geometry.simplex_standard

    def counting(rows, rhs, objective):
        calls.append(len(rows))
        return solve(rows, rhs, objective)

    monkeypatch.setattr(geometry, "simplex_standard", counting)
    return calls


def test_planar_sets_solve_no_lp(monkeypatch):
    lps = _count_lps(monkeypatch)
    third = F(1, 3)
    square = [(F(0), F(0), F(1)), (F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(1))]
    centre = (F(1, 2), F(1, 2), F(1))
    assert geometry.remove_redundant([centre, *square]) == square
    line = [(F(0), third, F(2, 3)), (third, third, third), (F(2, 3), third, F(0))]
    assert geometry.remove_redundant(line) == [line[0], line[2]]
    in_r4 = [(0, 0, 0, 6), (6, 0, 0, 0), (0, 6, 0, 0), (2, 2, 0, 2), (3, 3, 0, 0)]
    assert geometry.remove_redundant(in_r4) == in_r4[:3]
    assert lps == []


def test_three_dimensional_set_with_an_interior_point_solves_an_lp(monkeypatch):
    lps = _count_lps(monkeypatch)
    corners = [(F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)),
               (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1))]
    centre = (F(1, 4),) * 4
    assert geometry.remove_redundant([*corners[:2], centre, *corners[2:]]) == corners
    assert len(lps) >= 1


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
