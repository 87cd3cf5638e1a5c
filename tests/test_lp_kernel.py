"""The integer-preserving simplex kernel against the `Fraction` oracle.

`geometry.simplex_standard` pivots an integer tableau over one common
denominator; `lp_oracle.simplex_standard` is the `Fraction` tableau it
replaced.  Bland's rule reads only signs, zero tests and ratio comparisons,
so both must return exactly the same `(status, z, value)`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from paretostar import DimensionMismatchError, geometry
from paretostar.geometry import simplex_standard

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

    def spy_pivot(tab, basis, d, row, col):
        seen["pivot"].append(tab[row][col])
        return pivot(tab, basis, d, row, col)

    def spy_loop(tab, basis, d, n):
        if seen["first_tab"] is None:
            seen["first_tab"] = [list(r) for r in tab]
        seen["basis"].append(len(basis))
        return loop(tab, basis, d, n)

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
