"""Differential tests: the margin-LP builders against the old hand-built LPs.

`axioms._exchange_star_prior` used to build its margin LP over free
variables through `lp_solve`; it now runs `max_margin` over the unit
simplex of hull weights, and for a holder with one belief vertex it solves
no LP at all (the margin is the least value at that vertex).  `separate` and
`check_c_minimal_agreement` built their box-bounded margin LPs row by row;
both now call `geometry.box_margin`.  The
old formulations are kept verbatim in `tests/lp_oracle.py`, and every
certificate must come out exactly equal: the same prior and margin, the
same hyperplane and direction pair, the same None.

A certificate-free exchange-pareto-star check asks `positive_margin`, phase
1 of one feasibility LP, in place of `max_margin`; it must answer whether
`max_margin` finds a positive margin, on random rows and on every holder
of the sweep.
"""

import random
from collections import Counter
from fractions import Fraction

import lp_oracle
from paretostar import axioms
from paretostar.axioms import _exchange_star_prior
from paretostar.documents import dumps
from paretostar import geometry
from paretostar.geometry import max_margin, positive_margin, separate, vsub
from paretostar.harness import (
    GenParams,
    SplitMix64,
    _entry_table,
    _segment_rows,
    random_profile,
)
from paretostar.preferences import (
    _on_pair,
    _vertex_gaps,
    check_c_minimal_agreement,
    utility_profile,
)

from helpers import general_act, gradients, table_act

F = Fraction
RULES = ("minkowski", "hull-union", "perturbed")


def seeded_profiles(count):
    """(seed, profile) over every society rule, 2-4 agents, 1-3 vertices."""
    for seed in range(count):
        n = 2 + seed % 3
        params = GenParams(
            seed=seed,
            n=n,
            m=2 + (seed // 3) % 2,
            d=1 + (seed // 7) % 4,
            max_vertices=1 + (seed // 2) % 3,
            society_rule=RULES[seed % 3],
        )
        yield seed, random_profile(params)


def _general(rng, prof):
    """An act with entries in [-3, 3] and denominators up to 4."""
    return general_act(rng, prof.states, prof.outcome_dim, _entry_table(3, 4, gradients(prof)))[0]


def _sign(x) -> str:
    return "positive" if x > 0 else "zero" if x == 0 else "negative"


def test_exchange_star_priors_match_oracle():
    """Every holder's certificate, the one-vertex holders (no LP) included."""
    compared = positive = 0
    one_vertex = Counter()
    for seed, prof in seeded_profiles(150):
        rng = SplitMix64(seed)
        pair = check_c_minimal_agreement(prof)
        pairs = []
        for _ in range(3):
            pairs.append((_general(rng, prof), _general(rng, prof)))
            if pair is not None:
                table = _segment_rows(pair, 6, ())
                pairs.append((table_act(rng, prof.states, table)[0], table_act(rng, prof.states, table)[0]))
        for f, g in pairs:
            diffs = [
                vsub(utility_profile(a.utility, g), utility_profile(a.utility, f))
                for a in prof.agents
            ]
            tastes = [_on_pair(a.utility, f, g) for a in prof.agents]
            for holder in (*prof.agents, prof.society):
                new = _exchange_star_prior(holder, tastes)
                old = lp_oracle.exchange_star_prior(diffs, holder)
                assert new == old, (seed, f, g)
                assert bool(_exchange_star_prior(holder, tastes, False)) is (old is not None)
                compared += 1
                positive += old is not None
                verts = holder.beliefs.cleared
                if len(verts) == 1:
                    least = min(F(-n, d) for t in tastes for _, n, d in _vertex_gaps(verts, t))
                    one_vertex[_sign(least)] += 1
    assert compared > 2000
    assert positive > 300
    assert one_vertex["positive"] >= 300 and one_vertex["negative"] >= 800, one_vertex
    assert one_vertex["zero"] >= 40, one_vertex


def test_exchange_star_solves_one_margin_lp_per_multi_vertex_holder(monkeypatch):
    """A one-vertex holder is decided without an LP; every other holder by one."""
    solved = []

    def counting(*args):
        solved.append(args)
        return max_margin(*args)

    monkeypatch.setattr(axioms, "max_margin", counting)
    checks = Counter()
    for seed, prof in seeded_profiles(60):
        rng = SplitMix64(seed)
        for _ in range(2):
            f, g = _general(rng, prof), _general(rng, prof)
            solved.clear()
            axioms.exchange_pareto_star_check(prof, f, g)
            sizes = [len(a.beliefs.vertices) for a in prof.agents]
            assert len(solved) == sum(k >= 2 for k in sizes), (seed, sizes)
            checks["one-vertex holders"] += 1 in sizes
            checks["multi-vertex holders"] += max(sizes) >= 2
    assert min(checks.values()) >= 40, checks


def test_positive_margin_answers_max_margin():
    """Some mu >= 0 has row·mu >= den for every row exactly when the unit
    simplex holds a point with a positive margin."""
    rng = random.Random(29)
    answers = Counter()
    for _ in range(6000):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        den = rng.randint(1, 12)
        want = max_margin(rows, den) is not None
        assert positive_margin(rows, den) is want, (rows, den)
        answers[want] += 1
    assert answers[True] >= 2000 and answers[False] >= 2000, answers


def test_certificate_free_exchange_star_solves_phase_one_only(monkeypatch):
    """Without certificates a multi-vertex holder is decided by one
    feasibility LP that stops at phase 1, and no margin LP is solved."""
    margins, feasibility = [], []
    feasible_nonneg = geometry.feasible_nonneg

    def counting(rows, rhs):
        feasibility.append(rows)
        return feasible_nonneg(rows, rhs)

    monkeypatch.setattr(axioms, "max_margin", lambda *args: margins.append(args))
    monkeypatch.setattr(geometry, "feasible_nonneg", counting)
    holders = Counter()
    for seed, prof in seeded_profiles(60):
        rng = SplitMix64(seed)
        for _ in range(2):
            f, g = _general(rng, prof), _general(rng, prof)
            tastes = [_on_pair(a.utility, f, g) for a in prof.agents]
            for holder in prof.agents:
                feasibility.clear()
                _exchange_star_prior(holder, tastes, False)
                multi = len(holder.beliefs.vertices) >= 2
                assert len(feasibility) == multi
                holders[multi] += 1
    assert margins == []
    assert holders[True] >= 100 and holders[False] >= 100, holders


def test_box_margin_lps_match_oracle():
    """`separate` and `check_c_minimal_agreement` give the old hyperplanes and pairs."""
    separations = Counter()
    pairs = Counter()
    for seed, prof in seeded_profiles(240):
        want = lp_oracle.check_c_minimal_agreement(prof)
        assert check_c_minimal_agreement.__wrapped__(prof) == want, seed
        pairs[want is not None] += 1
        soc = prof.society.beliefs
        cases = [(list(a.beliefs.vertices), soc) for a in prof.agents]
        cases += [([v], soc) for a in prof.agents for v in a.beliefs.vertices]
        cases += [(list(soc.vertices), a.beliefs) for a in prof.agents]
        cases.append(([v for a in prof.agents for v in a.beliefs.vertices], soc))
        for points, P in cases:
            got, want = separate(points, P), lp_oracle.separate(points, P)
            assert got == want and dumps(got) == dumps(want), (seed, points)
            separations[want is not None] += 1
    assert pairs[True] > 100 and pairs[False] > 30, pairs
    assert separations[True] > 1000 and separations[False] > 1000, separations


class TestMaxMargin:
    def test_known_margin(self):
        # z on the unit simplex in R^2, rows z1 - z2 and z2: best t = 1/3
        # at z = (2/3, 1/3).
        z, t = max_margin([[1, -1], [0, 1]], 1)
        assert z == (F(2, 3), F(1, 3)) and t == F(1, 3)

    def test_zero_margin_is_none(self):
        assert max_margin([[1, -1], [-1, 1]], 1) is None

    def test_no_simplex_point_with_every_row_nonnegative_is_none(self):
        # z1 >= z2 and z2 >= 3 z1 hold together only at z = 0, off the simplex.
        assert max_margin([[2, -2], [-3, 1]], 2) is None

    def test_rows_over_a_denominator(self):
        # The known margin's rows over 6: t and z as over 1.
        z, t = max_margin([[6, -6], [0, 6]], 6)
        assert z == (F(2, 3), F(1, 3)) and t == F(1, 3)
        # Rows z1 - z2 / 3 and z2 / 2 over 6: best t = 3/11 at z = (5/11, 6/11).
        z, t = max_margin([[6, -2], [0, 3]], 6)
        assert z == (F(5, 11), F(6, 11)) and t == F(3, 11)
