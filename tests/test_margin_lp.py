"""Differential tests: the margin-LP builders against the old hand-built LPs.

`axioms._exchange_star_prior` used to build its margin LP over free
variables through `lp_solve`; it now runs `max_margin` over nonnegative
columns, and for a holder with one belief vertex it solves no LP at all
(the margin is the least value at that vertex).  `separate` and
`check_c_minimal_agreement` built their box-bounded margin LPs row by row;
both now call `geometry.box_margin`.  The
old formulations are kept verbatim in `tests/lp_oracle.py`, and every
certificate must come out exactly equal: the same prior and margin, the
same hyperplane and direction pair, the same None.
"""

from collections import Counter
from fractions import Fraction

import pytest

import lp_oracle
from paretostar import axioms
from paretostar.axioms import _exchange_star_prior
from paretostar.documents import dumps
from paretostar.geometry import max_margin, separate, vsub
from paretostar.harness import (
    GenParams,
    SplitMix64,
    _sample_general,
    _segment_act,
    random_profile,
)
from paretostar.preferences import (
    _on_pair,
    _vertex_gaps,
    check_c_minimal_agreement,
    utility_profile,
)

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
            pairs.append((_sample_general(rng, prof, 3, 4), _sample_general(rng, prof, 3, 4)))
            if pair is not None:
                pairs.append((_segment_act(rng, prof, pair, 6), _segment_act(rng, prof, pair, 6)))
        for f, g in pairs:
            diffs = [
                vsub(utility_profile(a.utility, g), utility_profile(a.utility, f))
                for a in prof.agents
            ]
            for holder in (*prof.agents, prof.society):
                verts = holder.beliefs.cleared
                values = [
                    [F(n, d) for _, n, d in _vertex_gaps(verts, _on_pair(a.utility, g, f))]
                    for a in prof.agents
                ]
                new = _exchange_star_prior(values, holder)
                old = lp_oracle.exchange_star_prior(diffs, holder)
                assert new == old, (seed, f, g)
                compared += 1
                positive += old is not None
                if len(verts) == 1:
                    one_vertex[_sign(min(row[0] for row in values))] += 1
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
            f, g = _sample_general(rng, prof, 3, 4), _sample_general(rng, prof, 3, 4)
            solved.clear()
            axioms.exchange_pareto_star_check(prof, f, g)
            sizes = [len(a.beliefs.vertices) for a in prof.agents]
            assert len(solved) == sum(k >= 2 for k in sizes), (seed, sizes)
            checks["one-vertex holders"] += 1 in sizes
            checks["multi-vertex holders"] += max(sizes) >= 2
    assert min(checks.values()) >= 40, checks


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
        z, t = max_margin([(F(1), F(-1)), (F(0), F(1))], [(F(1), F(1))], [F(1)])
        assert z == (F(2, 3), F(1, 3)) and t == F(1, 3)

    def test_zero_margin_is_none(self):
        assert max_margin([(F(1), F(-1)), (F(-1), F(1))], [(F(1), F(1))], [F(1)]) is None

    def test_infeasible_is_none(self):
        assert max_margin([(F(1), F(1))], [(F(1), F(1))], [F(-1)]) is None

    def test_unbounded_margin_raises(self):
        with pytest.raises(ValueError):
            max_margin([(F(1), F(0))], [(F(0), F(1))], [F(1)])
