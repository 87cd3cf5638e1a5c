"""Differential tests: the margin-LP builders against the old hand-built LPs.

`axioms._exchange_star_prior` and the support branch of
`utilitarian_decompose` used to build their margin LPs over free variables
through `lp_solve`; both now run `max_margin` over nonnegative columns.
`separate` and `check_c_minimal_agreement` built their box-bounded margin
LPs row by row; both now call `geometry.box_margin`.  The old formulations
are kept verbatim in `tests/lp_oracle.py`, and every certificate must come
out exactly equal: the same prior and margin, the same alpha, the same
hyperplane and direction pair, the same None.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

import lp_oracle
from paretostar import Agent, Polytope, profile, utility
from paretostar.axioms import _exchange_star_prior
from paretostar.characterizations import utilitarian_decompose
from paretostar.documents import dumps
from paretostar.geometry import max_margin, separate, vsub
from paretostar.harness import (
    GenParams,
    SplitMix64,
    _sample_general,
    _segment_act,
    random_profile,
)
from paretostar.preferences import _vertex_gaps, check_c_minimal_agreement, utility_profile

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


def test_support_decompositions_match_oracle():
    compared = positive = 0
    for seed, prof in seeded_profiles(240):
        for size in range(1, prof.n + 1):
            for support in itertools.combinations(range(prof.n), size):
                new = utilitarian_decompose(prof, support)
                old = lp_oracle.support_decompose_alpha(prof, support)
                assert (None if new is None else new.alpha) == old, (seed, support)
                compared += 1
                positive += old is not None
    assert compared > 1000
    assert positive > 300
    assert compared - positive > 300


def test_exchange_star_priors_match_oracle():
    compared = positive = 0
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
                values = [
                    [F(n, d) for _, n, d in _vertex_gaps(a.utility, holder.beliefs.vertices, g, f)]
                    for a in prof.agents
                ]
                new = _exchange_star_prior(values, holder)
                old = lp_oracle.exchange_star_prior(diffs, holder)
                assert new == old, (seed, f, g)
                compared += 1
                positive += old is not None
    assert compared > 2000
    assert positive > 300


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


def test_support_boundary_cases_match_oracle():
    point = Polytope.from_generators([(F(1, 2), F(1, 2))])

    def prof(coeffs, society):
        agents = [Agent(utility(c), point, f"a{i}") for i, c in enumerate(coeffs)]
        return profile(agents, Agent(utility(society), point, "society"))

    # Zero margin: the only alpha puts weight 0 on agent 2.
    zero = prof([[1, 0], [0, 1]], [1, 0])
    assert lp_oracle.support_decompose_alpha(zero, (0, 1)) is None
    assert utilitarian_decompose(zero, (0, 1)) is None
    # The cap t <= 1 binds and alpha is not unique: the vertex must match.
    capped = prof([[1], [1], [1]], [6])
    old = lp_oracle.support_decompose_alpha(capped, (0, 1, 2))
    assert utilitarian_decompose(capped, (0, 1, 2)).alpha == old == (4, 1, 1)


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
