"""Integer act evaluation against the `Fraction` oracle.

`geometry.dot` accumulates one integer numerator over a running common
denominator; `preferences` decides Bewley dominance on integer per-state
gaps and compares tastes by integer cross-products, and the exchange axioms
take their per-vertex gaps from the same kernel.  `act_oracle` holds the
`Fraction` code they replaced.  Every answer must agree exactly: the same
bool, the same vertex, an equal `Fraction` margin and an equal verdict.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import act_oracle
from paretostar import Act, Agent, AffineUtility, Polytope, Profile
from paretostar.axioms import exchange_pareto_check, exchange_pareto_star_check
from paretostar.documents import dumps
from paretostar.geometry import dot
from paretostar.harness import GenParams, SplitMix64, _segment_act, random_profile
from paretostar.preferences import (
    bewley_geq,
    check_c_minimal_agreement,
    min_margin,
    no_taste_disagreement,
    strict_prior_against,
    utility_profile,
)

F = Fraction

# Denominators that are pairwise coprime or share small factors, up to ~1000.
_DENOMS = (1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 25, 27, 97, 101, 128, 243, 499, 997, 1000)


def _frac(rng, mag=9):
    if rng.random() < 0.2:
        return F(0)
    den = rng.choice(_DENOMS)
    return F(rng.randint(-mag * den, mag * den), den)


def _prior(rng, m):
    den = rng.choice(_DENOMS[1:])
    cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
    return tuple(F(p, den) for p in parts)


def _agent(rng, m, d, coeffs=None):
    if coeffs is None:
        coeffs = tuple(_frac(rng) for _ in range(d))
    beliefs = Polytope.from_generators([_prior(rng, m) for _ in range(rng.randint(1, 4))])
    return Agent(AffineUtility(coeffs, _frac(rng)), beliefs)


def _act(rng, m, d, shape):
    """Random rows, rows on one segment, or rows in a plane through a base point."""
    if shape == "general":
        return Act(tuple(tuple(_frac(rng) for _ in range(d)) for _ in range(m)))
    base = tuple(_frac(rng) for _ in range(d))
    dirs = [tuple(_frac(rng) for _ in range(d)) for _ in range(1 if shape == "segment" else 2)]
    rows = []
    for _ in range(m):
        ts = [F(rng.randint(-6, 6), rng.choice(_DENOMS[:8])) for _ in dirs]
        rows.append(tuple(b + sum(t * w[j] for t, w in zip(ts, dirs)) for j, b in enumerate(base)))
    return Act(tuple(rows))


def _tastes(rng, n, d):
    """Independent tastes, or positive/negative/zero multiples of one taste."""
    first = tuple(_frac(rng) for _ in range(d))
    if rng.random() < 0.5:
        return [first] + [tuple(_frac(rng) for _ in range(d)) for _ in range(n - 1)]
    scales = [F(rng.randint(-3, 5), rng.choice(_DENOMS[:8])) for _ in range(n - 1)]
    return [first] + [tuple(s * c for c in first) for s in scales]


def _same_margin(new, old):
    if old is None:
        assert new is None
        return
    assert new[0] == old[0]
    assert new[1] == old[1] and type(new[1]) is Fraction


def _oracle_min_margin(a, f, g):
    diff = [x - y for x, y in zip(act_oracle.utility_profile(a.utility, f),
                                  act_oracle.utility_profile(a.utility, g))]
    return min(act_oracle.dot(v, diff) for v in a.beliefs.vertices)


def _check_agent(a, f, g):
    for x, y in ((f, g), (g, f)):
        assert bewley_geq(a, x, y) == act_oracle.bewley_geq(a, x, y)
        _same_margin(strict_prior_against(a, x, y), act_oracle.strict_prior_against(a, x, y))
        margin = min_margin(a, x, y)
        assert margin == _oracle_min_margin(a, x, y) and type(margin) is Fraction
    assert utility_profile(a.utility, f) == act_oracle.utility_profile(a.utility, f)


def _check_profile(prof, f, g):
    assert no_taste_disagreement(prof, f, g) == act_oracle.no_taste_disagreement(prof, f, g)
    for a in prof.agents:
        _check_agent(a, f, g)


def _sweep():
    """400 seeded (profile without society, f, g, u, v) cases."""
    rng = random.Random(20251018)
    for _ in range(400):
        m, d, n = rng.randint(2, 4), rng.randint(1, 4), rng.randint(2, 4)
        agents = tuple(_agent(rng, m, d, c) for c in _tastes(rng, n, d))
        prof = Profile(m, d, agents)
        shape = rng.choice(("general", "segment", "plane"))
        f = _act(rng, m, d, shape)
        g = _act(rng, m, d, shape) if rng.random() < 0.5 else Act(f.rows[::-1])
        u, v = tuple(_frac(rng) for _ in range(d)), tuple(_frac(rng) for _ in range(d))
        yield prof, f, g, u, v


def test_seeded_sweep_matches_oracle():
    agreements = 0
    for prof, f, g, u, v in _sweep():
        _check_profile(prof, f, g)
        agreements += act_oracle.no_taste_disagreement(prof, f, g)
        assert dot(u, v) == act_oracle.dot(u, v) and type(dot(u, v)) is Fraction
    # The sweep reaches both answers of the taste check.
    assert 40 < agreements < 360


def _check_exchange(prof, f, g):
    """Both exchange verdicts on (f, g) and (g, f) equal the oracle's, bytes included."""
    premises = []
    for x, y in ((f, g), (g, f)):
        for new, old in (
            (exchange_pareto_check, act_oracle.exchange_pareto_check),
            (exchange_pareto_star_check, act_oracle.exchange_pareto_star_check),
        ):
            got, want = new(prof, x, y), old(prof, x, y)
            assert got == want and dumps(got) == dumps(want)
            premises.append((got.axiom, want.premise_holds))
    return premises


def test_exchange_axioms_match_oracle():
    premises = Counter()
    society_rng = random.Random(20251019)
    for prof, f, g, _, _ in _sweep():
        society = _agent(society_rng, prof.states, prof.outcome_dim)
        prof = Profile(prof.states, prof.outcome_dim, prof.agents, society)
        premises.update(_check_exchange(prof, f, g))
    # Acts on a commonly ranked segment, where the exchange premises hold often.
    for seed in range(120):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 3, m=2 + (seed // 3) % 2, d=1 + (seed // 7) % 4,
            max_vertices=1 + (seed // 2) % 3,
            society_rule=("minkowski", "hull-union", "perturbed")[seed % 3],
        ))
        pair = check_c_minimal_agreement(prof)
        if pair is None:
            continue
        rng = SplitMix64(seed)
        for _ in range(3):
            f, g = _segment_act(rng, prof, pair, 6), _segment_act(rng, prof, pair, 6)
            premises.update(_check_exchange(prof, f, g))
    for axiom in ("exchange-pareto", "exchange-pareto-star"):
        assert premises[axiom, True] > 150 and premises[axiom, False] > 500, premises


_fractions = st.builds(
    F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7, 10, 97, 1000))
)


@st.composite
def _profile_and_acts(draw):
    m, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rows = st.tuples(*[_fractions] * d)
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    agents = tuple(
        Agent(AffineUtility(draw(rows), draw(_fractions)),
              Polytope.from_generators([_prior(rng, m) for _ in range(rng.randint(1, 4))]))
        for _ in range(draw(st.integers(2, 3)))
    )
    f = Act(tuple(draw(rows) for _ in range(m)))
    g = Act(tuple(draw(rows) for _ in range(m)))
    return Profile(m, d, agents), f, g


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_profile_and_acts())
def test_property_matches_oracle(case):
    _check_profile(*case)


def _two_state_agent(coeffs, *priors):
    return Agent(AffineUtility(tuple(map(F, coeffs))),
                 Polytope.from_generators([(F(p), 1 - F(p)) for p in priors]))


class TestNamedCases:
    def test_identical_rows_have_empty_span(self):
        x = Act(((F(3), F(-1)),) * 2)
        prof = Profile(2, 2, (_two_state_agent([1, 0], "1/3"), _two_state_agent([-2, 5], "1/2")))
        assert no_taste_disagreement(prof, x, x) is True
        assert act_oracle.no_taste_disagreement(prof, x, x) is True
        _check_profile(prof, x, x)

    def test_one_agent_restricted_to_zero(self):
        # Rows vary along (1, 1) only; the second taste is orthogonal to it.
        f = Act(((F(1), F(1)), (F(2), F(2))))
        g = Act(((F(0), F(0)), (F(-1), F(-1))))
        prof = Profile(2, 2, (_two_state_agent([1, 2], "1/4"), _two_state_agent([3, -3], "1/2")))
        assert no_taste_disagreement(prof, f, g) is False
        assert act_oracle.no_taste_disagreement(prof, f, g) is False
        _check_profile(prof, f, g)

    def test_proportional_tastes_of_opposite_sign(self):
        f = Act(((F(1), F(-2)), (F(3), F(1, 7))))
        g = Act(((F(0), F(5)), (F(-1, 3), F(2))))
        for scale, agrees in ((F(-5, 2), False), (F(5, 2), True)):
            prof = Profile(2, 2, (
                _two_state_agent([2, -1], "1/5"),
                _two_state_agent([2 * scale, -scale], "3/5"),
            ))
            assert no_taste_disagreement(prof, f, g) is agrees
            assert act_oracle.no_taste_disagreement(prof, f, g) is agrees

    def test_zero_margin_is_not_strict(self):
        # Under the vertex (1/2, 1/2) both acts have expected utility 1.
        a = _two_state_agent([1, 0], "1/2")
        f = Act(((F(2), F(0)), (F(0), F(0))))
        g = Act(((F(1), F(7)), (F(1), F(-3))))
        assert strict_prior_against(a, f, g) is None
        assert strict_prior_against(a, g, f) is None
        assert bewley_geq(a, f, g) and bewley_geq(a, g, f)
        assert min_margin(a, f, g) == 0
        _check_agent(a, f, g)

    def test_dot_on_plain_ints_returns_fraction(self):
        value = dot((2, -3, 0), (5, 1, 9))
        assert value == 7 and type(value) is Fraction
        assert type(dot((0,), (4,))) is Fraction
        assert dot((F(1, 3), 2), (3, F(1, 4))) == act_oracle.dot((F(1, 3), 2), (3, F(1, 4)))
