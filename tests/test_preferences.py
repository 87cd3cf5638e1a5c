"""Bewley dominance, taste agreement, and the structural profile conditions."""

from fractions import Fraction

import pytest

import lp_oracle
from paretostar import (
    Act,
    Agent,
    DimensionMismatchError,
    Polytope,
    Profile,
    SplitMix64,
    act,
    bewley_geq,
    bewley_incomparable,
    check_c_diversity,
    check_c_minimal_agreement,
    constant_act,
    expected_utility,
    no_taste_disagreement,
    profile,
    utility,
    validate_profile,
    vec,
)
from paretostar.geometry import dot
from paretostar.preferences import (
    AffineUtility,
    strict_prior_against,
    utility_profile,
)

from helpers import REFORM, REFORM_COMMON, STATUS_QUO, interval, scenario1, scenario2, singleton

F = Fraction


class TestExpectedUtility:
    def test_utility_of_an_outcome(self):
        u = utility([2, -3], constant="1/2")
        assert u(vec([1, "1/3"])) == F(3, 2)

    def test_low_prior(self):
        ann = utility([1, 0])
        assert expected_utility(ann, vec(["0.2", "0.8"]), REFORM) == F(2, 10) * 30 + F(8, 10) * -70

    def test_high_prior_crosses_zero(self):
        ann = utility([1, 0])
        assert expected_utility(ann, vec(["0.8", "0.2"]), REFORM) == 10

    def test_constant_act(self):
        u = utility([2, 3], constant=5)
        x = constant_act([1, 1], 2)
        for p in (vec(["0.2", "0.8"]), vec([1, 0])):
            assert expected_utility(u, p, x) == 2 + 3 + 5


class TestBewley:
    def test_neither_politician_ranks_the_pair(self):
        prof = scenario1()
        for agent in prof.agents:
            assert not bewley_geq(agent, STATUS_QUO, REFORM)
            assert not bewley_geq(agent, REFORM, STATUS_QUO)
            assert bewley_incomparable(agent, STATUS_QUO, REFORM)

    def test_reflexive(self):
        prof = scenario1()
        assert bewley_geq(prof.agents[0], REFORM, REFORM)
        assert not bewley_incomparable(prof.agents[0], REFORM, REFORM)

    def test_seu_agents_are_complete(self):
        agent = Agent(utility([1, 0]), singleton("0.5"))
        rng = SplitMix64(11)
        for _ in range(40):
            f = act([[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(2)])
            g = act([[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(2)])
            assert not bewley_incomparable(agent, f, g)

    def test_transitive_and_reflexive_on_random_triples(self):
        prof = scenario1()
        rng = SplitMix64(3)
        for _ in range(60):
            acts = [
                act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
                for _ in range(3)
            ]
            for a in prof.agents:
                for f in acts:
                    assert bewley_geq(a, f, f)
                f, g, h = acts
                if bewley_geq(a, f, g) and bewley_geq(a, g, h):
                    assert bewley_geq(a, f, h)

    def test_invariant_under_positive_affine_rescaling(self):
        prof = scenario1()
        rng = SplitMix64(5)
        for _ in range(40):
            f = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            g = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            for agent in prof.agents:
                scale = F(rng.randint(1, 6), rng.randint(1, 6))
                shift = F(rng.randint(-5, 5))
                rescaled = Agent(
                    AffineUtility(
                        tuple(scale * c for c in agent.utility.coeffs),
                        scale * agent.utility.constant + shift,
                    ),
                    agent.beliefs,
                )
                assert bewley_geq(agent, f, g) == bewley_geq(rescaled, f, g)

    def test_vertex_reduction_matches_hull_samples(self):
        prof = scenario1()
        rng = SplitMix64(9)
        agent = prof.agents[0]
        for _ in range(30):
            f = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            g = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            verdict = bewley_geq(agent, f, g)
            lo = min(
                expected_utility(agent.utility, v, f) - expected_utility(agent.utility, v, g)
                for v in agent.beliefs.vertices
            )
            for _ in range(10):
                w = rng.randint(1, 9)
                mix = tuple(
                    (w * a + (10 - w) * b) / 10
                    for a, b in zip(*agent.beliefs.vertices)
                )
                diff = expected_utility(agent.utility, mix, f) - expected_utility(
                    agent.utility, mix, g
                )
                assert diff >= lo
                if verdict:
                    assert diff >= 0


class TestTasteAgreement:
    def test_common_payoffs(self):
        prof = scenario2(singleton("0.8"))
        assert no_taste_disagreement(prof, REFORM_COMMON, STATUS_QUO)

    def test_conflicting_payoffs(self):
        prof = scenario1()
        assert not no_taste_disagreement(prof, STATUS_QUO, REFORM)

    def test_equal_constant_acts(self):
        prof = scenario1()
        x = constant_act([3, 4], 2)
        assert no_taste_disagreement(prof, x, x)

    def test_symmetric_and_relabel_invariant(self):
        prof = scenario2(singleton("0.8"))
        swapped = profile(list(reversed(prof.agents)), prof.society)
        for f, g in ((REFORM_COMMON, STATUS_QUO), (STATUS_QUO, REFORM_COMMON)):
            assert no_taste_disagreement(prof, f, g) == no_taste_disagreement(prof, g, f)
            assert no_taste_disagreement(prof, f, g) == no_taste_disagreement(swapped, f, g)
        prof1 = scenario1()
        swapped1 = profile(list(reversed(prof1.agents)), prof1.society)
        assert not no_taste_disagreement(swapped1, STATUS_QUO, REFORM)

    def test_zero_against_nonzero_restriction_disagrees(self):
        a1 = Agent(utility([1, 0]), interval("0.2", "0.8"))
        a2 = Agent(utility([0, 1]), interval("0.2", "0.8"))
        prof = profile([a1, a2])
        f = act([[1, 0], [2, 0]])  # only the first coordinate moves
        assert not no_taste_disagreement(prof, f, constant_act([0, 0], 2))


class TestCommonStrictPair:
    def test_orthogonal_tastes(self):
        prof = scenario1()
        pair = check_c_minimal_agreement(prof)
        assert pair is not None
        hi, lo = pair
        for a in prof.agents:
            assert dot(a.utility.coeffs, hi) > dot(a.utility.coeffs, lo)
        assert all(-1 <= x <= 1 for x in hi + lo)

    def test_opposing_tastes(self):
        a1 = Agent(utility([1, 0]), interval("0.2", "0.8"))
        a2 = Agent(utility([-1, 0]), interval("0.2", "0.8"))
        assert check_c_minimal_agreement(profile([a1, a2])) is None

    def test_single_agent_gradient_direction(self):
        a = Agent(utility([2, 3]), interval("0.2", "0.8"))
        assert check_c_minimal_agreement(profile([a])) is not None


class TestDiversity:
    def test_orthogonal_coordinate_utilities(self):
        prof = scenario1()
        pairs = check_c_diversity(prof)
        assert pairs is not None
        for i, (hi, lo) in enumerate(pairs):
            delta = tuple(a - b for a, b in zip(hi, lo))
            for j, agent in enumerate(prof.agents):
                gain = dot(agent.utility.coeffs, delta)
                assert (gain > 0) if i == j else (gain == 0)

    def test_identical_tastes(self):
        prof = scenario2(singleton("0.8"))
        assert check_c_diversity(prof) is None

    def test_rank_bound(self):
        agents = [
            Agent(utility([1, 0]), singleton("0.5")),
            Agent(utility([0, 1]), singleton("0.5")),
            Agent(utility([1, 1]), singleton("0.5")),
        ]
        assert check_c_diversity(profile(agents)) is None

    def test_succeeds_iff_full_rank(self):
        rng = SplitMix64(21)
        for _ in range(60):
            n, d = rng.randint(2, 3), rng.randint(1, 3)
            agents = []
            for _ in range(n):
                coeffs = [F(rng.randint(-3, 3)) for _ in range(d)]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = F(1)
                agents.append(Agent(AffineUtility(tuple(coeffs)), singleton("0.5")))
            prof = profile(agents)
            utility_rank = lp_oracle.rank([list(a.utility.coeffs) for a in prof.agents])
            assert (check_c_diversity(prof) is not None) == (utility_rank == n)

    @pytest.mark.parametrize("coeffs, direction", [
        ([0, 2], (0, 1)),  # the first unit vector is a tie; the second ranks
        ([-3, 1], (-1, 0)),  # oriented to the agent's gain
    ])
    def test_lone_agent_takes_the_first_ranking_unit_vector(self, coeffs, direction):
        """With no other agent the candidates are the unit basis of
        `nullspace([], d)`, in coordinate order."""
        prof = profile([Agent(utility(coeffs), singleton("0.5"))])
        assert check_c_diversity(prof) == ((direction, (0, 0)),)


class TestValidate:
    def test_golden_profiles_are_clean(self):
        assert validate_profile(scenario1()) == []
        assert validate_profile(scenario2(singleton("0.8"))) == []

    def test_too_few_agents_states_and_outcomes(self):
        lone = Agent(utility([1]), singleton("1"))
        problems = validate_profile(Profile(1, 0, (lone,)))
        assert problems[:3] == [
            "profile has 1 agents; at least 2 required",
            "profile has 1 states; at least 2 required",
            "outcome dimension must be at least 1",
        ]

    def test_constant_utility_flagged(self):
        bad = Agent(AffineUtility((F(0), F(0))), interval("0.2", "0.8"))
        good = Agent(utility([1, 0]), interval("0.2", "0.8"))
        problems = validate_profile(profile([bad, good]))
        assert len(problems) == 1 and "constant" in problems[0]

    def test_non_simplex_vertex_flagged(self):
        bad = Agent(utility([1, 0]), Polytope.from_generators([("0.5", "0.6")]))
        good = Agent(utility([0, 1]), interval("0.2", "0.8"))
        problems = validate_profile(profile([bad, good]))
        assert len(problems) == 1 and "probability" in problems[0]

    def test_dimension_mismatch_flagged(self):
        a = Agent(utility([1, 0, 3]), interval("0.2", "0.8"))
        b = Agent(utility([0, 1]), interval("0.2", "0.8"))
        problems = validate_profile(profile([b, a]))
        assert any("dimension" in p for p in problems)


class TestActs:
    def test_translate(self):
        shifted = REFORM.translate((F(1), F(2)))
        assert shifted.rows[1] == (F(-69), F(32))


class TestDimensionErrors:
    """Mismatched shapes raise instead of being truncated by a `zip`."""

    def test_bewley_geq_on_different_state_counts(self):
        three_states = constant_act([0, 0], 3)
        with pytest.raises(DimensionMismatchError):
            bewley_geq(scenario1().agents[0], REFORM, three_states)

    def test_strict_prior_against_with_wrong_vertex_length(self):
        agent = Agent(utility([1, 0]), Polytope.from_generators([("1/3", "1/3", "1/3")]))
        with pytest.raises(DimensionMismatchError):
            strict_prior_against(agent, REFORM, STATUS_QUO)

    def test_rows_of_wrong_outcome_dimension(self):
        agent = scenario1().agents[0]
        wide = constant_act([0, 0, 0], 2)
        with pytest.raises(DimensionMismatchError):
            bewley_geq(agent, REFORM, wide)
        with pytest.raises(DimensionMismatchError):
            bewley_geq(agent, wide, REFORM)
        with pytest.raises(DimensionMismatchError):
            utility_profile(agent.utility, wide)

    def test_taste_agreement_on_different_state_counts(self):
        three_states = constant_act([0, 0], 3)
        with pytest.raises(DimensionMismatchError):
            no_taste_disagreement(scenario1(), REFORM, three_states)
        with pytest.raises(DimensionMismatchError):
            no_taste_disagreement(scenario1(), three_states, REFORM)

    def test_expected_utility_shapes(self):
        u = scenario1().agents[0].utility
        with pytest.raises(DimensionMismatchError, match="prior length differs"):
            expected_utility(u, vec(["1/3", "1/3", "1/3"]), REFORM)
        with pytest.raises(DimensionMismatchError, match="utility dimension differs"):
            expected_utility(u, vec(["1/2", "1/2"]), constant_act([0, 0, 0], 2))

    def test_dot_on_unequal_lengths(self):
        with pytest.raises(DimensionMismatchError):
            dot(vec([1, 2]), vec([1, 2, 3]))
