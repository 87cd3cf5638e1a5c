"""The six unanimity axioms: premises, conclusions, certificates."""

from fractions import Fraction

import pytest

from paretostar import (
    Agent,
    DimensionMismatchError,
    MissingSocietyError,
    SplitMix64,
    act,
    constant_act,
    ct_pareto_check,
    ct_pareto_star_check,
    exchange_pareto_check,
    exchange_pareto_star_check,
    expected_utility,
    no_taste_disagreement,
    pareto_check,
    pareto_star_check,
    profile,
    utility,
    vec,
)
from paretostar.axioms import AXIOM_CHECKS
from paretostar.preferences import AffineUtility

from helpers import (
    REFORM,
    REFORM_COMMON,
    STATUS_QUO,
    interval,
    scenario1,
    scenario2,
    singleton,
)

F = Fraction


def revalidate_certs(prof, f, g, verdict):
    """Every strict claim in the certificates must re-prove by evaluation."""
    for i, cert in verdict.certificates.get("agents", {}).items():
        agent = prof.agents[i]
        diff = expected_utility(agent.utility, cert["prior"], g) - expected_utility(
            agent.utility, cert["prior"], f
        )
        assert diff == cert["margin"] > 0
    for j, cert in verdict.certificates.get("exchange", {}).items():
        for agent in prof.agents:
            diff = expected_utility(agent.utility, cert["prior"], g) - expected_utility(
                agent.utility, cert["prior"], f
            )
            assert diff >= cert["margin"] > 0
    soc = prof.society
    if "society_strict" in verdict.certificates:
        cert = verdict.certificates["society_strict"]
        diff = expected_utility(soc.utility, cert["prior"], g) - expected_utility(
            soc.utility, cert["prior"], f
        )
        assert diff == cert["margin"] > 0
    if "society_weak_margin" in verdict.certificates:
        margin = verdict.certificates["society_weak_margin"]
        assert margin >= 0
        assert margin == min(
            expected_utility(soc.utility, w, f) - expected_utility(soc.utility, w, g)
            for w in soc.beliefs.vertices
        )


class TestPareto:
    def test_identical_acts_never_violate(self):
        v = pareto_check(scenario1(), REFORM, REFORM)
        assert v.premise_holds and v.conclusion_holds and not v.violation

    def test_conflicting_tastes_make_premise_vacuous(self):
        v = pareto_check(scenario1(), STATUS_QUO, REFORM)
        assert not v.premise_holds and not v.violation

    def test_society_cloning_agent_one(self):
        ann = Agent(utility([1, 0]), interval("0.2", "0.8"), "Ann")
        bob = Agent(utility([1, 0]), interval("0.3", "0.6"), "Bob")
        prof = profile([ann, bob], Agent(ann.utility, ann.beliefs, "society"))
        good, bad = constant_act([5, 0], 2), constant_act([1, 0], 2)
        v = pareto_check(prof, good, bad)
        assert v.premise_holds and v.conclusion_holds and not v.violation

    def test_missing_society(self):
        prof = profile(scenario1().agents)
        with pytest.raises(MissingSocietyError):
            pareto_check(prof, REFORM, STATUS_QUO)


class TestParetoStar:
    def test_two_politician_violation_for_any_society_beliefs(self):
        for beliefs in (
            interval("0.2", "0.8"),
            singleton("0.5"),
            singleton("0.8"),
            interval("0.1", "0.9"),
        ):
            v = pareto_star_check(scenario1(beliefs), STATUS_QUO, REFORM)
            assert v.premise_holds and not v.conclusion_holds and v.violation
            revalidate_certs(scenario1(beliefs), STATUS_QUO, REFORM, v)

    def test_identical_acts_premise_fails(self):
        v = pareto_star_check(scenario1(), REFORM, REFORM)
        assert not v.premise_holds and not v.violation

    def test_wide_society_with_agent_taste_accepts(self):
        prof = scenario1()
        soc = Agent(prof.agents[0].utility, interval("0.2", "0.8"), "society")
        prof = profile(prof.agents, soc)
        v = pareto_star_check(prof, STATUS_QUO, REFORM)
        assert v.premise_holds and v.conclusion_holds and not v.violation
        revalidate_certs(prof, STATUS_QUO, REFORM, v)


class TestCommonTaste:
    def test_singleton_society_violation(self):
        prof = scenario2(singleton("0.8"))
        v = ct_pareto_star_check(prof, REFORM_COMMON, STATUS_QUO)
        assert v.premise_holds and not v.conclusion_holds and v.violation
        revalidate_certs(prof, REFORM_COMMON, STATUS_QUO, v)

    def test_taste_disagreement_is_vacuous(self):
        prof = scenario1()
        for f, g in ((STATUS_QUO, REFORM), (REFORM, STATUS_QUO)):
            v = ct_pareto_star_check(prof, f, g)
            assert not v.premise_holds
            assert v.certificates["taste_agreement"] is False
            v2 = ct_pareto_check(prof, f, g)
            assert not v2.premise_holds

    def test_common_taste_pareto_with_dictating_society(self):
        ann = Agent(utility([1, 0]), interval("0.6", "0.8"), "Ann")
        bob = Agent(utility([1, 0]), interval("0.2", "0.3"), "Bob")
        prof = profile([ann, bob], Agent(ann.utility, ann.beliefs, "society"))
        good, bad = constant_act([2, 0], 2), constant_act([1, 0], 2)
        v = ct_pareto_check(prof, good, bad)
        assert v.premise_holds and v.conclusion_holds and not v.violation


class TestExchange:
    def test_cross_table_breaks_premise(self):
        v = exchange_pareto_check(scenario1(), STATUS_QUO, REFORM)
        assert not v.premise_holds

    def test_identical_acts(self):
        v = exchange_pareto_check(scenario1(), REFORM, REFORM)
        assert v.premise_holds and v.conclusion_holds and not v.violation

    def test_common_taste_unanimous_dominance(self):
        prof = scenario2(singleton("0.8"))
        good, bad = constant_act([2, 0], 2), constant_act([1, 0], 2)
        v = exchange_pareto_check(prof, good, bad)
        assert v.premise_holds and v.conclusion_holds

    def test_star_premise_on_heterogeneous_beliefs(self):
        prof = scenario2(singleton("0.8"))
        v = exchange_pareto_star_check(prof, REFORM_COMMON, STATUS_QUO)
        assert v.premise_holds
        assert not v.conclusion_holds and v.violation
        certs = v.certificates["exchange"]
        # every belief set offers a prior with EU(reform) strictly below 0
        for j, cert in certs.items():
            assert expected_utility(prof.agents[0].utility, cert["prior"], REFORM_COMMON) < 0
        revalidate_certs(prof, REFORM_COMMON, STATUS_QUO, v)

    def test_star_identical_acts(self):
        v = exchange_pareto_star_check(scenario1(), REFORM, REFORM)
        assert not v.premise_holds

    def test_star_exactly_indifferent_singleton(self):
        a1 = Agent(utility([1, 0]), singleton("0.5"))
        a2 = Agent(utility([1, 0]), interval("0.2", "0.8"))
        prof = profile([a1, a2], Agent(utility([1, 0]), singleton("0.5"), "society"))
        f = REFORM_COMMON  # EU at 0.5 is -20
        g = constant_act([-20, 0], 2)
        assert expected_utility(a1.utility, vec(["0.5", "0.5"]), f) == -20
        v = exchange_pareto_star_check(prof, f, g)
        assert not v.premise_holds


class TestInvariants:
    def sample_pairs(self, prof, count, seed):
        from paretostar.harness import _segment_rows, _table_act
        from paretostar.preferences import check_c_minimal_agreement

        rng = SplitMix64(seed)
        table = _segment_rows(check_c_minimal_agreement(prof), 6)
        return [
            (_table_act(rng, prof.states, table)[0], _table_act(rng, prof.states, table)[0])
            for _ in range(count)
        ]

    def test_exchange_premises_imply_common_taste_premises(self):
        for prof in (scenario2(singleton("0.8")), scenario2(interval("0.2", "0.8")), scenario1()):
            for f, g in self.sample_pairs(prof, 40, 13):
                assert no_taste_disagreement(prof, f, g)
                if exchange_pareto_check(prof, f, g).premise_holds:
                    assert ct_pareto_check(prof, f, g).premise_holds
                if exchange_pareto_star_check(prof, f, g).premise_holds:
                    assert ct_pareto_star_check(prof, f, g).premise_holds

    def test_verdicts_invariant_under_common_rescale_and_translation(self):
        prof = scenario1()
        scale, shift = F(3, 2), F(-4)
        rescaled_agents = [
            Agent(
                AffineUtility(
                    tuple(scale * c for c in a.utility.coeffs),
                    scale * a.utility.constant + shift,
                ),
                a.beliefs,
                a.name,
            )
            for a in list(prof.agents) + [prof.society]
        ]
        rescaled = profile(rescaled_agents[:-1], rescaled_agents[-1])
        offset = (F(7), F(-2))
        rng = SplitMix64(17)
        for _ in range(25):
            f = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            g = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            for tag, checkfn in AXIOM_CHECKS.items():
                base = checkfn(prof, f, g)
                scaled = checkfn(rescaled, f, g)
                translated = checkfn(prof, f.translate(offset), g.translate(offset))
                for other in (scaled, translated):
                    assert base.premise_holds == other.premise_holds, tag
                    assert base.conclusion_holds == other.conclusion_holds, tag

    def test_all_verdict_certificates_revalidate(self):
        prof = scenario1()
        rng = SplitMix64(23)
        for _ in range(20):
            f = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            g = act([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
            for checkfn in AXIOM_CHECKS.values():
                revalidate_certs(prof, f, g, checkfn(prof, f, g))


class TestDimensionErrors:
    """Mismatched act shapes raise from every check instead of being truncated."""

    WIDE = constant_act([0, 0, 0], 2)
    THREE_STATES = constant_act([0, 0], 3)

    @pytest.mark.parametrize("tag", sorted(AXIOM_CHECKS))
    def test_every_check_rejects_mismatched_acts(self, tag):
        check = AXIOM_CHECKS[tag]
        pairs = (
            (REFORM, self.WIDE),
            (self.WIDE, REFORM),
            (self.WIDE, self.WIDE),
            (REFORM, self.THREE_STATES),
            (self.THREE_STATES, REFORM),
            (REFORM_COMMON, self.THREE_STATES),
        )
        # Conflicting tastes and one common taste: both taste-agreement answers.
        for prof in (scenario1(), scenario2(interval("0.2", "0.8"))):
            for f, g in pairs:
                with pytest.raises(DimensionMismatchError):
                    check(prof, f, g)
