"""Constructive counterexamples: certificates, round trips, every-mode re-checks."""

import dataclasses
from fractions import Fraction

import pytest

from paretostar import (
    Agent,
    PreconditionError,
    check_c_minimal_agreement,
    check_thm2_condition,
    no_taste_disagreement,
    pareto_star_check,
    profile,
    utilitarian_decompose,
    utility,
    vec,
    witness_ct_pareto_star,
    witness_lemma1,
    witness_spurious_unanimity,
    witnesses,
)
from paretostar.axioms import AXIOM_CHECKS
from paretostar.characterizations import (
    ConditionReport,
    Decomposition,
    check_thm1_condition,
    distinct_priors,
)
from paretostar.errors import InternalError
from paretostar.geometry import Hyperplane
from paretostar.harness import GenParams, random_profile
from paretostar.witnesses import revalidate, witness_for

from helpers import interval, scenario1, scenario2, singleton

F = Fraction


def assert_certified(prof, cert):
    assert revalidate(prof, cert)
    assert all(am.margin > 0 for am in cert.per_agent)
    assert cert.society_margin > 0
    verdict = AXIOM_CHECKS[cert.axiom_tag](prof, cert.act_x, cert.act_f)
    assert verdict.violation


class TestCommonTasteWitness:
    def build(self, society):
        prof = scenario2(society)
        rep = check_thm2_condition(prof)
        assert not rep.holds
        x_star, x_low = check_c_minimal_agreement(prof)
        cert = witness_ct_pareto_star(
            prof, rep.details["combo"], rep.details["hyperplane"], x_star, x_low
        )
        return prof, cert

    def test_singleton_society(self):
        prof, cert = self.build(singleton("0.8"))
        assert_certified(prof, cert)
        assert no_taste_disagreement(prof, cert.act_f, cert.act_x)
        assert cert.act_x.rows[0] == cert.act_x.rows[1]

    def test_documented_combo_margins(self):
        # Hand-picked separator: normal (0, 1), threshold 0.3 splits the
        # combo ((0.6,0.4), (0.3,0.7)) from the singleton society at 0.8.
        prof = scenario2(singleton("0.8"))
        combo = (vec(["0.6", "0.4"]), vec(["0.3", "0.7"]))
        h = Hyperplane(vec([0, 1]), F(3, 10))
        x_star, x_low = check_c_minimal_agreement(prof)
        cert = witness_ct_pareto_star(prof, combo, h, x_star, x_low)
        gain = prof.agents[0].utility.coeffs[0] * (x_star[0] - x_low[0]) + (
            prof.agents[0].utility.coeffs[1] * (x_star[1] - x_low[1])
        )
        assert cert.per_agent[0].margin == gain * F(1, 10)  # 0.4 - 0.3
        assert cert.per_agent[1].margin == gain * F(4, 10)  # 0.7 - 0.3
        assert cert.society_margin == gain * F(1, 10)  # 0.3 - 0.2
        assert_certified(prof, cert)

    def test_hyperplane_mismatch_rejected(self):
        prof = scenario2(singleton("0.8"))
        bad = Hyperplane(vec([0, 1]), F(9, 10))
        x_star, x_low = check_c_minimal_agreement(prof)
        with pytest.raises(PreconditionError):
            witness_ct_pareto_star(
                prof, (vec(["0.6", "0.4"]), vec(["0.3", "0.7"])), bad, x_star, x_low
            )

    def test_ct_check_round_trip(self):
        prof, cert = self.build(singleton("0.75"))
        rerun = AXIOM_CHECKS["ct-pareto-star"](prof, cert.act_x, cert.act_f)
        assert rerun.premise_holds and not rerun.conclusion_holds


# Strictly separates the prior (0.8, 0.2) from the singleton social set (0.5, 0.5).
LEMMA1_CUT = Hyperplane((F(1), F(0)), F(13, 20))


class TestLemma1Witness:
    def build(self):
        prof = scenario1(singleton("0.5"))
        dec = utilitarian_decompose(prof)
        cert = witness_lemma1(prof, dec, 0, vec(["0.8", "0.2"]), LEMMA1_CUT)
        return prof, dec, cert

    def test_certificate_validates(self):
        prof, _, cert = self.build()
        assert_certified(prof, cert)

    def test_taste_slack_is_statewise(self):
        from paretostar.preferences import utility_profile

        prof, _, cert = self.build()
        other = prof.agents[1]
        uf = utility_profile(other.utility, cert.act_f)
        ux = utility_profile(other.utility, cert.act_x)
        slack = cert.per_agent[1].margin
        assert all(a - b == slack for a, b in zip(uf, ux))

    def test_prior_inside_society_rejected(self):
        prof = scenario1(singleton("0.5"))
        dec = utilitarian_decompose(prof)
        with pytest.raises(PreconditionError, match="does not strictly separate"):
            witness_lemma1(prof, dec, 0, vec(["0.5", "0.5"]), LEMMA1_CUT)

    def test_given_hyperplane_is_used_not_solved_again(self):
        prof, _, cert = self.build()
        # The certificate's separator is LEMMA1_CUT rescaled into [0, 1]:
        # (1, 0) and 13/20 become (1, 0) and 13/20.
        assert cert.hyperplane == Hyperplane((F(1), F(0)), F(13, 20))
        dec = utilitarian_decompose(prof)
        for h in (Hyperplane((F(1), F(0)), F(4, 5)), Hyperplane((F(-1), F(0)), F(-13, 20))):
            with pytest.raises(PreconditionError, match="does not strictly separate"):
                witness_lemma1(prof, dec, 0, vec(["0.8", "0.2"]), h)

    def test_zero_weight_agent_rejected(self):
        base = scenario1(singleton("0.5"))
        soc = Agent(base.agents[0].utility, singleton("0.5"), "society")
        prof = profile(base.agents, soc)
        dec = utilitarian_decompose(prof)
        assert dec.alpha == (F(1), F(0))
        with pytest.raises(PreconditionError):
            witness_lemma1(prof, dec, 1, vec(["0.8", "0.2"]), LEMMA1_CUT)


def three_agents():
    """Ann and Bob on one interval, Caz a bystander whose taste society weighs."""
    ann = Agent(utility([1, 0, 0]), interval("0.2", "0.8"), "Ann")
    bob = Agent(utility([0, 1, 0]), interval("0.2", "0.8"), "Bob")
    caz = Agent(utility([0, 0, 1]), singleton("0.5"), "Caz")
    soc = Agent(utility(["1/3", "1/3", "1/3"]), interval("0.2", "0.8"), "society")
    return profile([ann, bob, caz], soc)


class TestSpuriousUnanimity:
    def build(self, prof=None):
        prof = prof or scenario1()
        dec = utilitarian_decompose(prof)
        p1, p2 = distinct_priors(prof.agents[0].beliefs, prof.agents[1].beliefs)
        cert = witness_spurious_unanimity(prof, dec, 0, 1, p1, p2)
        return prof, dec, cert

    def test_certificate_validates(self):
        prof, _, cert = self.build()
        assert_certified(prof, cert)

    def test_documented_epsilon(self):
        _, _, cert = self.build()
        # spread 0.72, weights 1/2 each: bound 0.18, pinned at half
        assert cert.params["epsilon"] == F(9, 100)

    def test_society_margin_independent_of_social_beliefs(self):
        margins = []
        for beliefs in (interval("0.2", "0.8"), singleton("0.5"), singleton("0.9")):
            prof, _, cert = self.build(scenario1(beliefs))
            margins.append(cert.society_margin)
            assert_certified(prof, cert)
        assert len(set(margins)) == 1

    def test_equal_priors_rejected(self):
        prof = scenario1()
        dec = utilitarian_decompose(prof)
        with pytest.raises(PreconditionError):
            witness_spurious_unanimity(
                prof, dec, 0, 1, vec(["0.2", "0.8"]), vec(["0.2", "0.8"])
            )

    def test_tampered_margins_fail_the_recheck(self):
        """`revalidate` refuses a certificate whose agent margin or society
        margin differs from direct evaluation, and `_certified` raises."""
        prof, _, cert = self.build()
        first = cert.per_agent[0]
        bumped = dataclasses.replace(first, margin=first.margin + 1)
        tampered = [
            dataclasses.replace(cert, per_agent=(bumped, *cert.per_agent[1:])),
            dataclasses.replace(cert, society_margin=cert.society_margin + 1),
        ]
        for bad in tampered:
            assert not revalidate(prof, bad)
            with pytest.raises(InternalError, match="spurious-unanimity witness fails"):
                witnesses._certified(prof, bad)

    def test_two_agent_profile_has_no_bystander_margins(self):
        _, _, cert = self.build()
        assert {am.agent for am in cert.per_agent} == {0, 1}

    def test_three_agents_with_bystander_slack(self):
        prof = three_agents()
        dec = utilitarian_decompose(prof)
        p1, p2 = distinct_priors(prof.agents[0].beliefs, prof.agents[1].beliefs)
        cert = witness_spurious_unanimity(prof, dec, 0, 1, p1, p2)
        assert_certified(prof, cert)
        assert {am.agent for am in cert.per_agent} == {0, 1, 2}
        rerun = pareto_star_check(prof, cert.act_x, cert.act_f)
        assert rerun.violation

    def test_distinct_singletons(self):
        a1 = Agent(utility([1, 0]), singleton("0.3"))
        a2 = Agent(utility([0, 1]), singleton("0.7"))
        soc = Agent(utility(["1/2", "1/2"]), interval("0.2", "0.8"), "society")
        prof = profile([a1, a2], soc)
        dec = utilitarian_decompose(prof)
        cert = witness_spurious_unanimity(
            prof, dec, 0, 1, vec(["0.3", "0.7"]), vec(["0.7", "0.3"])
        )
        assert_certified(prof, cert)

    def test_priors_of_unequal_norm(self):
        """Priors that are not mirror images give the two agents different
        offsets, so each agent's state values need its own."""
        a1 = Agent(utility([1, 0]), singleton("0.3"))
        a2 = Agent(utility([0, 1]), singleton("0.6"))
        soc = Agent(utility(["1/2", "1/2"]), interval("0.2", "0.8"), "society")
        prof = profile([a1, a2], soc)
        cert = witness_spurious_unanimity(
            prof, utilitarian_decompose(prof), 0, 1, vec(["0.3", "0.7"]), vec(["0.6", "0.4"])
        )
        assert_certified(prof, cert)


class TestEveryModeChecks:
    """Builders re-check their margins in every run mode, python -O too.

    The tuning values are pinned, not options, so a value past its bound is
    made by patching `witnesses._small`, the helper that pins epsilon (lemma
    1) and the bystander bonus nu (spurious unanimity) at half their bound.
    """

    def test_lemma1_epsilon_past_its_bound_raises(self, monkeypatch):
        prof = random_profile(
            GenParams(seed=0, n=2, m=2, d=2, max_vertices=2, society_rule="minkowski")
        )
        det = check_thm1_condition(prof).details
        assert det["failure"] == "belief-outside-society"
        args = (prof, det["decomposition"], det["agent"], det["prior"], det["hyperplane"])
        assert_certified(prof, witness_lemma1(*args))
        monkeypatch.setattr(witnesses, "_small", lambda numerator, slack_weight: F(1000))
        with pytest.raises(InternalError, match="re-check"):
            witness_lemma1(*args)

    def test_witness_for_builds_on_the_reports_hyperplane(self):
        """The lemma-1 witness re-checks the failed report's separator
        instead of solving for one again: a flipped one is refused."""
        prof = random_profile(
            GenParams(seed=0, n=2, m=2, d=2, max_vertices=2, society_rule="minkowski")
        )
        report = check_thm1_condition(prof)
        h = report.details["hyperplane"]
        assert witness_for(prof, report) == witness_lemma1(
            prof, report.details["decomposition"], report.details["agent"],
            report.details["prior"], h,
        )
        flipped = Hyperplane(tuple(-x for x in h.normal), -h.threshold)
        bad = ConditionReport(report.condition, False, {**report.details, "hyperplane": flipped})
        with pytest.raises(PreconditionError, match="does not strictly separate"):
            witness_for(prof, bad)

    def test_spurious_epsilon_past_its_spread_bound_raises(self, monkeypatch):
        """The society margin b (a1 + a2) epsilon, with epsilon pinned below
        its spread bound, must outweigh the bystander's nu-sized bonus; a nu
        past its share of that margin leaves society preferring f."""
        prof = three_agents()
        dec = utilitarian_decompose(prof)
        assert dec.alpha[2] > 0
        p1, p2 = distinct_priors(prof.agents[0].beliefs, prof.agents[1].beliefs)
        args = (prof, dec, 0, 1, p1, p2)
        assert_certified(prof, witness_spurious_unanimity(*args))
        monkeypatch.setattr(witnesses, "_small", lambda numerator, slack_weight: F(1000))
        with pytest.raises(InternalError, match="re-check"):
            witness_spurious_unanimity(*args)


class TestBuilderInputGuards:
    """Each builder refuses arguments that cannot certify a violation."""

    # The arguments of `test_documented_combo_margins`, which build a witness.
    COMBO = (vec(["0.6", "0.4"]), vec(["0.3", "0.7"]))
    CUT = Hyperplane(vec([0, 1]), F(3, 10))

    def ct_args(self):
        prof = scenario2(singleton("0.8"))
        return prof, self.COMBO, self.CUT, *check_c_minimal_agreement(prof)

    def test_ct_combo_of_wrong_length(self):
        prof, combo, h, x_star, x_low = self.ct_args()
        with pytest.raises(PreconditionError, match="combo must pick one prior per agent"):
            witness_ct_pareto_star(prof, combo[:1], h, x_star, x_low)

    def test_ct_combo_prior_outside_its_set(self):
        prof, combo, h, x_star, x_low = self.ct_args()
        outside = (vec(["0.9", "0.1"]), combo[1])
        with pytest.raises(PreconditionError, match="missing from its agent's belief set"):
            witness_ct_pareto_star(prof, outside, h, x_star, x_low)

    @pytest.mark.parametrize("flip", ["swapped", "equal"])
    def test_ct_agent_gain_not_positive(self, flip):
        prof, combo, h, x_star, x_low = self.ct_args()
        pair = (x_low, x_star) if flip == "swapped" else (x_star, x_star)
        with pytest.raises(PreconditionError, match="every agent must strictly prefer"):
            witness_ct_pareto_star(prof, combo, h, *pair)

    def test_ct_society_gain_not_positive(self):
        base = scenario2(singleton("0.8"))
        soc = Agent(utility([0, 1]), singleton("0.8"), "society")
        prof = profile(base.agents, soc)
        with pytest.raises(PreconditionError, match="society must strictly prefer"):
            witness_ct_pareto_star(prof, self.COMBO, self.CUT, vec([1, 0]), vec([0, 0]))

    def test_lemma1_decomposition_must_reproduce_the_society(self):
        prof = scenario1(singleton("0.5"))
        bad = Decomposition((F(1), F(1)), F(0))
        with pytest.raises(PreconditionError, match="does not reproduce the society's taste"):
            witness_lemma1(prof, bad, 0, vec(["0.8", "0.2"]), LEMMA1_CUT)

    def test_lemma1_prior_outside_the_agents_set(self):
        prof = scenario1(singleton("0.5"))
        dec = utilitarian_decompose(prof)
        with pytest.raises(PreconditionError, match="cited prior is not in the agent's belief"):
            witness_lemma1(prof, dec, 0, vec(["0.9", "0.1"]), LEMMA1_CUT)

    @pytest.mark.parametrize("args, message", [
        ((0, 0, vec(["0.2", "0.8"]), vec(["0.8", "0.2"])), "need two distinct agents"),
        ((0, 1, vec(["0.9", "0.1"]), vec(["0.8", "0.2"])), "must belong to the agents' belief"),
        ((0, 1, vec(["0.2", "0.8"]), vec(["0.1", "0.9"])), "must belong to the agents' belief"),
    ])
    def test_spurious_agents_and_priors(self, args, message):
        prof = scenario1()
        with pytest.raises(PreconditionError, match=message):
            witness_spurious_unanimity(prof, utilitarian_decompose(prof), *args)

    def test_spurious_decomposition_must_reproduce_the_society(self):
        prof = scenario1()
        bad = Decomposition((F(1), F(1)), F(0))
        with pytest.raises(PreconditionError, match="does not reproduce the society's taste"):
            witness_spurious_unanimity(prof, bad, 0, 1, vec(["0.2", "0.8"]), vec(["0.8", "0.2"]))

    def test_spurious_zero_weight_agent(self):
        base = scenario1()
        prof = profile(base.agents, Agent(base.agents[0].utility, interval("0.2", "0.8")))
        dec = utilitarian_decompose(prof)
        assert dec.alpha == (F(1), F(0))
        with pytest.raises(PreconditionError, match="both agents must carry positive weight"):
            witness_spurious_unanimity(prof, dec, 0, 1, vec(["0.2", "0.8"]), vec(["0.8", "0.2"]))
