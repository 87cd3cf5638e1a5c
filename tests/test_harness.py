"""Deterministic generation, fuzzing, and checker/witness cross-validation."""

import dataclasses
from fractions import Fraction

import pytest

from paretostar import (
    GenParams,
    MissingSocietyError,
    PreconditionError,
    cross_validate,
    fuzz_axiom,
    profile,
    random_profile,
    validate_profile,
    witnesses,
)
from paretostar.axioms import AXIOM_CHECKS
from paretostar.characterizations import CONDITION_CHECKS, ConditionReport, Decomposition
from paretostar.geometry import Hyperplane
from paretostar.harness import SplitMix64
from paretostar.witnesses import (
    WitnessCertificate,
    witness_ct_pareto_star,
    witness_lemma1,
    witness_spurious_unanimity,
)

from helpers import REFORM, STATUS_QUO, interval, scenario1, scenario2, singleton


class TestGenerator:
    def test_same_seed_same_profile(self):
        params = GenParams(seed=1, n=3, m=3, d=2, max_vertices=3)
        assert random_profile(params) == random_profile(params)

    def test_single_vertex_means_seu(self):
        prof = random_profile(GenParams(seed=4, max_vertices=1))
        assert all(len(a.beliefs.vertices) == 1 for a in prof.agents)

    def test_output_always_validates(self):
        for seed in range(12):
            rule = ("minkowski", "hull-union", "perturbed", "none")[seed % 4]
            prof = random_profile(GenParams(seed=seed, society_rule=rule))
            assert validate_profile(prof) == []

    @pytest.mark.parametrize("rule", ["minkowski", "hull-union", "perturbed"])
    def test_invalid_draw_raises_with_asserts_stripped(self, rule):
        """Seed 280's society taste cancels to zero: the generator raises
        AssertionError under python -O too, and never returns the profile."""
        with pytest.raises(AssertionError, match="zero gradient"):
            random_profile(GenParams(seed=280, n=2, m=2, d=1, society_rule=rule))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(seed=0, n=1)
        with pytest.raises(ValueError):
            GenParams(seed=0, m=1)
        with pytest.raises(ValueError, match="denominator bound must be positive"):
            GenParams(seed=0, denom_bound=0)

    def test_unknown_society_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown society rule 'dictator'"):
            random_profile(GenParams(seed=0, society_rule="dictator"))

    def test_empty_rng_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            SplitMix64(42).randint(3, 2)

    def test_rng_stream_is_pinned(self):
        rng = SplitMix64(42)
        assert rng.next_u64() == 13679457532755275413


class TestFuzz:
    def test_zero_trials_empty_report(self):
        report = fuzz_axiom(scenario1(), "pareto-star", 0)
        assert report.trials == 0 and report.premise_hits == 0
        assert report.violations == ()

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be nonnegative"):
            fuzz_axiom(scenario1(), "pareto-star", -5)

    def test_unknown_axiom_or_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown axiom 'pareto-2'"):
            fuzz_axiom(scenario1(), "pareto-2", 5)
        with pytest.raises(ValueError, match="unknown sampler 'uniform'"):
            fuzz_axiom(scenario1(), "pareto-star", 5, sampler="uniform")

    def test_planted_pair_found(self):
        report = fuzz_axiom(
            scenario1(), "pareto-star", 50, seed=2, planted=(((STATUS_QUO, REFORM)),)
        )
        assert report.violations
        f, g, verdict = report.violations[0]
        assert (f, g) == (STATUS_QUO, REFORM) and verdict.violation

    def test_digest_reproducible(self):
        a = fuzz_axiom(scenario1(), "pareto-star", 80, seed=9)
        b = fuzz_axiom(scenario1(), "pareto-star", 80, seed=9)
        assert a.digest == b.digest and a.premise_hits == b.premise_hits
        c = fuzz_axiom(scenario1(), "pareto-star", 80, seed=10)
        assert c.digest != a.digest

    def test_premise_hits_with_disjoint_beliefs(self):
        prof = scenario2(singleton("0.8"))
        report = fuzz_axiom(prof, "ct-pareto-star", 200, sampler="common-taste", seed=1)
        assert report.premise_hits > 0

    def test_general_sampler_warns_for_common_taste_axioms(self):
        with pytest.warns(UserWarning):
            fuzz_axiom(scenario1(), "ct-pareto-star", 5, sampler="general", seed=0)

    def test_missing_society(self):
        prof = profile(scenario1().agents)
        with pytest.raises(MissingSocietyError):
            fuzz_axiom(prof, "pareto-star", 10)

    def test_common_taste_sampler_needs_strict_pair(self):
        from paretostar import Agent, utility

        a1 = Agent(utility([1, 0]), singleton("0.4"))
        a2 = Agent(utility([-1, 0]), singleton("0.4"))
        soc = Agent(utility([1, 0]), singleton("0.4"), "society")
        with pytest.raises(PreconditionError):
            fuzz_axiom(profile([a1, a2], soc), "pareto-star", 5, sampler="common-taste")


class TestCrossValidate:
    def test_checker_pass_branch(self):
        cv = cross_validate(scenario2(interval("0.2", "0.8")), "thm2", trials=150, seed=3)
        assert cv.verdict == "CONSISTENT" and cv.checker_holds
        assert cv.fuzz is not None and not cv.fuzz.violations

    def test_checker_fail_branch_builds_witness(self):
        cv = cross_validate(scenario2(singleton("0.8")), "thm2", trials=50, seed=3)
        assert cv.verdict == "CONSISTENT" and not cv.checker_holds
        assert isinstance(cv.witness, WitnessCertificate)

    def test_thm1_fail_branch(self):
        cv = cross_validate(scenario1(), "thm1", trials=50, seed=5)
        assert cv.verdict == "CONSISTENT" and not cv.checker_holds
        assert cv.witness.kind == "spurious-unanimity"

    def test_thm1_pass_branch(self):
        from paretostar import Agent

        base = scenario1()
        soc = Agent(base.agents[0].utility, interval("0.1", "0.9"), "society")
        cv = cross_validate(profile(base.agents, soc), "thm1", trials=200, seed=5)
        assert cv.verdict == "CONSISTENT" and cv.checker_holds
        assert not cv.fuzz.violations

    def test_corrupted_checker_is_caught(self, monkeypatch):
        # Claims the singleton society is fine; fuzzing must disagree.
        prof = scenario2(singleton("0.8"))
        monkeypatch.setitem(CONDITION_CHECKS, "thm2", lambda p: ConditionReport("thm2", True, {}))
        cv = cross_validate(prof, "thm2", trials=400, seed=11)
        assert cv.verdict == "INCONSISTENT"

    def test_corrupted_witness_is_caught(self, monkeypatch):
        # A builder whose acts come back swapped passes its own margin check
        # but violates no axiom; the axiom re-check must catch it.
        prof = scenario2(singleton("0.8"))
        build = witnesses.witness_ct_pareto_star

        def swapped(*args):
            good = build(*args)
            return dataclasses.replace(good, act_f=good.act_x, act_x=good.act_f)

        monkeypatch.setattr(witnesses, "witness_ct_pareto_star", swapped)
        cv = cross_validate(prof, "thm2", trials=0, seed=0)
        assert cv.verdict == "INCONSISTENT" and not cv.checker_holds
        assert cv.witness.kind == "ct-pareto-star"

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(scenario1(), "eq1")

    def test_no_false_alarms_for_thm1_at_scale(self):
        """200 random c-diverse profiles never produce an INCONSISTENT verdict."""
        from paretostar import Agent, aggregate_society, check_c_diversity

        count = 0
        seed = 40000
        rng = SplitMix64(51)
        while count < 200:
            n = 2 + seed % 2
            params = GenParams(
                seed=seed,
                n=n,
                m=2 + seed % 2,
                d=n,
                max_vertices=1 + seed % 3,
                denom_bound=6,
                society_rule=("minkowski", "perturbed")[seed % 2],
            )
            seed += 1
            prof = random_profile(params)
            if check_c_diversity(prof) is None:
                continue
            if rng.randint(0, 3) == 0:
                # mix in societies that satisfy the condition: a taste
                # dictator whose belief set the society contains
                alpha = tuple(int(i == 0) for i in range(n))
                soc = aggregate_society(prof, alpha, 0, "hull-union")
                prof = dataclasses.replace(prof, society=soc)
            cv = cross_validate(prof, "thm1", trials=120, seed=seed)
            assert cv.verdict == "CONSISTENT", (seed, cv.detail)
            count += 1


def _society_entry_points():
    """(name, call on a profile) for every public route that needs a society."""
    F = Fraction
    p1, p2 = (F(3, 5), F(2, 5)), (F(1, 5), F(4, 5))
    dec = Decomposition((F(1, 2), F(1, 2)), F(0))
    points = [(f"axiom:{tag}", lambda prof, check=check: check(prof, STATUS_QUO, REFORM))
              for tag, check in AXIOM_CHECKS.items()]
    points += [(f"condition:{tag}", check) for tag, check in CONDITION_CHECKS.items()]
    return points + [
        ("fuzz_axiom", lambda prof: fuzz_axiom(prof, "pareto-star", 10)),
        ("cross_validate", lambda prof: cross_validate(prof, "thm2", trials=5)),
        ("witness_ct_pareto_star", lambda prof: witness_ct_pareto_star(
            prof, (p1, p2), Hyperplane((F(1), F(0)), F(1, 10)), (F(1), F(0)), (F(0), F(0)))),
        ("witness_lemma1", lambda prof: witness_lemma1(
            prof, dec, 0, p1, Hyperplane((F(1), F(0)), F(1, 2)))),
        ("witness_spurious_unanimity",
         lambda prof: witness_spurious_unanimity(prof, dec, 0, 1, p1, p2)),
    ]


@pytest.mark.parametrize(
    "call", [c for _, c in _society_entry_points()], ids=[n for n, _ in _society_entry_points()]
)
def test_one_society_gate(call):
    """Six axioms, eight condition checks, the harness and the three witness
    builders all refuse a society-less profile with the same error."""
    assert len(_society_entry_points()) == 19
    with pytest.raises(MissingSocietyError, match=r"^profile has no society$"):
        call(profile(scenario2(singleton("0.8")).agents))

