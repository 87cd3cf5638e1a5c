"""Representation-level conditions and society construction rules."""

from collections import Counter
from fractions import Fraction

import pytest

from paretostar import (
    Agent,
    Polytope,
    PreconditionError,
    Profile,
    SplitMix64,
    aggregate_society,
    check_corollary2,
    check_eq1_dght1,
    check_eq4_dght2,
    check_lemma1_superset,
    check_prop1,
    check_prop2,
    check_seu_existence,
    check_thm1_condition,
    check_thm2_condition,
    membership,
    profile,
    utilitarian_decompose,
    utility,
    vec,
)
from paretostar import characterizations
from paretostar.characterizations import (
    Decomposition,
    combo_meets,
    enumerate_combos,
    verify_decomposition,
)
from paretostar.documents import dumps
from paretostar.geometry import dot, intersect_polytopes, solve_linear
from paretostar.harness import GenParams, random_profile

import lp_oracle
from helpers import interior_point, interval, scenario1, scenario2, singleton

F = Fraction


class TestDecompose:
    def test_coordinate_basis(self):
        prof = scenario1()
        dec = utilitarian_decompose(prof)
        assert dec.alpha == (F(1, 2), F(1, 2)) and dec.beta == 0
        assert verify_decomposition(prof, dec)

    def test_sign_obstruction(self):
        base = scenario1()
        soc = Agent(utility([1, -1]), interval("0.2", "0.8"), "society")
        assert utilitarian_decompose(profile(base.agents, soc)) is None

    def test_dictator_decomposition(self):
        base = scenario1()
        soc = Agent(base.agents[0].utility, interval("0.2", "0.8"), "society")
        dec = utilitarian_decompose(profile(base.agents, soc))
        assert dec.alpha == (F(1), F(0)) and dec.beta == 0

    def test_support_constraint_strictness(self):
        base = scenario1()
        soc = Agent(base.agents[0].utility, interval("0.2", "0.8"), "society")
        prof = profile(base.agents, soc)
        assert utilitarian_decompose(prof, (0,)) is not None
        assert utilitarian_decompose(prof, (1,)) is None
        assert utilitarian_decompose(prof, (0, 1)) is None  # needs alpha_2 > 0


class TestEq1:
    def test_common_belief_set(self):
        assert check_eq1_dght1(scenario1()).holds

    def test_disjoint_singletons_fail(self):
        a1 = Agent(utility([1, 0]), singleton("0.3"))
        a2 = Agent(utility([0, 1]), singleton("0.7"))
        soc = Agent(utility(["1/2", "1/2"]), singleton("0.5"), "society")
        assert not check_eq1_dght1(profile([a1, a2], soc)).holds

    def test_memberships_revalidate(self):
        rep = check_eq1_dght1(scenario1())
        soc = scenario1().society
        for (i, w), weights in rep.details["memberships"].items():
            verts = scenario1().agents[i].beliefs.vertices
            recon = tuple(
                sum(mu * v[k] for mu, v in zip(weights, verts)) for k in range(2)
            )
            assert recon == w


class TestThm1:
    def test_common_singleton_prior_passes(self):
        a1 = Agent(utility([1, 0]), singleton("0.5"))
        a2 = Agent(utility([0, 1]), singleton("0.5"))
        soc = Agent(utility(["1/2", "1/2"]), singleton("0.5"), "society")
        rep = check_thm1_condition(profile([a1, a2], soc))
        assert rep.holds and rep.details["clause"] == "common-single-prior"

    def test_taste_dictator_passes(self):
        base = scenario1()
        soc = Agent(base.agents[0].utility, interval("0.1", "0.9"), "society")
        rep = check_thm1_condition(profile(base.agents, soc))
        assert rep.holds and rep.details["clause"] == "taste-dictator"

    def test_two_weighted_multiprior_agents_fail(self):
        rep = check_thm1_condition(scenario1())
        assert not rep.holds
        assert rep.details["failure"] == "two-positive-weights"

    def test_belief_escape_detected(self):
        base = scenario1()
        soc = Agent(base.agents[0].utility, singleton("0.5"), "society")
        rep = check_thm1_condition(profile(base.agents, soc))
        assert not rep.holds
        assert rep.details["failure"] == "belief-outside-society"
        h = rep.details["hyperplane"]
        assert dot(h.normal, rep.details["prior"]) > h.threshold

    def test_requires_diversity(self):
        with pytest.raises(PreconditionError):
            check_thm1_condition(scenario2(singleton("0.8")))


class TestLemma1Superset:
    def test_union_society_passes(self):
        base = scenario1()
        soc = Agent(utility(["1/2", "1/2"]), interval("0.1", "0.9"), "society")
        prof = profile(base.agents, soc)
        dec = utilitarian_decompose(prof)
        assert check_lemma1_superset(prof, dec).holds

    def test_strict_inclusion_fails_with_witness_vertex(self):
        base = scenario1()
        soc = Agent(utility(["1/2", "1/2"]), interval("0.3", "0.7"), "society")
        prof = profile(base.agents, soc)
        rep = check_lemma1_superset(prof, utilitarian_decompose(prof))
        assert not rep.holds
        assert not membership(rep.details["prior"], soc.beliefs)

    def test_support_filtering(self):
        a1 = Agent(utility([1, 0]), interval("0.2", "0.8"))
        a2 = Agent(utility([0, 1]), interval("0.1", "0.9"))
        soc = Agent(utility([1, 0]), interval("0.2", "0.8"), "society")
        prof = profile([a1, a2], soc)
        dec = Decomposition((F(1), F(0)), F(0))
        assert check_lemma1_superset(prof, dec).holds


class TestEq4:
    def test_second_scenario_with_singleton(self):
        assert check_eq4_dght2(scenario2(singleton("0.8"))).holds

    def test_outside_pooled_hull_fails(self):
        prof = scenario2(singleton("0.9"))
        rep = check_eq4_dght2(prof)
        assert not rep.holds
        h = rep.details["hyperplane"]
        assert dot(h.normal, rep.details["vertex"]) > h.threshold

    def test_clone_society(self):
        base = scenario2(interval("0.6", "0.8"))
        assert check_eq4_dght2(base).holds


class TestThm2:
    def test_window_society_passes_with_combo_certs(self):
        prof = scenario2(interval("0.3", "0.6"))
        rep = check_thm2_condition(prof)
        assert rep.holds
        combos = rep.details["combos"]
        assert len(combos) == 4
        for entry in combos:
            gamma, mu = entry["gamma"], entry["society_weights"]
            mix = tuple(
                sum(g * p[k] for g, p in zip(gamma, entry["combo"])) for k in range(2)
            )
            verts = prof.society.beliefs.vertices
            soc_mix = tuple(
                sum(m * v[k] for m, v in zip(mu, verts)) for k in range(2)
            )
            assert mix == soc_mix

    def test_singleton_society_fails_with_validating_separator(self):
        prof = scenario2(singleton("0.8"))
        rep = check_thm2_condition(prof)
        assert not rep.holds
        combo, h = rep.details["combo"], rep.details["hyperplane"]
        assert combo == (vec(["0.6", "0.4"]), vec(["0.2", "0.8"]))
        assert all(dot(h.normal, p) > h.threshold for p in combo)
        assert all(
            dot(h.normal, w) < h.threshold for w in prof.society.beliefs.vertices
        )

    def test_shared_singleton_trivial(self):
        a1 = Agent(utility([1, 0]), singleton("0.4"))
        a2 = Agent(utility([0, 1]), singleton("0.4"))
        soc = Agent(utility(["1/2", "1/2"]), interval("0.2", "0.8"), "society")
        assert check_thm2_condition(profile([a1, a2], soc)).holds

    def test_requires_common_strict_pair(self):
        a1 = Agent(utility([1, 0]), singleton("0.4"))
        a2 = Agent(utility([-1, 0]), singleton("0.4"))
        soc = Agent(utility([1, 0]), singleton("0.4"), "society")
        with pytest.raises(PreconditionError):
            check_thm2_condition(profile([a1, a2], soc))


class TestCorollary2:
    def test_interval_intersection_inside_society(self):
        a1 = Agent(utility([1, 0]), interval("0.2", "0.8"))
        a2 = Agent(utility([0, 1]), interval("0.6", "0.9"))
        soc = Agent(utility(["1/2", "1/2"]), interval("0.5", "0.85"), "society")
        rep = check_corollary2(profile([a1, a2], soc))
        assert rep.details["a"] is True
        assert rep.details["intersection"] == (
            (F(3, 5), F(2, 5)),
            (F(4, 5), F(1, 5)),
        )

    def test_all_equal_passes_both(self):
        rep = check_corollary2(scenario1())
        assert rep.details["a"] is True and rep.details["b"] is True and rep.holds

    def test_smaller_society_fails_b(self):
        rep = check_corollary2(scenario1(interval("0.3", "0.7")))
        assert rep.details["b"] is False and not rep.holds

    def test_empty_intersection_vacuous(self):
        a1 = Agent(utility([1, 0]), interval("0.1", "0.2"))
        a2 = Agent(utility([0, 1]), interval("0.7", "0.9"))
        soc = Agent(utility(["1/2", "1/2"]), singleton("0.5"), "society")
        rep = check_corollary2(profile([a1, a2], soc))
        assert rep.details["a"] is True and rep.details["intersection"] is None


class TestSeuExistence:
    def test_window_between_intervals(self):
        p = check_seu_existence([interval("0.6", "0.8"), interval("0.2", "0.3")])
        assert p is not None
        assert F(3, 10) <= p[0] <= F(3, 5)
        for combo in enumerate_combos([interval("0.6", "0.8"), interval("0.2", "0.3")]):
            assert membership(p, Polytope.from_generators(list(combo)))

    def test_common_singleton(self):
        p = check_seu_existence([singleton("0.4"), singleton("0.4")])
        assert p == (F(2, 5), F(3, 5))

    def test_overlapping_intervals_can_still_fail(self):
        assert check_seu_existence([interval("0", "0.6"), interval("0.4", "1")]) is None

    def test_failure_spot_check_candidates_all_separated(self):
        sets = [interval("0", "0.6"), interval("0.4", "1")]
        rng = SplitMix64(31)
        for _ in range(20):
            candidate = rng.simplex_point(2, 8)
            missed = False
            for combo in enumerate_combos(sets):
                hull = Polytope.from_generators(list(combo))
                if not membership(candidate, hull):
                    from paretostar import separate

                    assert separate([candidate], hull) is not None
                    missed = True
                    break
            assert missed


class TestProps:
    def test_delegation_matches(self):
        for prof in (
            scenario2(singleton("0.8")),
            scenario2(interval("0.3", "0.6")),
            scenario1(),
        ):
            assert check_prop1(prof).holds == check_eq4_dght2(prof).holds
            assert check_prop2(prof).holds == check_thm2_condition(prof).holds
            assert check_prop1(prof).details["delegated_to"] == "eq4"
            assert check_prop2(prof).details["delegated_to"] == "thm2"


class TestAggregateSociety:
    def test_minkowski_of_identical_sets(self):
        prof = scenario1()
        soc = aggregate_society(prof, ("1/2", "1/2"), 0, "minkowski", gamma=("1/2", "1/2"))
        assert soc.beliefs == interval("0.2", "0.8")

    def test_hull_union_second_scenario(self):
        prof = scenario2(singleton("0.8"))
        soc = aggregate_society(prof, ("1/2", "1/2"), 0, "hull-union")
        assert soc.beliefs == interval("0.2", "0.8")

    def test_degenerate_weight_recovers_first_set(self):
        prof = scenario2(singleton("0.8"))
        soc = aggregate_society(prof, (1, 1), 0, "minkowski", gamma=(1, 0))
        assert soc.beliefs == prof.agents[0].beliefs

    def test_invalid_weights_rejected(self):
        prof = scenario1()
        with pytest.raises(ValueError):
            aggregate_society(prof, (0, 0), 0, "hull-union")
        with pytest.raises(ValueError):
            aggregate_society(prof, (1, 1), 0, "minkowski", gamma=("1/2", "1/4"))


def _random_society_profile(seed, rule):
    params = GenParams(
        seed=seed,
        n=2 + seed % 2,
        m=2 + (seed // 2) % 2,
        d=2 + seed % 2,
        max_vertices=2 + seed % 2,
        society_rule=rule,
    )
    return random_profile(params)


class TestBoundDuality:
    def test_rule_built_societies_pass_both_bounds(self):
        from paretostar.preferences import check_c_minimal_agreement

        count = 0
        seed = 0
        while count < 25:
            prof = _random_society_profile(seed, ("minkowski", "hull-union")[seed % 2])
            seed += 1
            if check_c_minimal_agreement(prof) is None:
                continue
            assert check_eq4_dght2(prof).holds, seed
            assert check_thm2_condition(prof).holds, seed
            count += 1

    def test_thm2_monotone_in_society_set(self):
        prof = scenario2(interval("0.3", "0.6"))
        assert check_thm2_condition(prof).holds
        bigger = scenario2(interval("0.1", "0.9"))
        assert check_thm2_condition(bigger).holds

    def test_eq4_monotone_under_shrinking(self):
        prof = scenario2(interval("0.2", "0.8"))
        assert check_eq4_dght2(prof).holds
        smaller = scenario2(interval("0.35", "0.55"))
        assert check_eq4_dght2(smaller).holds

    def test_intersection_inside_society_when_thm2_holds(self):
        count = 0
        seed = 100
        from paretostar.preferences import check_c_minimal_agreement

        while count < 15:
            prof = _random_society_profile(seed, "minkowski")
            seed += 1
            if check_c_minimal_agreement(prof) is None:
                continue
            if not check_thm2_condition(prof).holds:
                continue
            inter = intersect_polytopes([a.beliefs for a in prof.agents])
            if inter is None:
                continue
            for v in inter.vertices:
                assert membership(v, prof.society.beliefs)
            count += 1

    def test_interior_combos_never_escape(self):
        rng = SplitMix64(41)
        prof = scenario2(interval("0.3", "0.6"))
        assert check_thm2_condition(prof).holds
        for _ in range(100):
            combo = tuple(interior_point(rng, a.beliefs) for a in prof.agents)
            assert combo_meets(combo, prof.society.beliefs) is not None


class TestInternalChecks:
    """Broken internals raise RuntimeError in every run mode, python -O too."""

    def test_missing_separator_raises(self, monkeypatch):
        monkeypatch.setattr(characterizations, "separate", lambda points, P: None)
        with pytest.raises(RuntimeError):
            check_thm2_condition(scenario2(singleton("0.8")))


class TestThm1Decomposition:
    """thm1 takes its taste weights from `utilitarian_decompose`; under
    c-diversity they must equal the linear solve it used before
    (`lp_oracle.unique_decomposition`), whatever the society's taste."""

    @staticmethod
    def _societies(prof, rng):
        """The drawn society, then arbitrary, negative-weight and dictator tastes."""
        yield prof.society
        d, n = prof.outcome_dim, prof.n
        coeffs = [a.utility.coeffs for a in prof.agents]
        pooled = Polytope.from_generators([v for a in prof.agents for v in a.beliefs.vertices])
        tastes = [tuple(rng.signed_fraction(4, 6) for _ in range(d))]
        alpha = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        alpha[rng.randint(0, n - 1)] *= -1
        tastes.append(tuple(sum(a * c[k] for a, c in zip(alpha, coeffs)) for k in range(d)))
        dictator = rng.randint(0, n - 1)
        tastes.append(tuple(F(rng.randint(1, 4)) * x for x in coeffs[dictator]))
        for taste in tastes:
            if any(taste):
                for beliefs in (prof.society.beliefs, pooled):
                    yield Agent(utility(taste, F(1, 3)), beliefs, "society")

    def test_matches_unique_decomposition(self):
        outcomes = Counter()
        rng = SplitMix64(77)
        for seed in range(400):
            n = 2 + seed % 2
            params = GenParams(
                seed=seed, n=n, m=2 + (seed // 2) % 2, d=n + (seed // 4) % 2,
                max_vertices=1 + (seed // 8) % 3,
                society_rule=("minkowski", "hull-union", "perturbed")[seed % 3],
            )
            base = random_profile(params)
            if seed % 5 == 0:
                # Every agent on one shared single prior.
                shared = base.agents[0].beliefs.vertices[:1]
                base = profile(
                    [Agent(a.utility, Polytope(shared), a.name) for a in base.agents],
                    Agent(base.society.utility, Polytope(shared), "society"),
                )
            for society in self._societies(base, rng):
                prof = Profile(base.states, base.outcome_dim, base.agents, society)
                try:
                    report = check_thm1_condition(prof)
                except PreconditionError:
                    break
                want = lp_oracle.unique_decomposition(prof)
                assert utilitarian_decompose(prof) == want
                if want is None:
                    assert not report.holds and report.details == {"reason": "no-decomposition"}
                    rows = [[a.utility.coeffs[k] for a in prof.agents] for k in range(prof.outcome_dim)]
                    spanned = solve_linear(rows, list(society.utility.coeffs)) is not None
                    outcomes["negative-weight" if spanned else "outside-span"] += 1
                else:
                    got = report.details["decomposition"]
                    assert got == want and dumps(got) == dumps(want)
                    outcomes[report.details.get("clause") or report.details["failure"]] += 1
        floors = {
            "negative-weight": 500, "outside-span": 300, "two-positive-weights": 50,
            "belief-outside-society": 50, "common-single-prior": 50, "taste-dictator": 5,
        }
        assert all(outcomes[kind] > floor for kind, floor in floors.items()), outcomes
