"""Representation-level conditions and society construction rules."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from paretostar import (
    Agent,
    CapExceededError,
    DimensionMismatchError,
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
from paretostar import characterizations, geometry
from paretostar.characterizations import (
    Decomposition,
    combo_meets,
    enumerate_combos,
    verify_decomposition,
)
from paretostar.documents import dumps, load_profile
from paretostar.geometry import (
    delta,
    dot,
    intersect_polytopes,
    solve_linear,
    vadd,
    vec_parts,
    vscale,
    zero_vec,
)
from paretostar.harness import GenParams, random_profile
from paretostar.preferences import AffineUtility

import lp_oracle
from helpers import interior_point, interval, scenario1, scenario2, singleton, wide_profile

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

    def test_matches_oracle_with_each_agents_hull_once(self, monkeypatch):
        """Verdicts equal the subset loop's (`lp_oracle.check_eq1_dght1`),
        every report passes `_recheck_eq1`, and each agent's hull weights are
        computed once per call."""
        new_calls = Counter()
        hull_weights = characterizations._hull_weights

        def counting(points, P):
            new_calls[id(P)] += 1
            return hull_weights(points, P)

        monkeypatch.setattr(characterizations, "_hull_weights", counting)
        holds = Counter()
        for seed in range(90):
            # d < n often: several supports decompose the society's taste.
            base = random_profile(GenParams(
                seed=seed, n=2 + seed % 3, m=2 + (seed // 3) % 2, d=1 + seed % 3,
                max_vertices=1 + (seed // 2) % 3,
                society_rule=("minkowski", "hull-union", "perturbed")[seed % 3],
            ))
            # The drawn society, then one sharing a vertex of one agent's set.
            vertex = Polytope(base.agents[seed % base.n].beliefs.vertices[:1])
            for beliefs in (base.society.beliefs, vertex):
                society = Agent(base.society.utility, beliefs, "society")
                prof = Profile(base.states, base.outcome_dim, base.agents, society)
                new_calls.clear()
                got = check_eq1_dght1(prof)
                assert got.holds == lp_oracle.check_eq1_dght1(prof).holds, seed
                _recheck_eq1(prof, got)
                assert sorted(new_calls) == sorted({id(a.beliefs) for a in prof.agents}), seed
                assert all(count == 1 for count in new_calls.values()), seed
                holds[got.holds] += 1
        assert holds[True] > 15 and holds[False] > 50, holds

    def test_sweep_matches_oracle(self):
        """640 profiles: zero-gradient societies, tastes that weight only some
        agents, P0 a vertex of one agent's set, P0 inside some or every
        agent's set, and drawn sets."""
        seen = Counter()
        for seed in range(640):
            prof, taste, nest = _eq1_sweep_profile(seed)
            got = check_eq1_dght1(prof)
            assert got.holds == lp_oracle.check_eq1_dght1(prof).holds, seed
            _recheck_eq1(prof, got)
            seen[taste, got.holds] += 1
            seen[nest, got.holds] += 1
            if got.holds:
                seen["support smaller than all agents"] += len(got.details["support"]) < prof.n
            else:
                seen["no LP" if not got.details["containing"] else "LP infeasible"] += 1
        # Every kind of society both passes and fails; with P0 inside every
        # agent's set only a zero gradient can fail.
        for kind in ("all", "some", "zero", "drawn", "agent-vertex", "some-contain"):
            assert seen[kind, True] >= 10 and seen[kind, False] >= 100, seen
        assert seen["every-contains", True] >= 100 and seen["every-contains", False] >= 20, seen
        assert min(seen["support smaller than all agents"], seen["no LP"],
                   seen["LP infeasible"]) >= 100, seen

    @pytest.mark.parametrize("n", [14, 16])
    def test_wide_profile_is_linear(self, n, monkeypatch):
        """Two-vertex sets [0.2, 0.8] for n agents of one taste and
        P0 = [0.1, 0.9], which no agent's set contains (the subset loop
        would solve 2**n - 1 LPs), or P0 = [0.3, 0.7], which every set
        contains.  Work and the failing report's size grow linearly."""
        lps = _count_lps(monkeypatch)
        sizes = []
        for agents in (n - 1, n, n + 1):
            for p0, holds in ((("0.1", "0.9"), False), (("0.3", "0.7"), True)):
                lps.clear()
                prof = _two_vertex_profile(agents, *p0)
                rep = check_eq1_dght1(prof)
                assert rep.holds is holds
                _recheck_eq1(prof, rep)
                # No LP when no agent contains P0.  P0's first vertex 0.1
                # lies outside every agent's coordinate box [0.2, 0.8], so
                # its hull test needs no LP either; each vertex of P0 = [0.3,
                # 0.7] takes one hull LP per agent.
                assert lps["decomposition"] == holds
                assert lps["hull"] == (agents * 2 if holds else 0)
                if not holds:
                    sizes.append(len(dumps(rep)))
        assert sizes[2] - sizes[1] == sizes[1] - sizes[0] > 0, sizes
        assert sizes[1] < 80 * n, sizes

    @pytest.mark.parametrize("agents", [1, 5, 16])
    def test_vertex_inside_the_box_takes_one_hull_lp_per_agent(self, agents, monkeypatch):
        """Every agent holds the triangle with vertices (3/5, 2/5, 0),
        (0, 3/5, 2/5), (2/5, 0, 3/5), whose coordinate box is [0, 3/5]^3.
        P0's first vertex (0, 1/2, 1/2) lies in that box but outside the
        triangle: the box cannot decide it, so each agent solves one hull
        LP before eq1 fails.  A P0 inside the triangle takes one hull LP per
        agent and vertex."""
        lps = _count_lps(monkeypatch)
        triangle = Polytope.from_generators(
            [vec(v) for v in (("3/5", "2/5", 0), (0, "3/5", "2/5"), ("2/5", 0, "3/5"))]
        )
        centre = vec(("1/3", "1/3", "1/3"))
        for second, holds in ((("0", "1/2", "1/2"), False), (("3/5", "2/5", 0), True)):
            lps.clear()
            P0 = Polytope.from_generators([centre, vec(second)])
            prof = profile(
                [Agent(utility([1, 0]), triangle, f"a{i}") for i in range(agents)],
                Agent(utility([1, 0]), P0, "society"),
            )
            rep = check_eq1_dght1(prof)
            assert rep.holds is holds
            _recheck_eq1(prof, rep)
            assert lps["decomposition"] == holds
            assert lps["hull"] == (agents * 2 if holds else agents)
            if not holds:
                assert rep.details["outside"] == {i: vec(second) for i in range(agents)}


def _count_lps(monkeypatch) -> Counter:
    """Count simplex solves: "hull" through geometry, "decomposition" for
    eq1's own LP, which characterizations calls directly.  "largest" is the
    most cells (rows times columns) of any one of them."""
    lps = Counter()
    solve = geometry.simplex_standard

    def counting(kind):
        def wrapper(rows, rhs, objective):
            lps[kind] += 1
            lps["largest"] = max(lps["largest"], len(rows) * len(objective))
            return solve(rows, rhs, objective)
        return wrapper

    monkeypatch.setattr(geometry, "simplex_standard", counting("hull"))
    monkeypatch.setattr(characterizations, "simplex_standard", counting("decomposition"))
    return lps


def _two_vertex_profile(n: int, lo: str, hi: str) -> Profile:
    agents = [Agent(utility([1, 0]), interval("0.2", "0.8"), f"a{i}") for i in range(n)]
    return profile(agents, Agent(utility([1, 0]), interval(lo, hi), "society"))


def _recheck_eq1(prof: Profile, rep) -> None:
    """Check an eq1 report by direct evaluation.

    Which agents' sets contain P0 comes from hull LPs on the oracle's own
    simplex (`lp_oracle.convex_weights`), and the canonical decomposition
    from the oracle's least-total-weight LP over those agents.
    """
    P0 = prof.society.beliefs.vertices
    inside = {
        i: [lp_oracle.convex_weights(w, list(a.beliefs.vertices)) is not None for w in P0]
        for i, a in enumerate(prof.agents)
    }
    containing = tuple(i for i, flags in inside.items() if all(flags))
    if not rep.holds:
        outside = {i: P0[flags.index(False)] for i, flags in inside.items() if not all(flags)}
        assert rep.details == {"containing": containing, "outside": outside}
        return
    dec = rep.details["decomposition"]
    assert verify_decomposition(prof, dec)
    assert rep.details["support"] == dec.support
    assert set(dec.support) <= set(containing)
    rows = [[F(prof.agents[i].utility.coeffs[k]) for i in containing]
            for k in range(prof.outcome_dim)]
    rhs = [F(c) for c in prof.society.utility.coeffs]
    if all(c == 0 for c in rhs):
        rows.append([F(1)] * len(containing))
        rhs.append(F(1))
    _, z, _ = lp_oracle.simplex_standard(rows, rhs, [F(-1)] * len(containing))
    assert tuple(dec.alpha[i] for i in containing) == tuple(z)
    memberships = rep.details["memberships"]
    assert list(memberships) == [(i, w) for i in dec.support for w in P0]
    for (i, w), mu in memberships.items():
        verts = prof.agents[i].beliefs.vertices
        assert len(mu) == len(verts) and min(mu) >= 0 and sum(mu) == 1
        assert tuple(sum((x * v[k] for x, v in zip(mu, verts)), F(0)) for k in range(len(w))) == w


def _eq1_sweep_profile(seed: int) -> tuple[Profile, str, str]:
    """(profile, taste kind, belief kind) for one seed of the eq1 sweep.

    Taste kinds: a positive weighting of every agent ("all"), of a random
    proper subset ("some"), a zero gradient ("zero").  Belief kinds: a drawn
    set ("drawn"), one vertex of one agent's set ("agent-vertex"), a point
    added to every agent's set ("every-contains") or to some of them
    ("some-contain").
    """
    n = 2 + seed % 3
    base = random_profile(GenParams(
        seed=seed, n=n, m=2 + (seed // 3) % 2, d=1 + (seed // 2) % 3,
        max_vertices=1 + (seed // 5) % 3, society_rule="none",
    ))
    rng = SplitMix64(10_000 + seed)
    taste = ("all", "some", "zero")[seed % 3]
    nest = ("drawn", "agent-vertex", "every-contains", "some-contain")[(seed // 3) % 4]
    weighted = range(n)
    if taste == "some":
        weighted = [i for i in range(n) if rng.randint(0, 1)][: n - 1] or [rng.randint(0, n - 1)]
    coeffs = [F(0)] * base.outcome_dim
    if taste != "zero":
        for i in weighted:
            a = F(rng.randint(1, 6), rng.randint(1, 6))
            coeffs = [c + a * x for c, x in zip(coeffs, base.agents[i].utility.coeffs)]
    agents = list(base.agents)
    if nest == "drawn":
        beliefs = Polytope.from_generators(
            [rng.simplex_point(base.states, 8) for _ in range(rng.randint(1, 2))]
        )
    elif nest == "agent-vertex":
        verts = agents[seed % n].beliefs.vertices
        beliefs = Polytope(verts[rng.randint(0, len(verts) - 1):][:1])
    else:
        point = rng.simplex_point(base.states, 8)
        chosen = range(n) if nest == "every-contains" else [i for i in range(n) if rng.randint(0, 1)]
        for i in chosen:
            a = agents[i]
            grown = Polytope.from_generators([*a.beliefs.vertices, point])
            agents[i] = Agent(a.utility, grown, a.name)
        beliefs = Polytope((point,))
    society = Agent(AffineUtility(tuple(coeffs), F(rng.randint(-2, 2))), beliefs, "society")
    return Profile(base.states, base.outcome_dim, tuple(agents), society), taste, nest


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


def _simplex_draw(rng, m: int, as_ints: bool = False):
    """A random point of the m-state simplex over a random denominator; with
    `as_ints`, a point mass written with int entries."""
    if as_ints:
        k = rng.randrange(m)
        return tuple(int(i == k) for i in range(m))
    q = rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 12))
    cuts = sorted(rng.randint(0, q) for _ in range(m - 1))
    return tuple(F(b - a, q) for a, b in zip([0, *cuts], [*cuts, q]))


class TestComboMeets:
    """`combo_meets` builds integer rows over one L; `lp_oracle.combo_meets` is
    the `Fraction`-row version on the `Fraction` simplex.  The (gamma, mu)
    pairs must be equal, since both tableaux take the same pivots."""

    def test_matches_oracle_on_seeded_sweep(self):
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(600):
            m = rng.randint(2, 4)
            vertices = {_simplex_draw(rng, m, rng.random() < 0.15) for _ in range(rng.randint(1, 4))}
            P0 = Polytope(tuple(sorted(vertices)))
            combo = tuple(
                _simplex_draw(rng, m, rng.random() < 0.25) for _ in range(rng.randint(1, 4))
            )
            got = combo_meets(combo, P0)
            assert got == lp_oracle.combo_meets(combo, P0), (combo, P0)
            if got is not None:
                assert all(type(x) is Fraction for part in got for x in part)
            seen["meets" if got is not None else "misses"] += 1
            seen["int entries"] += any(type(x) is int for c in (*combo, *vertices) for x in c)
            seen["mixed denominators"] += len({vec_parts(v)[1] for v in vertices}) > 1
        assert seen["meets"] >= 200 and seen["misses"] >= 250, seen
        assert seen["int entries"] >= 300 and seen["mixed denominators"] >= 300, seen

    def test_combo_with_fewer_states_than_p0_raises(self):
        P0 = Polytope((vec(["1/2", "1/2", 0]),))
        with pytest.raises(DimensionMismatchError):
            combo_meets((vec(["1/2", "1/2"]), vec(["1/2", "1/2"])), P0)

    def test_combo_of_mixed_lengths_raises(self):
        P0 = Polytope((vec(["1/2", "1/2"]),))
        with pytest.raises(DimensionMismatchError):
            combo_meets((vec(["1/2", "1/2"]), vec(["1/2", "1/2", 0])), P0)

    def test_combo_with_more_states_than_p0_raises(self):
        P0 = Polytope((vec(["1/2", "1/2"]),))
        with pytest.raises(DimensionMismatchError):
            combo_meets((vec(["1/2", "1/2", 0]), vec([0, "1/2", "1/2"])), P0)


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

    def test_shared_set_matches_two_pass_oracle(self):
        """Clause (b) read off canonical vertices equals the two hull-LP passes
        (`lp_oracle.check_corollary2`) with P0 equal to the agents' shared set,
        a superset, a subset and a set disjoint from it."""
        seen = Counter()
        for seed in range(60):
            m = 2 + seed % 2
            rng = SplitMix64(seed)
            shared = Polytope.from_generators(
                [delta(seed % m, m)] + [rng.simplex_point(m, 6) for _ in range(1 + seed % 3)]
            )
            if shared.is_singleton():
                continue
            base = random_profile(GenParams(seed=seed, n=2 + seed % 2, m=m, society_rule="none"))
            agents = tuple(Agent(a.utility, shared, a.name) for a in base.agents)
            verts = list(shared.vertices)
            outside = [c for c in (delta(s, m) for s in range(m)) if not membership(c, shared)]
            societies = {
                # Generators reordered, with an interior point to drop.
                "equal": verts[::-1] + [interior_point(rng, shared)],
                "superset": verts + [delta(s, m) for s in range(m)],
                "subset": [verts[0], interior_point(rng, shared)],
                "disjoint": outside[:1],
            }
            for kind, generators in societies.items():
                if not generators:
                    continue
                beliefs = Polytope.from_generators(generators)
                soc = Agent(base.agents[0].utility, beliefs, "society")
                prof = Profile(m, base.outcome_dim, agents, soc)
                got, want = check_corollary2(prof), lp_oracle.check_corollary2(prof)
                assert got == want and dumps(got) == dumps(want), (seed, kind)
                seen[kind, got.details["b"]] += 1
        assert seen["equal", True] > 30 and seen["subset", False] > 30, seen
        assert seen["superset", False] > 10 and seen["disjoint", False] > 10, seen


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


class TestSeuLabelledCombos:
    """Single-prior existence on the combos that label a vertex of the
    Minkowski sum, against the product-wide LP (`lp_oracle`)."""

    def test_shipped_profiles_match_product_oracle(self, profiles_dir):
        for path in sorted(profiles_dir.glob("*.profile")):
            sets = [a.beliefs for a in load_profile(path).agents]
            assert check_seu_existence(sets) == lp_oracle.check_seu_existence(sets), path.name

    def test_many_agent_profiles_match_product_oracle(self):
        """n = 3, m = 3 profiles with 1-12 combos, the shape `many-agents` runs."""
        seen = Counter()
        for seed in range(1, 200):
            base = random_profile(GenParams(
                seed=seed, n=3, m=3, d=2, max_vertices=3, denom_bound=6, society_rule="none",
            ))
            sets = [a.beliefs for a in base.agents]
            if characterizations.combo_count(sets) > 12:
                continue
            got = check_seu_existence(sets)
            assert got == lp_oracle.check_seu_existence(sets), seed
            seen[got is None] += 1
        assert seen[True] >= 20 and seen[False] >= 20, seen

    def test_sweep_matches_product_oracle(self):
        """n, m and drawn vertex counts each 2-4, at most 24 combos."""
        seen = Counter()
        for seed in range(400):
            sets = _seu_sweep_sets(seed)
            if characterizations.combo_count(sets) > 24:
                continue
            got = check_seu_existence(sets)
            assert got == lp_oracle.check_seu_existence(sets), seed
            if got is not None:
                assert all(membership(got, Polytope.from_generators(list(c)))
                           for c in enumerate_combos(sets)), seed
            seen[got is None] += 1
            seen["pruned"] += len(_labelled(sets)) < characterizations.combo_count(sets)
        assert seen[True] >= 50 and seen[False] >= 50 and seen["pruned"] >= 100, seen

    def test_labelled_combos_match_brute_force(self):
        """A combo is kept exactly when its sum lies outside the hull of the
        other combos' sums, decided by `lp_oracle.convex_weights`."""
        seen = Counter()
        for seed in range(150):
            sets = _seu_sweep_sets(seed)
            combos = list(itertools.product(*(P.vertices for P in sets)))
            if len(combos) > 24:
                continue
            sums = [tuple(sum(c[k] for c in combo) for k in range(len(combo[0])))
                    for combo in combos]
            want = [
                combo for j, combo in enumerate(combos)
                if lp_oracle.convex_weights(sums[j], sums[:j] + sums[j + 1:]) is None
            ]
            assert _labelled(sets) == want, seed
            seen["pruned" if len(want) < len(combos) else "all"] += 1
        assert seen["pruned"] >= 50 and seen["all"] >= 5, seen

    def test_wide_profile_solves_two_combo_blocks(self, monkeypatch):
        """16 agents share the interval [0.2, 0.8]: 65 536 combos, of which
        only the two all-equal ones label a vertex.  The product LP would
        have 196 608 rows; this one has two blocks of three, after one
        redundancy LP for each of the 15 interior sums."""
        lps = _count_lps(monkeypatch)
        assert check_seu_existence([a.beliefs for a in wide_profile(16).agents]) is None
        assert lps == Counter({"hull": 16, "largest": 6 * (2 + 16 * 2)})


def _labelled(sets) -> list:
    return [combo for _, combo in characterizations._minkowski_vertices(sets, [1] * len(sets))[1]]


def _seu_sweep_sets(seed: int) -> list[Polytope]:
    """2-4 belief sets over 2-4 states, each drawn from 2-4 points."""
    rng = SplitMix64(5_000 + seed)
    n, m = 2 + seed % 3, 2 + (seed // 3) % 3
    return [
        Polytope.from_generators([rng.simplex_point(m, 6) for _ in range(rng.randint(2, 4))])
        for _ in range(n)
    ]


class TestCommonlyRanked:
    """thm2's precondition by Gordan's alternative equals the margin LP's
    answer (`lp_oracle.check_c_minimal_agreement`)."""

    @pytest.mark.parametrize("coeffs, ranked", [
        ([(1, 0), (0, 1)], True),
        ([(1, 0), (-1, 0)], False),  # conflicting
        ([(1, 2), (2, 4)], True),  # proportional
        ([(1, 2), (-2, -4)], False),  # opposed proportional
        ([(1, 0), (0, 0)], False),  # a zero gradient
        ([(1, 0), (-1, 1), (-1, -1)], False),  # positively spanning
        ([(1, 0), (-1, 1), (0, 1)], True),
    ])
    def test_small_cases(self, coeffs, ranked):
        agents = [Agent(utility(c), singleton("0.4"), f"a{i}") for i, c in enumerate(coeffs)]
        prof = profile(agents, Agent(utility([1, 1]), singleton("0.4"), "society"))
        assert characterizations._commonly_ranked(prof) is ranked
        assert (lp_oracle.check_c_minimal_agreement(prof) is not None) is ranked

    def test_sweep_matches_margin_lp(self):
        seen = Counter()
        for seed in range(300):
            rng = SplitMix64(9_000 + seed)
            n, d = 2 + seed % 3, 1 + (seed // 3) % 3
            agents = [
                Agent(utility([rng.randint(-3, 3) for _ in range(d)]), singleton("0.4"), f"a{i}")
                for i in range(n)
            ]
            prof = profile(agents, Agent(utility([1] * d), singleton("0.4"), "society"))
            got = characterizations._commonly_ranked(prof)
            assert got == (lp_oracle.check_c_minimal_agreement(prof) is not None), seed
            seen[got] += 1
        assert seen[True] >= 50 and seen[False] >= 50, seen


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

    def test_minkowski_matches_the_vector_sum_oracle(self):
        """Integer generator sums against `_minkowski_oracle`: n = 2-4
        agents, m = 2-4 states, single-vertex agents and gamma with zero
        entries."""
        seen = Counter()
        for seed in range(90):
            n = 2 + seed % 3
            base = random_profile(GenParams(
                seed=seed, n=n, m=2 + (seed // 9) % 3, d=2,
                max_vertices=1 + (seed // 3) % (3 if n < 4 else 2),
                society_rule="none",
            ))
            rng = SplitMix64(seed)
            weights = [rng.randint(0, 3) for _ in range(n)]
            if not any(weights):
                weights[seed % n] = 1
            gamma = tuple(F(w, sum(weights)) for w in weights)
            alpha = (1,) * n
            got = aggregate_society(base, alpha, 0, "minkowski", gamma=gamma).beliefs
            assert got == _minkowski_oracle(base, gamma), seed
            assert all(type(x) is Fraction for v in got.vertices for x in v), seed
            seen["n=%d" % n] += 1
            seen["zero weight"] += 0 in weights
            seen["single-vertex agent"] += any(a.beliefs.is_singleton() for a in base.agents)
            seen["several vertices"] += len(got.vertices) > 1
        assert min(seen.values()) >= 20, seen

    def test_minkowski_over_the_combo_cap_raises(self):
        prof = wide_profile(17)
        with pytest.raises(CapExceededError, match="131072 vertex combos exceed the cap 100000"):
            aggregate_society(prof, (1,) * 17, 0, "minkowski", gamma=(F(1, 17),) * 17)


def _minkowski_oracle(prof: Profile, gamma) -> Polytope:
    """The Minkowski society's belief set as `aggregate_society` built it
    before it summed generators in integers: each generator a `vadd` /
    `vscale` sum over a vertex combo, redundant generators removed by one
    `lp_oracle` hull LP per point."""
    points = []
    for combo in itertools.product(*(a.beliefs.vertices for a in prof.agents)):
        p = zero_vec(prof.states)
        for g, v in zip(gamma, combo):
            p = vadd(p, vscale(g, v))
        points.append(p)
    return Polytope(tuple(sorted(lp_oracle.remove_redundant(points))))


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
