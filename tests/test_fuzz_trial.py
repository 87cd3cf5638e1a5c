"""The certificate-free fuzz trial, and the six axioms under relabelling.

`fuzz_axiom` asks each checker for its premise and conclusion alone
(`certify=False`) and runs it again in full only on a violation.  On a
sweep of seeded 2-4-state profiles (n = 2-3, every society rule, perturbed
societies included so that the weak axioms fail too), all six axioms and
both samplers, every trial's two bits must equal those of the full checker
and of `act_oracle`'s `Fraction` checkers, and every report must equal the
one `act_oracle.fuzz_axiom` builds by calling the full checker on every
trial.  Planted act pairs whose denominators differ run first in each
report, so the rescaling to one denominator is on the compared path.

The symmetry sweep relabels a profile and an act pair without changing
what they mean (states, agents, outcome coordinates, and one utility's
positive affine rescaling); premise and conclusion must not move, and each
certificate of the relabelled verdict must re-prove by evaluation.
"""

import dataclasses
import warnings
from collections import Counter
from fractions import Fraction

import pytest

import act_oracle
from paretostar import Act, Agent, AffineUtility, Polytope, Profile, act, axioms, preferences
from paretostar.axioms import AXIOM_CHECKS
from paretostar.geometry import convex_weights
from paretostar.harness import GenParams, SplitMix64, fuzz_axiom, random_profile
from paretostar.preferences import check_c_minimal_agreement

from helpers import revalidate_certs

F = Fraction
RULES = ("minkowski", "hull-union", "perturbed", "perturbed")
SAMPLERS = ("general", "common-taste")
TRIALS = 24


def _profiles(count, first=0):
    """(seed, profile) on 2-4 states, n = 2-3.  Societies cycle through the
    Minkowski and hull-union rules, a perturbed belief set, and one simplex
    corner as the whole belief set, which the weak axioms fail most often."""
    for seed in range(first, first + count):
        params = GenParams(
            seed=seed,
            n=2 + seed % 2,
            m=2 + (seed // 2) % 3,
            d=1 + (seed // 3) % 3,
            max_vertices=1 + (seed // 5) % 3,
            society_rule=RULES[seed % 4],
        )
        try:
            prof = random_profile(params)
        except AssertionError:
            continue  # a society taste that cancels to zero
        if seed % 4 == 3:
            corner = tuple(F(int(s == seed % prof.states)) for s in range(prof.states))
            society = Agent(prof.society.utility, Polytope.from_generators([corner]), "society")
            prof = dataclasses.replace(prof, society=society)
        yield seed, prof


def _planted(prof, seed):
    """Two act pairs whose rows have different least denominators."""
    rng = SplitMix64(seed)
    dens = ((3, 7), (5, 4))
    pairs = []
    for den_f, den_g in dens:
        f = act([[F(rng.randint(-9, 9), den_f) for _ in range(prof.outcome_dim)]
                 for _ in range(prof.states)])
        g = act([[F(rng.randint(-9, 9), den_g) for _ in range(prof.outcome_dim)]
                 for _ in range(prof.states)])
        pairs.append((f, g))
    return tuple(pairs)


def _runs():
    """(profile, axiom, sampler, seed, planted) for every run of the sweep."""
    for seed, prof in _profiles(36):
        planted = _planted(prof, seed)
        for axiom in AXIOM_CHECKS:
            for sampler in SAMPLERS:
                if sampler == "common-taste" and check_c_minimal_agreement(prof) is None:
                    continue
                yield prof, axiom, sampler, seed, planted


def _bits(verdict):
    return verdict.premise_holds, verdict.conclusion_holds


def test_trial_bits_match_full_checker_and_oracle():
    seen = Counter()
    dens = Counter()
    for prof, axiom, sampler, seed, planted in _runs():
        check = AXIOM_CHECKS[axiom]
        for f, g in act_oracle.fuzz_pairs(prof, sampler, TRIALS, seed, planted):
            bare = check(prof, f, g, certify=False)
            full = check(prof, f, g)
            want = act_oracle.AXIOM_CHECKS[axiom](prof, f, g)
            assert _bits(bare) == _bits(full) == _bits(want), (axiom, seed, f, g)
            assert bare.axiom == axiom and bare.certificates == {}
            seen[axiom, "premise"] += bare.premise_holds
            seen[axiom, "violation"] += bare.violation
            dens[f.cleared[1] != g.cleared[1]] += 1
    for axiom in AXIOM_CHECKS:
        assert seen[axiom, "premise"] >= 250, seen
        assert seen[axiom, "violation"] >= 20, seen
    assert dens[True] >= 1000, dens


def test_reports_match_reference_loop():
    reports = violations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the general sampler on ct- axioms
        for prof, axiom, sampler, seed, planted in _runs():
            got = fuzz_axiom(prof, axiom, TRIALS, sampler, seed, planted)
            want = act_oracle.fuzz_axiom(prof, axiom, TRIALS, sampler, seed, planted)
            assert got == want, (axiom, sampler, seed)
            reports += 1
            violations += len(got.violations)
    assert reports >= 300 and violations >= 150, (reports, violations)


def test_certificate_free_trial_builds_no_fraction(monkeypatch):
    """Five checkers decide their bits on integers alone; exchange-pareto-star's
    premise is a margin LP's answer, which comes back in `Fraction`s."""
    cases = [(prof, f, g) for seed, prof in _profiles(36)
             for sampler in SAMPLERS if sampler == "general" or check_c_minimal_agreement(prof)
             for f, g in act_oracle.fuzz_pairs(prof, sampler, 6, seed, _planted(prof, seed))]

    def refused(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(axioms, "Fraction", refused)
    monkeypatch.setattr(preferences, "Fraction", refused)
    for prof, f, g in cases:
        for axiom, check in AXIOM_CHECKS.items():
            if axiom != "exchange-pareto-star":
                check(prof, f, g, certify=False)
    with pytest.raises(AssertionError, match="Fraction"):
        for prof, f, g in cases:
            AXIOM_CHECKS["pareto-star"](prof, f, g)


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------

def _relabel(prof, f, g, *, states=None, agents=None, coords=None, rescale=None):
    """The profile and acts under a state permutation, an agent permutation,
    an outcome-coordinate permutation, and/or `rescale = (who, a, b)`, which
    maps agent `who`'s utility u (the society's when `who` is None) to
    a * u + b."""
    m, d = prof.states, prof.outcome_dim
    states = states or tuple(range(m))
    coords = coords or tuple(range(d))

    def move_act(h):
        return Act(tuple(tuple(h.rows[s][j] for j in coords) for s in states))

    def move_agent(a, rescaled):
        u = a.utility
        coeffs, const = tuple(u.coeffs[j] for j in coords), u.constant
        if rescaled:
            _, scale, shift = rescale
            coeffs, const = tuple(scale * c for c in coeffs), scale * const + shift
        beliefs = Polytope.from_generators([tuple(v[s] for s in states) for v in a.beliefs.vertices])
        return Agent(AffineUtility(coeffs, const), beliefs, a.name)

    who = rescale[0] if rescale else -1
    moved = [move_agent(a, i == who) for i, a in enumerate(prof.agents)]
    order = agents or tuple(range(prof.n))
    society = move_agent(prof.society, rescale is not None and who is None)
    return Profile(m, d, tuple(moved[i] for i in order), society), move_act(f), move_act(g)


def _recheck(prof, f, g, verdict):
    """Certificates re-prove by evaluation, and every prior lies in its set."""
    revalidate_certs(prof, f, g, verdict)
    certs = verdict.certificates
    for i, cert in certs.get("agents", {}).items():
        assert cert["prior"] in prof.agents[i].beliefs.vertices
    for j, cert in certs.get("exchange", {}).items():
        assert convex_weights(cert["prior"], list(prof.agents[j].beliefs.vertices)) is not None
    if "society_strict" in certs:
        assert certs["society_strict"]["prior"] in prof.society.beliefs.vertices


def _transforms(prof, rng):
    m, d, n = prof.states, prof.outcome_dim, prof.n

    def shuffled(k):
        order = list(range(k))
        for i in range(k - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        return tuple(order)

    who = rng.randint(0, n)  # n picks the society
    scale, shift = F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(-5, 5), 3)
    return {
        "states": {"states": shuffled(m)},
        "agents": {"agents": shuffled(n)},
        "rescale": {"rescale": (None if who == n else who, scale, shift)},
        "coords": {"coords": shuffled(d)},
    }


def test_axioms_survive_relabelling():
    seen = Counter()
    for seed, prof in _profiles(40, first=100):
        rng = SplitMix64(seed)
        pairs = list(act_oracle.fuzz_pairs(prof, "general", 6, seed, _planted(prof, seed)))
        if check_c_minimal_agreement(prof) is not None:
            pairs += act_oracle.fuzz_pairs(prof, "common-taste", 6, seed)
        transforms = _transforms(prof, rng)
        for f, g in pairs:
            for axiom, check in AXIOM_CHECKS.items():
                base = check(prof, f, g)
                seen[axiom, "premise"] += base.premise_holds
                seen[axiom, "violation"] += base.violation
                for name, kwargs in transforms.items():
                    moved = _relabel(prof, f, g, **kwargs)
                    verdict = check(*moved)
                    assert _bits(verdict) == _bits(base), (axiom, name, seed, f, g)
                    _recheck(*moved, verdict)
                    seen[name] += 1
    for axiom in AXIOM_CHECKS:
        assert seen[axiom, "premise"] >= 60 and seen[axiom, "violation"] >= 8, seen
    assert min(seen[name] for name in ("states", "agents", "rescale", "coords")) >= 1000, seen
