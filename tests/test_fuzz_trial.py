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

A drawn trial builds no act: it reads its values off the sampler table,
which holds every entry's value under every taste, and hands them to the
axiom's verdict function.  Over the same sweep, those values must equal
`_on_acts` on the act pair the trial stands for (the planted pair itself,
or the drawn rows over the table's denominator), an `Act` may be built only
for a drawn violation, and a utility of the wrong dimension must be refused
before any trial.

The symmetry sweep relabels a profile and an act pair without changing
what they mean (states, agents, outcome coordinates, and one utility's
positive affine rescaling); premise and conclusion must not move, and each
certificate of the relabelled verdict must re-prove by evaluation.
"""

import dataclasses
import warnings
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import act_oracle
from paretostar import (
    Act,
    Agent,
    AffineUtility,
    DimensionMismatchError,
    Polytope,
    Profile,
    act,
    axioms,
    harness,
    preferences,
    utility,
)
from paretostar.axioms import _VERDICTS, AXIOM_CHECKS
from paretostar.geometry import convex_weights
from paretostar.harness import (
    FUZZ_DENOM_BOUND,
    GenParams,
    SplitMix64,
    _segment_rows,
    fuzz_axiom,
    random_profile,
)
from paretostar.preferences import _cleared_act, _on_acts, check_c_minimal_agreement

from helpers import interval, revalidate_certs, scenario2

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
    """Every checker decides its bits without building a `Fraction` in
    `axioms` or `preferences`: exchange-pareto-star's margin LPs build theirs
    in `geometry`, and without certificates neither a one-vertex holder's
    margin nor a multi-vertex holder's hull-weighted prior is built."""
    cases = [(prof, f, g) for seed, prof in _profiles(36)
             for sampler in SAMPLERS if sampler == "general" or check_c_minimal_agreement(prof)
             for f, g in act_oracle.fuzz_pairs(prof, sampler, 6, seed, _planted(prof, seed))]

    def refused(*args):
        raise AssertionError("a Fraction was built")

    class NoPrior:
        """`axioms._ZERO`, the start of the hull-weighted prior's sums."""

        def __add__(self, other):
            raise AssertionError("a Fraction was built for an exchange prior")

        __radd__ = __add__

    monkeypatch.setattr(axioms, "Fraction", refused)
    monkeypatch.setattr(preferences, "Fraction", refused)
    monkeypatch.setattr(axioms, "_ZERO", NoPrior())
    for prof, f, g in cases:
        for check in AXIOM_CHECKS.values():
            check(prof, f, g, certify=False)
    # The full checks do build them, on these cases.
    built = set()
    for prof, f, g in cases:
        for axiom in ("pareto-star", "exchange-pareto-star"):
            try:
                AXIOM_CHECKS[axiom](prof, f, g)
            except AssertionError as exc:
                built.add((axiom, str(exc)))
    assert built == {
        ("pareto-star", "a Fraction was built"),
        ("exchange-pareto-star", "a Fraction was built"),
        ("exchange-pareto-star", "a Fraction was built for an exchange prior"),
    }


# ---------------------------------------------------------------------------
# Per-run taste tables
# ---------------------------------------------------------------------------

def _as_drawn(f, den):
    """The act on f's rows with its cleared cache over `den`, as a drawn
    trial builds it over its sampler table's denominator."""
    return _cleared_act(f.rows, tuple(tuple(int(x * den) for x in row) for row in f.rows), den)


def test_trial_values_equal_on_acts_of_their_pair(monkeypatch):
    seen = Counter()
    verdicts = dict(_VERDICTS)
    for seed, prof in _profiles(36):
        utilities = [a.utility for a in (*prof.agents, prof.society)]
        planted = _planted(prof, seed)
        for sampler in SAMPLERS:
            if sampler == "general":
                den = lcm(*range(1, FUZZ_DENOM_BOUND + 1))
            elif (pair := check_c_minimal_agreement(prof)) is not None:
                den = _segment_rows(pair, FUZZ_DENOM_BOUND, ())[1]
            else:
                continue
            axiom = list(AXIOM_CHECKS)[seed % 6]
            got = []

            def spy(prof, values, certify, decide=verdicts[axiom]):
                got.append(values)
                return decide(prof, values, certify)

            monkeypatch.setitem(_VERDICTS, axiom, spy)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the general sampler on ct- axioms
                fuzz_axiom(prof, axiom, TRIALS, sampler, seed, planted)
            pairs = list(act_oracle.fuzz_pairs(prof, sampler, TRIALS, seed, planted))
            assert len(got) == len(pairs) == TRIALS
            for idx, ((f, g), values) in enumerate(zip(pairs, got)):
                if idx >= len(planted):
                    f, g = _as_drawn(f, den), _as_drawn(g, den)
                    seen[sampler, prof.states] += 1
                else:
                    seen["planted", f.cleared[1] != g.cleared[1]] += 1
                assert values == _on_acts(utilities, f, g), (axiom, sampler, seed, idx)
    for sampler in SAMPLERS:
        for states in (2, 3, 4):
            assert seen[sampler, states] >= 150, seen
    assert seen["planted", True] >= 100, seen


def test_fuzz_run_builds_an_act_only_for_a_drawn_violation(monkeypatch):
    built = []
    init = Act.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Act, "__init__", counting)
    drawn_violations = planted_violations = quiet_runs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the general sampler on ct- axioms
        for prof, axiom, sampler, seed, planted in _runs():
            built.clear()
            report = fuzz_axiom(prof, axiom, TRIALS, sampler, seed, planted)
            ours = [any(f is p for p, _ in planted) for f, _, _ in report.violations]
            drawn = ours.count(False)
            assert len(built) == 2 * drawn, (axiom, sampler, seed)
            drawn_violations += drawn
            planted_violations += ours.count(True)
            quiet_runs += not report.violations
    assert drawn_violations >= 150 and planted_violations >= 5 and quiet_runs >= 200, (
        drawn_violations, planted_violations, quiet_runs)


def _misshapen_profiles():
    """Profiles, built without `validate_profile`, in which one utility (an
    agent's or the society's) has one coordinate too few or too many."""
    base = scenario2(interval("0.3", "0.6"))
    for coeffs in ([1], [1, 0, 2]):
        ann, bob = base.agents
        yield dataclasses.replace(base, agents=(dataclasses.replace(ann, utility=utility(coeffs)), bob))
        yield dataclasses.replace(
            base, society=dataclasses.replace(base.society, utility=utility(coeffs)))


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_fuzz_refuses_a_utility_of_the_wrong_dimension_before_any_trial(sampler, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    for axiom in AXIOM_CHECKS:
        monkeypatch.setitem(_VERDICTS, axiom, no_trial)
    monkeypatch.setattr(harness, "_evaluations", no_trial)
    planted = ((act([[1, 0], [0, 1]]), act([[0, 1], [1, 0]])),)
    refused = 0
    for prof in _misshapen_profiles():
        for trials, pairs in ((0, ()), (5, ()), (5, planted)):
            with pytest.raises(DimensionMismatchError):
                fuzz_axiom(prof, "ct-pareto-star", trials, sampler, 1, pairs)
            refused += 1
    assert refused == 12


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
