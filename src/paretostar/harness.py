"""Random profiles, axiom fuzzing, and checker/witness cross-validation.

Randomness comes from an explicitly specified 64-bit generator (splitmix64)
rather than a platform default, so fuzz reports and their digests reproduce
bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .axioms import AXIOM_CHECKS, AxiomVerdict
from .characterizations import (
    DEFAULT_COMBO_CAP,
    aggregate_society,
    check_thm1_condition,
    check_thm2_condition,
)
from .errors import MissingSocietyError, PreconditionError
from .geometry import Polytope, Vec, segment_point
from .preferences import (
    Act,
    AffineUtility,
    Agent,
    Profile,
    check_c_minimal_agreement,
    validate_profile,
)
from .witnesses import WitnessCertificate, revalidate, witness_for

_ZERO = Fraction(0)
_ONE = Fraction(1)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, the usual additive/mixing constants.

    Chosen over the interpreter's generator so that the same seed yields the
    same stream in any reimplementation.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self.MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; determinism is
        what matters here, not bias at the 2^-60 level)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def unit_fraction(self, denom_bound: int) -> Fraction:
        den = self.randint(1, denom_bound)
        return Fraction(self.randint(0, den), den)

    def signed_fraction(self, magnitude: int, denom_bound: int) -> Fraction:
        den = self.randint(1, denom_bound)
        return Fraction(self.randint(-magnitude * den, magnitude * den), den)

    def simplex_point(self, m: int, denom_bound: int) -> Vec:
        den = self.randint(1, denom_bound)
        cuts = sorted(self.randint(0, den) for _ in range(m - 1))
        parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
        return tuple(Fraction(p, den) for p in parts)


@dataclass(frozen=True)
class GenParams:
    """Knobs for the deterministic profile generator."""

    seed: int
    n: int = 2
    m: int = 2
    d: int = 2
    max_vertices: int = 2
    denom_bound: int = 8
    society_rule: str = "minkowski"  # minkowski | hull-union | perturbed | none

    def __post_init__(self):
        if self.n < 2 or self.m < 2 or self.d < 1 or self.max_vertices < 1:
            raise ValueError("need n >= 2, m >= 2, d >= 1, max_vertices >= 1")
        if self.denom_bound < 1:
            raise ValueError("denominator bound must be positive")


def _random_beliefs(rng: SplitMix64, params: GenParams) -> Polytope:
    count = rng.randint(1, params.max_vertices)
    return Polytope.from_generators(
        [rng.simplex_point(params.m, params.denom_bound) for _ in range(count)]
    )


def _random_coeffs(rng: SplitMix64, params: GenParams) -> tuple[Fraction, ...]:
    while True:
        coeffs = tuple(
            rng.signed_fraction(params.denom_bound, params.denom_bound)
            for _ in range(params.d)
        )
        if any(c != 0 for c in coeffs):
            return coeffs


def random_profile(params: GenParams) -> Profile:
    """Deterministic profile from the seed; society attached per the rule.

    The society's taste is always an explicit positive weighting of the agent
    tastes, so taste decompositions exist by construction and belief rules
    alone decide the representation conditions.
    """
    rng = SplitMix64(params.seed)
    agents = []
    for i in range(params.n):
        utility = AffineUtility(
            _random_coeffs(rng, params),
            rng.signed_fraction(2, params.denom_bound),
        )
        agents.append(Agent(utility, _random_beliefs(rng, params), name=f"agent{i + 1}"))
    prof = Profile(params.m, params.d, tuple(agents))
    if params.society_rule == "none":
        return prof
    alpha = tuple(
        Fraction(rng.randint(1, params.denom_bound), rng.randint(1, params.denom_bound))
        for _ in range(params.n)
    )
    beta = rng.signed_fraction(2, params.denom_bound)
    if params.society_rule == "minkowski":
        weights = [rng.randint(1, params.denom_bound) for _ in range(params.n)]
        gamma = tuple(Fraction(w, sum(weights)) for w in weights)
        society = aggregate_society(prof, alpha, beta, "minkowski", gamma=gamma)
    elif params.society_rule == "hull-union":
        society = aggregate_society(prof, alpha, beta, "hull-union")
    elif params.society_rule == "perturbed":
        society = aggregate_society(
            prof, alpha, beta, "given", vertices=_random_beliefs(rng, params).vertices
        )
    else:
        raise ValueError(f"unknown society rule {params.society_rule!r}")
    prof = Profile(params.m, params.d, tuple(agents), society)
    assert not validate_profile(prof)
    return prof


# ---------------------------------------------------------------------------
# Act-pair samplers
# ---------------------------------------------------------------------------

SAMPLER_TAGS = ("general", "common-taste")

# Sampled acts: general outcomes lie in the box [-FUZZ_BOX, FUZZ_BOX], and every
# sampled entry and segment position has a denominator at most FUZZ_DENOM_BOUND.
FUZZ_BOX = 5
FUZZ_DENOM_BOUND = 6


def _sample_general(rng: SplitMix64, prof: Profile, box: int, denom_bound: int) -> Act:
    rows = []
    for _ in range(prof.states):
        rows.append(
            tuple(rng.signed_fraction(box, denom_bound) for _ in range(prof.outcome_dim))
        )
    return Act(tuple(rows))


def _segment_act(rng: SplitMix64, prof: Profile, pair, denom_bound: int) -> Act:
    x_star, x_low = pair
    return Act(tuple(
        segment_point(rng.unit_fraction(denom_bound), x_star, x_low)
        for _ in range(prof.states)
    ))


@dataclass(frozen=True)
class FuzzReport:
    axiom: str
    sampler: str
    trials: int
    premise_hits: int
    violations: tuple[tuple[Act, Act, AxiomVerdict], ...]
    digest: str


def _fmt_fraction(x: Fraction) -> str:
    return str(x)


def _fmt_act(f: Act) -> str:
    return ";".join(",".join(_fmt_fraction(v) for v in row) for row in f.rows)


def fuzz_axiom(
    prof: Profile,
    axiom: str,
    trials: int,
    sampler: str = "general",
    seed: int = 0,
    planted: tuple[tuple[Act, Act], ...] = (),
) -> FuzzReport:
    """Sample act pairs, evaluate the axiom, and accumulate a certified report.

    Planted pairs run as the first trials so known counterexamples cannot be
    missed by unlucky sampling.  The digest hashes the full trial stream
    (acts plus verdict bits) and is reproducible from (seed, params).
    """
    if prof.society is None:
        raise MissingSocietyError("fuzzing needs a society to test against")
    if axiom not in AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if sampler not in SAMPLER_TAGS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if axiom.startswith("ct-") and sampler == "general":
        warnings.warn(
            "general sampler rarely hits common-taste premises; "
            "use the common-taste sampler for premise coverage",
            stacklevel=2,
        )
    cmin = None
    if sampler == "common-taste":
        cmin = check_c_minimal_agreement(prof)
        if cmin is None:
            raise PreconditionError(
                "common-taste sampler needs a commonly strictly ranked outcome pair"
            )
    check = AXIOM_CHECKS[axiom]
    rng = SplitMix64(seed)
    sha = hashlib.sha256()
    premise_hits = 0
    violations = []
    for idx in range(trials):
        if idx < len(planted):
            f, g = planted[idx]
        elif sampler == "general":
            f = _sample_general(rng, prof, FUZZ_BOX, FUZZ_DENOM_BOUND)
            g = _sample_general(rng, prof, FUZZ_BOX, FUZZ_DENOM_BOUND)
        else:
            f = _segment_act(rng, prof, cmin, FUZZ_DENOM_BOUND)
            g = _segment_act(rng, prof, cmin, FUZZ_DENOM_BOUND)
        verdict = check(prof, f, g)
        if verdict.premise_holds:
            premise_hits += 1
        if verdict.violation:
            violations.append((f, g, verdict))
        sha.update(
            f"{idx}|{_fmt_act(f)}|{_fmt_act(g)}|{int(verdict.premise_holds)}{int(verdict.conclusion_holds)}\n".encode()
        )
    return FuzzReport(
        axiom, sampler, trials, premise_hits, tuple(violations), sha.hexdigest()
    )


# ---------------------------------------------------------------------------
# Cross-validation: condition checkers against axiom-level evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossValidation:
    condition: str
    verdict: str  # "CONSISTENT" | "INCONSISTENT"
    checker_holds: bool
    detail: str
    fuzz: FuzzReport | None = None
    witness: WitnessCertificate | None = None


_CROSS_AXIOM = {"thm2": ("ct-pareto-star", "common-taste"), "thm1": ("pareto-star", "general")}


def cross_validate(
    prof: Profile,
    condition: str,
    trials: int = 1000,
    seed: int = 0,
    combo_cap: int = DEFAULT_COMBO_CAP,
    checker=None,
    witness_builder=None,
) -> CrossValidation:
    """Pit a condition checker against axiom-level evidence.

    Checker passes -> fuzzing the matching axiom must find no violation.
    Checker fails -> the matching witness construction must produce a
    self-validating violation.  Any mismatch is an INCONSISTENT verdict,
    i.e. a bug in one of the two routes.
    """
    if condition not in _CROSS_AXIOM:
        raise ValueError(f"cross-validation supports thm1/thm2, not {condition!r}")
    if prof.society is None:
        raise MissingSocietyError("cross-validation needs a society")
    axiom, sampler = _CROSS_AXIOM[condition]
    if checker is None:
        checker = (
            (lambda p: check_thm2_condition(p, combo_cap))
            if condition == "thm2"
            else check_thm1_condition
        )
    report = checker(prof)

    if report.holds:
        fz = fuzz_axiom(prof, axiom, trials, sampler, seed)
        if fz.violations:
            return CrossValidation(
                condition,
                "INCONSISTENT",
                True,
                f"checker passed but fuzzing found {len(fz.violations)} violation(s)",
                fuzz=fz,
            )
        return CrossValidation(
            condition, "CONSISTENT", True, "checker passed; fuzzing found nothing", fuzz=fz
        )

    cert = witness_for(prof, report, witness_builder)
    # The built-in builders return only through `revalidate`; a supplied
    # builder's certificate is re-checked here.
    ok = (witness_builder is None or revalidate(prof, cert)) and AXIOM_CHECKS[
        cert.axiom_tag
    ](prof, cert.act_x, cert.act_f).violation
    if not ok:
        return CrossValidation(
            condition,
            "INCONSISTENT",
            False,
            "checker failed but the constructed witness does not validate",
            witness=cert,
        )
    return CrossValidation(
        condition, "CONSISTENT", False, "checker failed; witness validates", witness=cert
    )
