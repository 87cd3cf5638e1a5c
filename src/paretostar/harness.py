"""Random profiles, axiom fuzzing, and checker/witness cross-validation.

Randomness comes from an explicitly specified 64-bit generator (splitmix64)
rather than a platform default, so fuzz reports and their digests reproduce
bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .axioms import AXIOM_CHECKS, AxiomVerdict
from .characterizations import CONDITION_CHECKS, aggregate_society
from .errors import PreconditionError
from .geometry import Polytope, Vec, segment_point
from .preferences import (
    Act,
    AffineUtility,
    Agent,
    Profile,
    _cleared_act,
    _society,
    check_c_minimal_agreement,
    validate_profile,
)
from .witnesses import WitnessCertificate, witness_for

_ZERO = Fraction(0)
_ONE = Fraction(1)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, the usual additive/mixing constants.

    Chosen over the interpreter's generator so that the same seed yields the
    same stream in any reimplementation.  `next_u64` adds the golden-ratio
    increment 0x9E3779B97F4A7C15 and mixes with the multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB; it reads them as literals,
    since an attribute lookup per step costs more than the step's arithmetic.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
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
    # Raised, not asserted, so python -O keeps the check: a society taste
    # can cancel to zero.  Callers that redraw catch this type.
    problems = validate_profile(prof)
    if problems:
        raise AssertionError(f"seed {params.seed}: " + "; ".join(problems))
    return prof


# ---------------------------------------------------------------------------
# Act-pair samplers
# ---------------------------------------------------------------------------

SAMPLER_TAGS = ("general", "common-taste")

# Sampled acts: general outcomes lie in the box [-FUZZ_BOX, FUZZ_BOX], and every
# sampled entry and segment position has a denominator at most FUZZ_DENOM_BOUND.
FUZZ_BOX = 5
FUZZ_DENOM_BOUND = 6


def _draw(rng: SplitMix64, levels):
    """One entry of a sampler table: its denominator's level first, then its
    numerator's entry, as `unit_fraction` and `signed_fraction` draw.

    The indices are `randint(1, len(levels) - 1)` and
    `randint(0, len(level) - 1)` read straight off the stream, without a
    `randint` call per value.
    """
    level = levels[1 + rng.next_u64() % (len(levels) - 1)]
    return level[rng.next_u64() % len(level)]


def _entry_table(box: int, denom_bound: int):
    """Every entry the general sampler can draw, built once per fuzz run.

    `(levels, den)` with `levels[d][k + box*d] = (x, x * den, str(x))` for
    `x = Fraction(k, d)`, 1 <= d <= denom_bound, |k| <= box*d, and
    `den = lcm(1..denom_bound)`.  Each distinct x is built once, at its
    reduced denominator's level, and shared by every level that reaches it.
    """
    den = lcm(*range(1, denom_bound + 1))
    levels = [()]
    for d in range(1, denom_bound + 1):
        level = []
        for k in range(-box * d, box * d + 1):
            g = gcd(k, d)
            if g > 1:
                level.append(levels[d // g][(k + box * d) // g])
            else:
                x = Fraction(k, d)
                level.append((x, k * (den // d), str(x)))
        levels.append(level)
    return levels, den


def _general_act(rng: SplitMix64, states: int, dim: int, table) -> tuple[Act, str]:
    """An act whose entries come from `_entry_table`, drawn row by row as
    `signed_fraction` draws them, with its cleared cache filled, and its
    digest text."""
    levels, den = table
    rows, ints, texts = [], [], []
    for _ in range(states):
        row, row_ints, row_texts = zip(*[_draw(rng, levels) for _ in range(dim)])
        rows.append(row)
        ints.append(row_ints)
        texts.append(",".join(row_texts))
    return _cleared_act(tuple(rows), tuple(ints), den), ";".join(texts)


def _segment_rows(pair, denom_bound: int):
    """Every row the common-taste sampler can draw, built once per fuzz run.

    `(levels, den)` with `levels[d][k] = (row, ints, text)` for
    `row = segment_point(k/d, *pair)`, 1 <= d <= denom_bound, 0 <= k <= d:
    `ints` is the row over `den`, the least common denominator of the whole
    table, and `text` is `",".join(map(str, row))`.  Each distinct position
    k/d is built once, at its reduced denominator's level, and shared by
    every level that reaches it.
    """
    at = [()]  # at[d][k]: the row's index in `rows`
    rows = []
    for d in range(1, denom_bound + 1):
        level = []
        for k in range(d + 1):
            g = gcd(k, d)
            if g > 1:
                level.append(at[d // g][k // g])
            else:
                level.append(len(rows))
                rows.append(segment_point(Fraction(k, d), *pair))
        at.append(level)
    den = lcm(*[x.denominator for row in rows for x in row])
    entries = [(row, tuple([x.numerator * (den // x.denominator) for x in row]),
                ",".join(map(str, row))) for row in rows]
    return [()] + [[entries[i] for i in level] for level in at[1:]], den


def _table_act(rng: SplitMix64, states: int, table) -> tuple[Act, str]:
    """One row per state from `_segment_rows`, drawn as `unit_fraction` draws its
    position, with its cleared cache filled, and its digest text."""
    levels, den = table
    rows, ints, texts = zip(*[_draw(rng, levels) for _ in range(states)])
    return _cleared_act(rows, ints, den), ";".join(texts)


@dataclass(frozen=True)
class FuzzReport:
    axiom: str
    sampler: str
    trials: int
    premise_hits: int
    violations: tuple[tuple[Act, Act, AxiomVerdict], ...]
    digest: str


def _fmt_act(f: Act) -> str:
    return ";".join(",".join(map(str, row)) for row in f.rows)


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
    (acts plus verdict bits) and is reproducible from (seed, params).  A
    trial reads only the premise and conclusion bits, so it calls the
    checker with ``certify=False``; a violation calls it again in full, and
    the report keeps that verdict with its certificates.
    """
    _society(prof)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
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
    if sampler == "common-taste":
        cmin = check_c_minimal_agreement(prof)
        if cmin is None:
            raise PreconditionError(
                "common-taste sampler needs a commonly strictly ranked outcome pair"
            )
    check = AXIOM_CHECKS[axiom]
    rng = SplitMix64(seed)
    # Each drawn act comes with its digest text; the table is built once per run.
    if sampler == "general":
        draw = functools.partial(_general_act, rng, prof.states, prof.outcome_dim,
                                 _entry_table(FUZZ_BOX, FUZZ_DENOM_BOUND))
    else:
        draw = functools.partial(_table_act, rng, prof.states,
                                 _segment_rows(cmin, FUZZ_DENOM_BOUND))
    sha = hashlib.sha256()
    premise_hits = 0
    violations = []
    for idx in range(trials):
        if idx < len(planted):
            f, g = planted[idx]
            text_f, text_g = _fmt_act(f), _fmt_act(g)
        else:
            (f, text_f), (g, text_g) = draw(), draw()
        verdict = check(prof, f, g, certify=False)
        premise, conclusion = verdict.premise_holds, verdict.conclusion_holds
        if premise:
            premise_hits += 1
            if not conclusion:
                violations.append((f, g, check(prof, f, g)))
        sha.update(f"{idx}|{text_f}|{text_g}|{int(premise)}{int(conclusion)}\n".encode())
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
) -> CrossValidation:
    """Pit a condition checker against axiom-level evidence.

    Checker passes -> fuzzing the matching axiom must find no violation.
    Checker fails -> the matching witness construction, which re-checks its
    own margins, must violate the matching axiom.  Any mismatch is an
    INCONSISTENT verdict, i.e. a bug in one of the two routes.
    """
    if condition not in _CROSS_AXIOM:
        raise ValueError(f"cross-validation supports thm1/thm2, not {condition!r}")
    _society(prof)
    axiom, sampler = _CROSS_AXIOM[condition]
    report = CONDITION_CHECKS[condition](prof)

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

    cert = witness_for(prof, report)
    if not AXIOM_CHECKS[cert.axiom_tag](prof, cert.act_x, cert.act_f).violation:
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
