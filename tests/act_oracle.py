"""Reference act evaluation kept as the oracle for `tests/test_act_kernel.py`.

These are `geometry.dot` and the act-evaluation functions of
`paretostar.preferences` as they were written in `Fraction` arithmetic,
before `dot` moved to one integer numerator over a running common
denominator and Bewley dominance and taste agreement moved to an integer
kernel.  They are kept verbatim; the fast path must return the same bool,
the same vertex and an equal `Fraction` margin on every input.

`exchange_pareto_check`, `_exchange_star_prior` and
`exchange_pareto_star_check` are the exchange axioms of
`paretostar.axioms` as they evaluated every taste through
`utility_profile` in `Fraction`s, before they moved to the integer kernel.
They are kept verbatim; the fast path must return an equal `AxiomVerdict`.

`pareto_check`, `pareto_star_check`, `ct_pareto_check`,
`ct_pareto_star_check` and their helpers `_society_conclusion_weak`,
`_society_conclusion_not_weak` and `_star_premise` are those of
`paretostar.axioms` as they called one `preferences` function per quantity,
evaluating each taste on the acts once per call of it, before every check
evaluated each taste once.  Their bodies are kept verbatim (the type
annotations are dropped), bound here to the `Fraction` functions above
(`min_margin` is the least `dot(v, diff)` over the belief vertices, as it
was computed before the integer kernel), so all six verdicts have an
oracle that shares no act evaluation with the package.
`segment_point` is `paretostar.geometry.segment_point` as it was written
with three `Fraction` operations per entry.  `rref` is the `Fraction`
elimination kept in `lp_oracle.py`.

`segment_act` is the common-taste sampler as it drew each row's position
with `unit_fraction` and built the row with `segment_point`, before it drew
its rows from a table built once per fuzz run (`harness._table_act` over
`harness._segment_rows`); it is bound to the `segment_point` above.
`_sample_general` is the general sampler as it drew every entry with
`signed_fraction`, before it drew its entries from a table built once per
fuzz run (`harness._general_act` over `harness._entry_table`); it is kept
verbatim.  Both table routes must draw equal acts and leave the generator in
the same state.  The table routes
also hand each act over with its `cleared` cache filled over a table-wide
denominator and with its digest text; neither has an oracle here, so they
are checked against a fresh `Act` on the same rows and `harness._fmt_act`.

`segment_rows` and `entry_table` are the sampler tables as they were
before each distinct position was built once and shared across levels:
every (k, d) got its own entry.  They are kept verbatim (renamed without
the leading underscore), with `segment_point` bound to the package's, so
the tables must be equal.

`fuzz_axiom` is the fuzz loop as it called the package's full checker on
every trial and kept each violation's verdict as it came back, before a
trial asked the checker for its two bits alone and re-ran it in full only
on a violation.  It draws its acts through `fuzz_pairs`, with `segment_act`
and `_sample_general` above, and formats them with `harness._fmt_act`, so
it shares no sampler table and no certificate-free route with the package;
`harness.fuzz_axiom` must return an equal report.
"""

import hashlib
from fractions import Fraction
from math import lcm

from lp_oracle import rref
from paretostar import axioms, geometry
from paretostar.axioms import AxiomVerdict, _society
from paretostar.errors import DimensionMismatchError
from paretostar.geometry import Vec, is_zero, max_margin, vec_parts, vsub
from paretostar.harness import FUZZ_BOX, FUZZ_DENOM_BOUND, FuzzReport, SplitMix64, _fmt_act
from paretostar.preferences import Act, Profile, check_c_minimal_agreement

_ZERO = Fraction(0)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def utility_profile(u, f) -> Vec:
    """The state-indexed vector (u(f(1)), ..., u(f(m)))."""
    return tuple(dot(u.coeffs, row) + u.constant for row in f.rows)


def bewley_geq(a, f, g) -> bool:
    """f weakly dominates g for the agent: EU(f) >= EU(g) under every prior.

    The difference is linear in the prior, so the belief vertices decide it.
    """
    uf = utility_profile(a.utility, f)
    ug = utility_profile(a.utility, g)
    diff = vsub(uf, ug)
    return all(dot(v, diff) >= 0 for v in a.beliefs.vertices)


def strict_prior_against(a, f, g) -> tuple[Vec, Fraction] | None:
    """A belief vertex under which g strictly beats f, with its margin.

    Existence is exactly the failure of ``bewley_geq(a, f, g)``; the first
    such vertex in canonical order is returned.
    """
    uf = utility_profile(a.utility, f)
    ug = utility_profile(a.utility, g)
    diff = vsub(ug, uf)
    for v in a.beliefs.vertices:
        margin = dot(v, diff)
        if margin > 0:
            return v, margin
    return None


def min_margin(a, f, g) -> Fraction:
    """The least EU(f) - EU(g) over the agent's belief vertices."""
    diff = vsub(utility_profile(a.utility, f), utility_profile(a.utility, g))
    return min(dot(v, diff) for v in a.beliefs.vertices)


def segment_point(t: Fraction, high: Vec, low: Vec) -> Vec:
    """low + t (high - low), entrywise; high and low have the same length."""
    return tuple(lo + t * (hi - lo) for hi, lo in zip(high, low))


def segment_act(rng, prof, pair, denom_bound: int) -> Act:
    x_star, x_low = pair
    return Act(tuple(
        segment_point(rng.unit_fraction(denom_bound), x_star, x_low)
        for _ in range(prof.states)
    ))


def _sample_general(rng: SplitMix64, prof: Profile, box: int, denom_bound: int) -> Act:
    rows = []
    for _ in range(prof.states):
        rows.append(
            tuple(rng.signed_fraction(box, denom_bound) for _ in range(prof.outcome_dim))
        )
    return Act(tuple(rows))


def _span_basis(points: list[Vec]) -> list[Vec]:
    """RREF basis of span{p - points[0]}."""
    if len(points) < 2:
        return []
    base = points[0]
    diffs = [list(vsub(p, base)) for p in points[1:]]
    rows, _ = rref(diffs)
    return [tuple(r) for r in rows]


def no_taste_disagreement(prof, f, g) -> bool:
    """All agents rank the outcomes spanned by the two acts identically.

    Restrict every agent's utility gradient to the span of outcome
    differences; the rankings agree iff the restrictions are all zero or all
    positive multiples of one common nonzero functional.
    """
    if f.outcome_dim != prof.outcome_dim or g.outcome_dim != prof.outcome_dim:
        raise DimensionMismatchError("acts live in a different outcome space")
    basis = _span_basis(list(f.rows) + list(g.rows))
    if not basis:
        return True
    restricted = [
        tuple(dot(a.utility.coeffs, b) for b in basis) for a in prof.agents
    ]
    nonzero = [r for r in restricted if not is_zero(r)]
    if not nonzero:
        return True
    if len(nonzero) < len(restricted):
        return False
    ref = nonzero[0]
    k = next(i for i, x in enumerate(ref) if x != 0)
    for r in nonzero[1:]:
        ratio = r[k] / ref[k]
        if ratio <= 0 or r != tuple(ratio * x for x in ref):
            return False
    return True


def _society_conclusion_weak(prof, f, g, certs: dict) -> bool:
    """Conclusion 'f >=_0 g'. On failure stores the society's strict witness."""
    soc = _society(prof)
    witness = strict_prior_against(soc, f, g)
    if witness is None:
        return True
    certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
    return False


def _society_conclusion_not_weak(prof, f, g, certs: dict) -> bool:
    """Conclusion 'not f >=_0 g'. Stores the strict witness or the weak margin."""
    soc = _society(prof)
    witness = strict_prior_against(soc, f, g)
    if witness is not None:
        certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
        return True
    certs["society_weak_margin"] = min_margin(soc, f, g)
    return False


def _star_premise(prof, f, g, certs: dict) -> bool:
    """Every agent declines to rank f weakly above g, each with a certificate."""
    agent_certs = {}
    ok = True
    for i, a in enumerate(prof.agents):
        witness = strict_prior_against(a, f, g)
        if witness is None:
            ok = False
        else:
            agent_certs[i] = {"prior": witness[0], "margin": witness[1]}
    certs["agents"] = agent_certs
    return ok


def pareto_check(prof, f, g) -> AxiomVerdict:
    """If every agent weakly prefers f to g, society must as well."""
    _society(prof)
    certs: dict = {}
    premise = all(bewley_geq(a, f, g) for a in prof.agents)
    conclusion = _society_conclusion_weak(prof, f, g, certs)
    return AxiomVerdict("pareto", premise, conclusion, certs)


def pareto_star_check(prof, f, g) -> AxiomVerdict:
    """If no agent weakly prefers f to g, society must not either."""
    _society(prof)
    certs: dict = {}
    premise = _star_premise(prof, f, g, certs)
    conclusion = _society_conclusion_not_weak(prof, f, g, certs)
    return AxiomVerdict("pareto-star", premise, conclusion, certs)


def ct_pareto_check(prof, f, g) -> AxiomVerdict:
    """Unanimous weak preference binds society only without taste disagreement."""
    _society(prof)
    certs: dict = {}
    taste_ok = no_taste_disagreement(prof, f, g)
    certs["taste_agreement"] = taste_ok
    premise = taste_ok and all(bewley_geq(a, f, g) for a in prof.agents)
    conclusion = _society_conclusion_weak(prof, f, g, certs)
    return AxiomVerdict("ct-pareto", premise, conclusion, certs)


def ct_pareto_star_check(prof, f, g) -> AxiomVerdict:
    """Unanimous withheld judgment binds society only without taste disagreement."""
    _society(prof)
    certs: dict = {}
    taste_ok = no_taste_disagreement(prof, f, g)
    certs["taste_agreement"] = taste_ok
    premise = _star_premise(prof, f, g, certs) if taste_ok else False
    if not taste_ok:
        certs["agents"] = {}
    conclusion = _society_conclusion_not_weak(prof, f, g, certs)
    return AxiomVerdict("ct-pareto-star", premise, conclusion, certs)


def exchange_pareto_check(prof, f, g) -> AxiomVerdict:
    """Weak dominance must survive evaluating every taste under every belief set."""
    _society(prof)
    certs: dict = {}
    diffs = [
        vsub(utility_profile(a.utility, f), utility_profile(a.utility, g))
        for a in prof.agents
    ]
    premise = all(
        dot(v, diff) >= 0
        for holder in prof.agents
        for v in holder.beliefs.vertices
        for diff in diffs
    )
    conclusion = _society_conclusion_weak(prof, f, g, certs)
    return AxiomVerdict("exchange-pareto", premise, conclusion, certs)


def _exchange_star_prior(agent_diffs: list[Vec], holder) -> tuple[Vec, Fraction] | None:
    """A prior in the holder's belief set that strictly favors g for every taste.

    Margin LP over the hull weights mu: maximize t subject to
    sum_v mu_v * diff_i(v) >= t for every taste i and sum_v mu_v = 1.
    """
    verts = holder.beliefs.vertices
    nv = len(verts)
    # max_margin takes integer rows over one denominator.
    ints, den = vec_parts([dot(v, diff) for diff in agent_diffs for v in verts])
    found = max_margin([ints[i:i + nv] for i in range(0, len(ints), nv)], den)
    if found is None:
        return None
    mu, margin = found
    prior = tuple(
        sum((mu[j] * verts[j][s] for j in range(nv)), _ZERO)
        for s in range(len(verts[0]))
    )
    return prior, margin


def exchange_pareto_star_check(prof, f, g) -> AxiomVerdict:
    """Society must withhold judgment when a belief exchange makes everyone do so.

    Premise: from every agent's belief set one can pick a prior under which
    every agent's utility strictly favors g over f.
    """
    _society(prof)
    certs: dict = {}
    agent_diffs = [
        vsub(utility_profile(a.utility, g), utility_profile(a.utility, f))
        for a in prof.agents
    ]
    exchange_certs = {}
    premise = True
    for j, holder in enumerate(prof.agents):
        found = _exchange_star_prior(agent_diffs, holder)
        if found is None:
            premise = False
        else:
            exchange_certs[j] = {"prior": found[0], "margin": found[1]}
    certs["exchange"] = exchange_certs
    conclusion = _society_conclusion_not_weak(prof, f, g, certs)
    return AxiomVerdict("exchange-pareto-star", premise, conclusion, certs)


AXIOM_CHECKS = {
    "pareto": pareto_check,
    "pareto-star": pareto_star_check,
    "ct-pareto": ct_pareto_check,
    "ct-pareto-star": ct_pareto_star_check,
    "exchange-pareto": exchange_pareto_check,
    "exchange-pareto-star": exchange_pareto_star_check,
}


def entry_table(box: int, denom_bound: int):
    """Every entry the general sampler can draw, built once per fuzz run.

    `(levels, den)` with `levels[d][k + box*d] = (x, x * den, str(x))` for
    `x = Fraction(k, d)`, 1 <= d <= denom_bound, |k| <= box*d, and
    `den = lcm(1..denom_bound)`.
    """
    den = lcm(*range(1, denom_bound + 1))
    levels = [()]
    for d in range(1, denom_bound + 1):
        level = []
        for k in range(-box * d, box * d + 1):
            x = Fraction(k, d)
            level.append((x, k * (den // d), str(x)))
        levels.append(level)
    return levels, den


def segment_rows(pair, denom_bound: int):
    """Every row the common-taste sampler can draw, built once per fuzz run.

    `(levels, den)` with `levels[d][k] = (row, ints, text)` for
    `row = segment_point(k/d, *pair)`, 1 <= d <= denom_bound, 0 <= k <= d:
    `ints` is the row over `den`, the least common denominator of the whole
    table, and `text` is `",".join(map(str, row))`.
    """
    rows = [[geometry.segment_point(Fraction(k, d), *pair) for k in range(d + 1)]
            for d in range(1, denom_bound + 1)]
    den = lcm(*[x.denominator for level in rows for row in level for x in row])
    return [()] + [
        [(row, tuple([x.numerator * (den // x.denominator) for x in row]),
          ",".join(map(str, row))) for row in level]
        for level in rows
    ], den


def fuzz_pairs(prof, sampler, trials, seed, planted=()):
    """The trial stream of a fuzz run: the planted pairs, then sampled pairs."""
    rng = SplitMix64(seed)
    pair = check_c_minimal_agreement(prof) if sampler == "common-taste" else None
    for idx in range(trials):
        if idx < len(planted):
            yield planted[idx]
        elif pair is None:
            yield (_sample_general(rng, prof, FUZZ_BOX, FUZZ_DENOM_BOUND),
                   _sample_general(rng, prof, FUZZ_BOX, FUZZ_DENOM_BOUND))
        else:
            yield (segment_act(rng, prof, pair, FUZZ_DENOM_BOUND),
                   segment_act(rng, prof, pair, FUZZ_DENOM_BOUND))


def fuzz_axiom(prof, axiom, trials, sampler="general", seed=0, planted=()) -> FuzzReport:
    """The full checker on every trial; a violation keeps the verdict it returned."""
    check = axioms.AXIOM_CHECKS[axiom]
    sha = hashlib.sha256()
    premise_hits = 0
    violations = []
    for idx, (f, g) in enumerate(fuzz_pairs(prof, sampler, trials, seed, planted)):
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
