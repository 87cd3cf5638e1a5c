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
They are kept verbatim (the society's conclusion still comes from
`axioms`); the fast path must return an equal `AxiomVerdict`.
"""

from fractions import Fraction

from paretostar.axioms import (
    AxiomVerdict,
    _society,
    _society_conclusion_not_weak,
    _society_conclusion_weak,
)
from paretostar.errors import DimensionMismatchError
from paretostar.geometry import Vec, is_zero, max_margin, rref, vsub

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    found = max_margin(
        [[dot(v, diff) for v in verts] for diff in agent_diffs], [[_ONE] * nv], [_ONE]
    )
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
