"""Premise/conclusion evaluation for the six unanimity axioms on act pairs.

Each checker reports the premise and the conclusion separately; a violation
is a true premise with a false conclusion.  Universally quantified prior
conditions are decided on belief vertices (the relevant expressions are
linear in the prior); existential strict conditions are decided by
margin-maximization LPs, so every "there is a prior such that ..." claim
comes back with the prior and its positive margin as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

# lp_solve is not called here; it stays bound because perfbench/tracing.py
# wraps it in every module that binds it, and its smoke test checks this one.
from .geometry import Vec, lp_solve, max_margin  # noqa: F401
from .preferences import (
    Act,
    Agent,
    Profile,
    _least_margin,
    _on_pair,
    _society,
    _strict_prior,
    _tastes_agree,
    _vertex_gaps,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom on one ordered act pair (f, g).

    `certificates` carries the priors and strictly positive margins backing
    every strict claim made by the verdict, keyed by role:

    * ``"agents"``: per-agent prior showing the agent does *not* weakly
      prefer f to g (the starred premises).
    * ``"exchange"``: per belief-set prior making every agent's utility
      strictly favor g (the exchange-star premise).
    * ``"society_strict"``: prior showing society does not weakly prefer
      f to g.
    * ``"society_weak_margin"``: the minimum of EU(f) - EU(g) over society's
      belief vertices when society does weakly prefer f to g.
    """

    axiom: str
    premise_holds: bool
    conclusion_holds: bool
    certificates: dict = field(default_factory=dict)

    @property
    def violation(self) -> bool:
        return self.premise_holds and not self.conclusion_holds


def _evaluations(prof: Profile, f: Act, g: Act) -> list[tuple[list[int], int]]:
    """Every agent's taste, then the society's, on the rows of f and g, once per
    check; every premise and conclusion below reads these values."""
    return [_on_pair(a.utility, f, g) for a in (*prof.agents, _society(prof))]


def _unanimous_weak(prof: Profile, tastes) -> bool:
    """Every agent weakly prefers f to g."""
    return all(_strict_prior(a.beliefs.cleared, t) is None for a, t in zip(prof.agents, tastes))


def _society_conclusion_weak(prof: Profile, values, certs: dict) -> bool:
    """Conclusion 'f >=_0 g'. On failure stores the society's strict witness."""
    witness = _strict_prior(prof.society.beliefs.cleared, values)
    if witness is None:
        return True
    certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
    return False


def _society_conclusion_not_weak(prof: Profile, values, certs: dict) -> bool:
    """Conclusion 'not f >=_0 g'. Stores the strict witness or the weak margin."""
    vertices = prof.society.beliefs.cleared
    witness = _strict_prior(vertices, values)
    if witness is not None:
        certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
        return True
    certs["society_weak_margin"] = _least_margin(vertices, values)
    return False


def _star_premise(prof: Profile, tastes, certs: dict) -> bool:
    """Every agent declines to rank f weakly above g, each with a certificate."""
    agent_certs = {}
    ok = True
    for i, (a, values) in enumerate(zip(prof.agents, tastes)):
        witness = _strict_prior(a.beliefs.cleared, values)
        if witness is None:
            ok = False
        else:
            agent_certs[i] = {"prior": witness[0], "margin": witness[1]}
    certs["agents"] = agent_certs
    return ok


def pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """If every agent weakly prefers f to g, society must as well."""
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    premise = _unanimous_weak(prof, tastes)
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("pareto", premise, conclusion, certs)


def pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """If no agent weakly prefers f to g, society must not either."""
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    premise = _star_premise(prof, tastes, certs)
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("pareto-star", premise, conclusion, certs)


def ct_pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Unanimous weak preference binds society only without taste disagreement."""
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    taste_ok = _tastes_agree(tastes)
    certs["taste_agreement"] = taste_ok
    premise = taste_ok and _unanimous_weak(prof, tastes)
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("ct-pareto", premise, conclusion, certs)


def ct_pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Unanimous withheld judgment binds society only without taste disagreement."""
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    taste_ok = _tastes_agree(tastes)
    certs["taste_agreement"] = taste_ok
    premise = _star_premise(prof, tastes, certs) if taste_ok else False
    if not taste_ok:
        certs["agents"] = {}
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("ct-pareto-star", premise, conclusion, certs)


def _exchange_gaps(prof: Profile, tastes) -> list[list[tuple[int, int]]]:
    """Per taste, EU(f) - EU(g) as (n, d) under every agent's belief vertices.

    Columns run holder by holder, each holder's vertices in canonical order.
    """
    vertices = [c for holder in prof.agents for c in holder.beliefs.cleared]
    return [[(n, d) for _, n, d in _vertex_gaps(vertices, t)] for t in tastes]


def exchange_pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Weak dominance must survive evaluating every taste under every belief set."""
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    premise = all(n >= 0 for row in _exchange_gaps(prof, tastes) for n, _ in row)
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("exchange-pareto", premise, conclusion, certs)


def _exchange_star_prior(
    values: list[list[Fraction]], holder: Agent
) -> tuple[Vec, Fraction] | None:
    """A prior in the holder's belief set that strictly favors g for every taste.

    values[i][k] is taste i's EU(g) - EU(f) under the holder's k-th belief
    vertex.  Margin LP over the hull weights mu: maximize t subject to
    sum_k mu_k * values[i][k] >= t for every taste i and sum_k mu_k = 1.
    A holder with one vertex has mu = (1,) as its only weight, so no LP is
    solved: the margin is min_i values[i][0], the prior is the vertex, and
    the answer is None when that minimum is not positive.
    """
    verts = holder.beliefs.vertices
    nv = len(verts)
    if nv == 1:
        margin = min(row[0] for row in values)
        return (verts[0], margin) if margin > 0 else None
    found = max_margin(values, [[1] * nv], [1])
    if found is None:
        return None
    mu, margin = found
    prior = tuple(
        sum((mu[j] * verts[j][s] for j in range(nv)), _ZERO)
        for s in range(len(verts[0]))
    )
    return prior, margin


def exchange_pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Society must withhold judgment when a belief exchange makes everyone do so.

    Premise: from every agent's belief set one can pick a prior under which
    every agent's utility strictly favors g over f.
    """
    *tastes, soc = _evaluations(prof, f, g)
    certs: dict = {}
    table = [[Fraction(-n, d) for n, d in row] for row in _exchange_gaps(prof, tastes)]
    exchange_certs = {}
    premise = True
    start = 0
    for j, holder in enumerate(prof.agents):
        stop = start + len(holder.beliefs.vertices)
        found = _exchange_star_prior([row[start:stop] for row in table], holder)
        start = stop
        if found is None:
            premise = False
        else:
            exchange_certs[j] = {"prior": found[0], "margin": found[1]}
    certs["exchange"] = exchange_certs
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("exchange-pareto-star", premise, conclusion, certs)


AXIOM_CHECKS = {
    "pareto": pareto_check,
    "pareto-star": pareto_star_check,
    "ct-pareto": ct_pareto_check,
    "ct-pareto-star": ct_pareto_star_check,
    "exchange-pareto": exchange_pareto_check,
    "exchange-pareto-star": exchange_pareto_star_check,
}
