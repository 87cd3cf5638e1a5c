"""Premise/conclusion evaluation for the six unanimity axioms on act pairs.

Each checker reports the premise and the conclusion separately; a violation
is a true premise with a false conclusion.  Universally quantified prior
conditions are decided on belief vertices (the relevant expressions are
linear in the prior); existential strict conditions are decided by
margin-maximization LPs, so every "there is a prior such that ..." claim
comes back with the prior and its positive margin as a certificate.

Each checker is the one implementation of its premise and conclusion.
`harness.fuzz_axiom` calls it with ``certify=False`` on every trial, where
only the two bits are read: the checker then records no certificate, so no
certificate dict, no margin `Fraction`, no least margin and no exchange
prior is built (an exchange-pareto-star premise is still its margin LPs'
answer), a starred premise stops at the first agent or holder that decides
it, and the verdict's certificates are empty.  On a violation the fuzzer
calls the checker again in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

# lp_solve is not called here; it stays bound because perfbench/tracing.py
# wraps it in every module that binds it, and its smoke test checks this one.
from .geometry import Vec, lp_solve, max_margin  # noqa: F401
from .preferences import (
    Act,
    Agent,
    Profile,
    _least_margin,
    _on_acts,
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
    """Every agent's taste, then the society's, on the rows of f and g, in one
    `_on_acts` call per check; every premise and conclusion below reads these
    values."""
    return _on_acts([a.utility for a in (*prof.agents, _society(prof))], f, g)


def _certificate(witness) -> dict:
    """A `_strict_prior` witness as a certificate: its prior and its margin,
    the one `Fraction` built from it."""
    v, n, d = witness
    return {"prior": v, "margin": Fraction(n, d)}


def _unanimous_weak(prof: Profile, tastes) -> bool:
    """Every agent weakly prefers f to g."""
    return all(_strict_prior(a.beliefs.cleared, t) is None for a, t in zip(prof.agents, tastes))


def _society_conclusion_weak(prof: Profile, values, certs: dict | None) -> bool:
    """Conclusion 'f >=_0 g'. On failure stores the society's strict witness.

    Here and below, `certs` is None in a certificate-free check, and nothing
    is stored."""
    witness = _strict_prior(prof.society.beliefs.cleared, values)
    if witness is not None and certs is not None:
        certs["society_strict"] = _certificate(witness)
    return witness is None


def _society_conclusion_not_weak(prof: Profile, values, certs: dict | None) -> bool:
    """Conclusion 'not f >=_0 g'. Stores the strict witness or the weak margin."""
    vertices = prof.society.beliefs.cleared
    witness = _strict_prior(vertices, values)
    if certs is not None:
        if witness is not None:
            certs["society_strict"] = _certificate(witness)
        else:
            certs["society_weak_margin"] = _least_margin(vertices, values)
    return witness is not None


def _star_premise(prof: Profile, tastes, certs: dict | None) -> bool:
    """Every agent declines to rank f weakly above g, each with a certificate.

    Without certificates the first agent with no strict prior decides it."""
    if certs is None:
        return all(_strict_prior(a.beliefs.cleared, t) is not None
                   for a, t in zip(prof.agents, tastes))
    witnesses = [_strict_prior(a.beliefs.cleared, t) for a, t in zip(prof.agents, tastes)]
    certs["agents"] = {i: _certificate(w) for i, w in enumerate(witnesses) if w is not None}
    return None not in witnesses


def pareto_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """If every agent weakly prefers f to g, society must as well."""
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    premise = _unanimous_weak(prof, tastes)
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("pareto", premise, conclusion, certs or {})


def pareto_star_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """If no agent weakly prefers f to g, society must not either."""
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    premise = _star_premise(prof, tastes, certs)
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("pareto-star", premise, conclusion, certs or {})


def ct_pareto_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """Unanimous weak preference binds society only without taste disagreement."""
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    taste_ok = _tastes_agree(tastes)
    if certify:
        certs["taste_agreement"] = taste_ok
    premise = taste_ok and _unanimous_weak(prof, tastes)
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("ct-pareto", premise, conclusion, certs or {})


def ct_pareto_star_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """Unanimous withheld judgment binds society only without taste disagreement."""
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    taste_ok = _tastes_agree(tastes)
    if certify:
        certs["taste_agreement"] = taste_ok
    premise = _star_premise(prof, tastes, certs) if taste_ok else False
    if certify and not taste_ok:
        certs["agents"] = {}
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("ct-pareto-star", premise, conclusion, certs or {})


def exchange_pareto_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """Weak dominance must survive evaluating every taste under every belief set."""
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    premise = all(
        _strict_prior(holder.beliefs.cleared, t) is None for holder in prof.agents for t in tastes
    )
    conclusion = _society_conclusion_weak(prof, soc, certs)
    return AxiomVerdict("exchange-pareto", premise, conclusion, certs or {})


def _exchange_star_prior(holder: Agent, tastes, certify: bool = True) -> tuple[Vec, Fraction] | bool | None:
    """A prior in the holder's belief set that strictly favors g for every taste.

    `tastes` are the agents' `_on_acts` values on f and g.  Margin LP over the
    hull weights mu: maximize t subject to sum_k mu_k * (EU_k(g) - EU_k(f)) >= t
    for every taste and sum_k mu_k = 1, EU_k under the holder's k-th belief
    vertex; `max_margin` gets the integer gaps of `_vertex_gaps` over the
    lcm of their denominators.  A holder with one vertex has mu = (1,) as
    its only weight, so no LP is solved: every taste needs a strict prior at
    that vertex, and the least of their margins, the first on a tie, is the
    answer's.  Without `certify` a found prior comes back as True, and
    neither it nor its margin is built.
    """
    vertices = holder.beliefs.cleared
    nv = len(vertices)
    if nv == 1:
        least = None
        for t in tastes:
            (v, n, d), = _vertex_gaps(vertices, t)
            if n >= 0:
                return None
            if least is None or -n * least[1] < least[0] * d:
                least = -n, d
        return (v, Fraction(*least)) if certify else True
    gaps = [_vertex_gaps(vertices, t) for t in tastes]
    den = lcm(*(d for row in gaps for _, _, d in row))
    found = max_margin([[-n * (den // d) for _, n, d in row] for row in gaps], den)
    if found is None:
        return None
    if not certify:
        return True
    mu, margin = found
    verts = holder.beliefs.vertices
    prior = tuple(
        sum((mu[j] * verts[j][s] for j in range(nv)), _ZERO)
        for s in range(len(verts[0]))
    )
    return prior, margin


def exchange_pareto_star_check(prof: Profile, f: Act, g: Act, *, certify: bool = True) -> AxiomVerdict:
    """Society must withhold judgment when a belief exchange makes everyone do so.

    Premise: from every agent's belief set one can pick a prior under which
    every agent's utility strictly favors g over f.  Without certificates the
    first holder with no such prior decides it.
    """
    *tastes, soc = _evaluations(prof, f, g)
    certs = {} if certify else None
    if certify:
        found = [_exchange_star_prior(holder, tastes) for holder in prof.agents]
        certs["exchange"] = {
            j: {"prior": w[0], "margin": w[1]} for j, w in enumerate(found) if w is not None
        }
        premise = None not in found
    else:
        premise = all(_exchange_star_prior(holder, tastes, False) for holder in prof.agents)
    conclusion = _society_conclusion_not_weak(prof, soc, certs)
    return AxiomVerdict("exchange-pareto-star", premise, conclusion, certs or {})


AXIOM_CHECKS = {
    "pareto": pareto_check,
    "pareto-star": pareto_star_check,
    "ct-pareto": ct_pareto_check,
    "ct-pareto-star": ct_pareto_star_check,
    "exchange-pareto": exchange_pareto_check,
    "exchange-pareto-star": exchange_pareto_star_check,
}
