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

from .errors import MissingSocietyError
# lp_solve is not called here; it stays bound because perfbench/tracing.py
# wraps it in every module that binds it, and its smoke test checks this one.
from .geometry import Vec, dot, lp_solve, max_margin, vsub  # noqa: F401
from .preferences import (
    Act,
    Agent,
    Profile,
    bewley_geq,
    min_margin,
    no_taste_disagreement,
    strict_prior_against,
    utility_profile,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _society(prof: Profile) -> Agent:
    if prof.society is None:
        raise MissingSocietyError("profile has no society to check the axiom against")
    return prof.society


def _society_conclusion_weak(prof: Profile, f: Act, g: Act, certs: dict) -> bool:
    """Conclusion 'f >=_0 g'. On failure stores the society's strict witness."""
    soc = _society(prof)
    witness = strict_prior_against(soc, f, g)
    if witness is None:
        return True
    certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
    return False


def _society_conclusion_not_weak(prof: Profile, f: Act, g: Act, certs: dict) -> bool:
    """Conclusion 'not f >=_0 g'. Stores the strict witness or the weak margin."""
    soc = _society(prof)
    witness = strict_prior_against(soc, f, g)
    if witness is not None:
        certs["society_strict"] = {"prior": witness[0], "margin": witness[1]}
        return True
    certs["society_weak_margin"] = min_margin(soc, f, g)
    return False


def _star_premise(prof: Profile, f: Act, g: Act, certs: dict) -> bool:
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


def pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """If every agent weakly prefers f to g, society must as well."""
    _society(prof)
    certs: dict = {}
    premise = all(bewley_geq(a, f, g) for a in prof.agents)
    conclusion = _society_conclusion_weak(prof, f, g, certs)
    return AxiomVerdict("pareto", premise, conclusion, certs)


def pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """If no agent weakly prefers f to g, society must not either."""
    _society(prof)
    certs: dict = {}
    premise = _star_premise(prof, f, g, certs)
    conclusion = _society_conclusion_not_weak(prof, f, g, certs)
    return AxiomVerdict("pareto-star", premise, conclusion, certs)


def ct_pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Unanimous weak preference binds society only without taste disagreement."""
    _society(prof)
    certs: dict = {}
    taste_ok = no_taste_disagreement(prof, f, g)
    certs["taste_agreement"] = taste_ok
    premise = taste_ok and all(bewley_geq(a, f, g) for a in prof.agents)
    conclusion = _society_conclusion_weak(prof, f, g, certs)
    return AxiomVerdict("ct-pareto", premise, conclusion, certs)


def ct_pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
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


def exchange_pareto_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
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


def _exchange_star_prior(agent_diffs: list[Vec], holder: Agent) -> tuple[Vec, Fraction] | None:
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


def exchange_pareto_star_check(prof: Profile, f: Act, g: Act) -> AxiomVerdict:
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
