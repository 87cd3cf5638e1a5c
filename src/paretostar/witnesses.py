"""Constructive counterexamples: explicit act pairs certifying axiom violations.

Each builder turns a failed representation condition into a pair
(constant act x, act f) such that every agent declines to rank x weakly
above f while society strictly prefers x under all of its priors — an
explicit starred-axiom violation.  All tuning parameters ("small enough"
epsilon, nu; "large enough" scale b) are pinned deterministically to half of
their exact binding bound.  Each builder states its margins in closed form
and returns through `revalidate`, which re-derives every one of them by
direct evaluation in exact arithmetic, in every run mode (``python -O``
included); a mismatch or a margin that is not strictly positive raises
`InternalError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, PreconditionError
from .geometry import (
    Hyperplane,
    Vec,
    _separates,
    dot,
    membership,
    segment_point,
    vadd,
    vscale,
    vsub,
    zero_vec,
)
from .preferences import (
    Act,
    Profile,
    _society,
    check_c_diversity,
    check_c_minimal_agreement,
    constant_act,
    expected_utility,
    no_taste_disagreement,
    utility_profile,
)
from .characterizations import ConditionReport, Decomposition, verify_decomposition

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AgentMargin:
    agent: int
    prior: Vec
    margin: Fraction  # EU_agent(act_f; prior) - u_agent(act_x) > 0


@dataclass(frozen=True)
class WitnessCertificate:
    """An act pair plus the exact margins backing an axiom violation.

    Validity means: for every agent, EU(act_f) beats u(act_x) under the cited
    prior by the cited margin (so nobody weakly prefers act_x to act_f),
    while society's u(act_x) beats EU(act_f) under *every* social prior by at
    least `society_margin` (so society does weakly prefer act_x).
    """

    kind: str  # "ct-pareto-star" | "lemma1" | "spurious-unanimity"
    act_f: Act
    act_x: Act
    hyperplane: Hyperplane | None
    params: dict
    per_agent: tuple[AgentMargin, ...]
    society_margin: Fraction

    @property
    def axiom_tag(self) -> str:
        return "ct-pareto-star" if self.kind == "ct-pareto-star" else "pareto-star"


def _society_min_margin(prof: Profile, act_x: Act, act_f: Act) -> Fraction:
    soc = prof.society
    ux = utility_profile(soc.utility, act_x)
    uf = utility_profile(soc.utility, act_f)
    diff = vsub(ux, uf)
    return min(dot(w, diff) for w in soc.beliefs.vertices)


def revalidate(prof: Profile, cert: WitnessCertificate) -> bool:
    """Re-derive every inequality of the certificate from its stored objects."""
    for am in cert.per_agent:
        agent = prof.agents[am.agent]
        lhs = expected_utility(agent.utility, am.prior, cert.act_f)
        rhs = expected_utility(agent.utility, am.prior, cert.act_x)
        if lhs - rhs != am.margin or am.margin <= 0:
            return False
    if _society_min_margin(prof, cert.act_x, cert.act_f) != cert.society_margin:
        return False
    return cert.society_margin > 0


def _certified(prof: Profile, cert: WitnessCertificate) -> WitnessCertificate:
    """The certificate, once direct evaluation reproduces its closed-form margins."""
    if not revalidate(prof, cert):
        raise InternalError(f"{cert.kind} witness fails its own re-check")
    return cert


def _rescale_unit(h: Hyperplane) -> tuple[Vec, Fraction]:
    """Affinely rescale (normal, threshold) so all values land in [0, 1].

    For vectors on the probability simplex the separation inequalities are
    invariant under common affine rescaling of the hyperplane data.
    """
    vals = list(h.normal) + [h.threshold]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        raise InternalError("a constant separator cannot strictly separate simplex points")
    span = hi - lo
    lam = tuple((x - lo) / span for x in h.normal)
    kappa = (h.threshold - lo) / span
    return lam, kappa


# ---------------------------------------------------------------------------
# Common-taste witness from a failing vertex combo
# ---------------------------------------------------------------------------

def witness_ct_pareto_star(
    prof: Profile,
    combo: tuple[Vec, ...],
    h: Hyperplane,
    x_star: Vec,
    x_low: Vec,
) -> WitnessCertificate:
    """Common-taste violation from a vertex combo whose hull misses P0.

    Acts live on the segment between the commonly ranked outcomes: f tracks
    the rescaled separator statewise, x sits at its rescaled threshold.  Each
    agent's combo prior then makes f strictly better than x, while every
    social prior makes x strictly better.
    """
    soc = _society(prof)
    if len(combo) != prof.n:
        raise PreconditionError("combo must pick one prior per agent")
    for agent, p_i in zip(prof.agents, combo):
        if not membership(p_i, agent.beliefs):
            raise PreconditionError("combo prior missing from its agent's belief set")
    if not _separates(h, combo, soc.beliefs):
        raise PreconditionError("hyperplane does not strictly separate the combo from P0")

    gains = [dot(a.utility.coeffs, vsub(x_star, x_low)) for a in prof.agents]
    if any(g <= 0 for g in gains):
        raise PreconditionError("every agent must strictly prefer x_star to x_low")
    society_gain = dot(soc.utility.coeffs, vsub(x_star, x_low))
    if society_gain <= 0:
        raise PreconditionError(
            "society must strictly prefer x_star to x_low "
            "(holds whenever its taste decomposes over the agents)"
        )

    lam, kappa = _rescale_unit(h)
    act_f = Act(tuple(segment_point(ls, x_star, x_low) for ls in lam))
    act_x = constant_act(segment_point(kappa, x_star, x_low), prof.states)
    if not no_taste_disagreement(prof, act_f, act_x):
        raise InternalError("acts on one commonly ranked segment split the agents' tastes")

    per_agent = tuple(
        AgentMargin(i, p_i, gain * (dot(p_i, lam) - kappa))
        for i, (p_i, gain) in enumerate(zip(combo, gains))
    )
    society_margin = society_gain * (
        kappa - max(dot(w, lam) for w in soc.beliefs.vertices)
    )
    return _certified(
        prof,
        WitnessCertificate(
            "ct-pareto-star",
            act_f,
            act_x,
            Hyperplane(lam, kappa),
            {},
            per_agent,
            society_margin,
        ),
    )


# ---------------------------------------------------------------------------
# Single-agent belief escape (superset condition fails)
# ---------------------------------------------------------------------------

def _diversity_legs(prof: Profile) -> tuple[tuple[tuple[Vec, Vec], ...], list[Fraction]]:
    """Per-agent direction pairs (hi, lo) and each agent's gain u_i(hi - lo)."""
    pairs = check_c_diversity(prof)
    if pairs is None:
        raise PreconditionError("profile is not c-diverse; no per-agent direction pairs")
    gains = [dot(a.utility.coeffs, vsub(hi, lo)) for a, (hi, lo) in zip(prof.agents, pairs)]
    if any(g <= 0 for g in gains):
        raise InternalError("a c-diversity pair must strictly favor its agent's hi outcome")
    return pairs, gains


def _outcome(pairs, ts) -> Vec:
    """sum_j (lo_j + t_j (hi_j - lo_j)) / n: agent j's leg at position t_j."""
    weight = Fraction(1, len(pairs))
    out = zero_vec(len(pairs[0][0]))
    for (hi, lo), t in zip(pairs, ts):
        out = vadd(out, vscale(weight, segment_point(t, hi, lo)))
    return out


def _small(numerator: Fraction, slack_weight: Fraction) -> Fraction:
    """Half of the binding bound numerator / (2 slack_weight), at most 1/2."""
    if slack_weight == 0:
        return _HALF
    return min(_HALF, numerator / (2 * slack_weight) / 2)


def _bystanders(prof, act_f: Act, act_x: Act, others, gains, bonus) -> list[AgentMargin]:
    """Margins of agents whose own leg sits bonus above 1/2 in f, below in x.

    Each one's utility gain is the same in every state, so its first belief
    vertex certifies it; the statewise equality is checked here.
    """
    n = Fraction(prof.n)
    margins = []
    for j in others:
        margin = 2 * bonus * gains[j] / n
        uf = utility_profile(prof.agents[j].utility, act_f)
        ux = utility_profile(prof.agents[j].utility, act_x)
        if any(a - b != margin for a, b in zip(uf, ux)):
            raise InternalError(f"agent {j}'s taste bonus is not the same in every state")
        margins.append(AgentMargin(j, prof.agents[j].beliefs.vertices[0], margin))
    return margins


def witness_lemma1(
    prof: Profile,
    dec: Decomposition,
    i: int,
    p_i: Vec,
    h: Hyperplane,
) -> WitnessCertificate:
    """Violation built from a positively weighted agent's prior outside P0.

    `h` strictly separates p_i (above) from the social set (below), as the
    failed lemma-1 report's ``hyperplane`` does.  Agent i's leg of the acts
    tracks its rescaling; every other agent receives a fixed epsilon-sized
    taste bonus on f, small enough that society's weighted preference for x
    survives it.
    """
    soc = _society(prof)
    if not verify_decomposition(prof, dec):
        raise PreconditionError("decomposition does not reproduce the society's taste")
    if dec.alpha[i] <= 0:
        raise PreconditionError("agent must carry positive weight")
    if not membership(p_i, prof.agents[i].beliefs):
        raise PreconditionError("cited prior is not in the agent's belief set")
    if not _separates(h, [p_i], soc.beliefs):
        raise PreconditionError("hyperplane does not strictly separate the prior from P0")
    pairs, gains = _diversity_legs(prof)

    n = Fraction(prof.n)
    lam, kappa = _rescale_unit(h)
    min_gap = min(kappa - dot(w, lam) for w in soc.beliefs.vertices)
    if min_gap <= 0:
        raise InternalError("the separator must cut off every social prior")
    others = [j for j in range(prof.n) if j != i]
    slack_weight = sum((dec.alpha[j] * gains[j] for j in others), _ZERO)
    epsilon = _small(dec.alpha[i] * gains[i] * min_gap, slack_weight)

    def outcome(t_i: Fraction, t_other: Fraction) -> Vec:
        return _outcome(pairs, [t_i if j == i else t_other for j in range(prof.n)])

    act_f = Act(tuple(outcome(ls, _HALF + epsilon) for ls in lam))
    act_x = constant_act(outcome(kappa, _HALF - epsilon), prof.states)

    per_agent = [AgentMargin(i, p_i, (gains[i] / n) * (dot(p_i, lam) - kappa))]
    per_agent += _bystanders(prof, act_f, act_x, others, gains, epsilon)
    per_agent.sort(key=lambda am: am.agent)
    society_margin = dec.alpha[i] * (gains[i] / n) * min_gap - 2 * epsilon * slack_weight / n
    return _certified(
        prof,
        WitnessCertificate(
            "lemma1",
            act_f,
            act_x,
            Hyperplane(lam, kappa),
            {"epsilon": epsilon, "alpha": dec.alpha, "beta": dec.beta},
            tuple(per_agent),
            society_margin,
        ),
    )


# ---------------------------------------------------------------------------
# Two positively weighted agents with distinct priors
# ---------------------------------------------------------------------------

def witness_spurious_unanimity(
    prof: Profile,
    dec: Decomposition,
    i1: int,
    i2: int,
    p1: Vec,
    p2: Vec,
) -> WitnessCertificate:
    """Violation from two positively weighted agents relying on distinct priors.

    The two agents' utility increments along f are opposite-signed affine
    functions of the state (weighted so their society aggregate is a constant
    epsilon-sized loss), scaled by b to fit their taste legs; each agent's
    own prior makes its increment strictly positive.  Remaining agents get
    the nu-sized taste bonus, and society strictly prefers the constant act
    under every prior regardless of the social belief set.
    """
    _society(prof)
    if not verify_decomposition(prof, dec):
        raise PreconditionError("decomposition does not reproduce the society's taste")
    if i1 == i2:
        raise PreconditionError("need two distinct agents")
    if dec.alpha[i1] <= 0 or dec.alpha[i2] <= 0:
        raise PreconditionError("both agents must carry positive weight")
    if p1 == p2:
        raise PreconditionError("the two priors must differ")
    if not membership(p1, prof.agents[i1].beliefs) or not membership(
        p2, prof.agents[i2].beliefs
    ):
        raise PreconditionError("cited priors must belong to the agents' belief sets")
    pairs, gains = _diversity_legs(prof)
    a1, a2 = dec.alpha[i1], dec.alpha[i2]
    n = Fraction(prof.n)
    m = prof.states

    spread = sum((x - y) ** 2 for x, y in zip(p2, p1))
    if spread <= 0:
        raise InternalError("distinct priors must lie apart")
    epsilon = min(a1, a2) * spread / 4

    mid = vscale(_HALF, vadd(p1, p2))
    c1 = vscale(a2, vsub(p1, p2))
    c2 = vscale(a1, vsub(p2, p1))
    off1 = -dot(c1, mid) - epsilon
    off2 = -dot(c2, mid) - epsilon

    # phi_k(p) = c_k . p + off_k is agent k's increment under prior p.
    phi1_states = [c + off1 for c in c1]
    phi2_states = [c + off2 for c in c2]

    limits = [gains[i1] / (2 * n * abs(v)) for v in phi1_states if v != 0]
    limits += [gains[i2] / (2 * n * abs(v)) for v in phi2_states if v != 0]
    if not limits:
        raise InternalError("the two state increments cannot both vanish everywhere")
    b = min(limits) / 2

    others = [j for j in range(prof.n) if j not in (i1, i2)]
    slack_weight = sum((dec.alpha[j] * gains[j] for j in others), _ZERO)
    nu = _small(n * b * (a1 + a2) * epsilon, slack_weight)

    def outcome(t1: Fraction, t2: Fraction, t_other: Fraction) -> Vec:
        ts = [t1 if j == i1 else t2 if j == i2 else t_other for j in range(prof.n)]
        return _outcome(pairs, ts)

    act_x = constant_act(outcome(_HALF, _HALF, _HALF - nu), m)
    act_f = Act(
        tuple(
            outcome(
                _HALF + n * b * phi1_states[s] / gains[i1],
                _HALF + n * b * phi2_states[s] / gains[i2],
                _HALF + nu,
            )
            for s in range(m)
        )
    )
    base_x = act_x.rows[0]
    for j, phi_states in ((i1, phi1_states), (i2, phi2_states)):
        coeffs = prof.agents[j].utility.coeffs
        base = dot(coeffs, base_x)
        if any(dot(coeffs, row) - base != b * phi for row, phi in zip(act_f.rows, phi_states)):
            raise InternalError(f"agent {j}'s increments do not track its affine function")

    per_agent = [
        AgentMargin(i1, p1, b * (dot(c1, p1) + off1)),
        AgentMargin(i2, p2, b * (dot(c2, p2) + off2)),
    ]
    per_agent += _bystanders(prof, act_f, act_x, others, gains, nu)
    per_agent.sort(key=lambda am: am.agent)
    society_margin = b * (a1 + a2) * epsilon - 2 * nu * slack_weight / n
    return _certified(
        prof,
        WitnessCertificate(
            "spurious-unanimity",
            act_f,
            act_x,
            None,
            {
                "epsilon": epsilon,
                "b": b,
                "nu": nu,
                "alpha": dec.alpha,
                "beta": dec.beta,
            },
            tuple(per_agent),
            society_margin,
        ),
    )


# ---------------------------------------------------------------------------
# Dispatch: the construction that matches a failed condition report
# ---------------------------------------------------------------------------

def witness_for(prof: Profile, report: ConditionReport) -> WitnessCertificate:
    """Build the counterexample that a failed report's details call for.

    A failing vertex combo (``combo``) gives the common-taste witness, one
    weighted agent's prior outside the social set (``prior``) the lemma-1
    witness, and two weighted agents' distinct priors (``priors``) the
    spurious-unanimity witness.
    """
    det = report.details
    if "combo" in det:
        x_star, x_low = check_c_minimal_agreement(prof)
        return witness_ct_pareto_star(prof, det["combo"], det["hyperplane"], x_star, x_low)
    if "prior" in det:
        return witness_lemma1(
            prof, det["decomposition"], det["agent"], det["prior"], det["hyperplane"]
        )
    if "priors" in det:
        return witness_spurious_unanimity(
            prof, det["decomposition"], *det["agents"], *det["priors"]
        )
    raise PreconditionError("condition failed on the taste side; no combo witness applies")
