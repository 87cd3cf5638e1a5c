"""Constructive counterexamples: explicit act pairs certifying axiom violations.

Each builder turns a failed representation condition into a pair
(constant act x, act f) such that every agent declines to rank x weakly
above f while society strictly prefers x under all of its priors — an
explicit starred-axiom violation.  All tuning parameters ("small enough"
epsilon, nu; "large enough" scale b) are pinned deterministically to half of
their exact binding bound, and every strict inequality is re-evaluated in
exact arithmetic before the certificate is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .geometry import (
    Hyperplane,
    Polytope,
    Vec,
    delta,
    dot,
    membership,
    separate,
    vadd,
    vscale,
    vsub,
    zero_vec,
)
from .preferences import (
    Act,
    Profile,
    check_c_diversity,
    check_c_minimal_agreement,
    constant_act,
    expected_utility,
    no_taste_disagreement,
    utility_profile,
)
from .characterizations import ConditionReport, Decomposition, verify_decomposition

_ZERO = Fraction(0)
_ONE = Fraction(1)
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


def _check_separation(h: Hyperplane, above: list[Vec], P0: Polytope) -> None:
    for p in above:
        if h.value(p) <= h.threshold:
            raise PreconditionError("hyperplane does not strictly separate the priors")
    for w in P0.vertices:
        if h.value(w) >= h.threshold:
            raise PreconditionError("hyperplane does not strictly cut off the society set")


def _rescale_unit(h: Hyperplane) -> tuple[Vec, Fraction]:
    """Affinely rescale (normal, threshold) so all values land in [0, 1].

    For vectors on the probability simplex the separation inequalities are
    invariant under common affine rescaling of the hyperplane data.
    """
    vals = list(h.normal) + [h.threshold]
    lo, hi = min(vals), max(vals)
    assert hi > lo, "a constant separator cannot strictly separate simplex points"
    span = hi - lo
    lam = tuple((x - lo) / span for x in h.normal)
    kappa = (h.threshold - lo) / span
    return lam, kappa


def _segment_point(t: Fraction, high: Vec, low: Vec) -> Vec:
    return vadd(low, vscale(t, vsub(high, low)))


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
    if prof.society is None:
        raise PreconditionError("profile has no society")
    if len(combo) != prof.n:
        raise PreconditionError("combo must pick one prior per agent")
    for agent, p_i in zip(prof.agents, combo):
        if not membership(p_i, agent.beliefs):
            raise PreconditionError("combo prior missing from its agent's belief set")
    _check_separation(h, list(combo), prof.society.beliefs)

    gains = [dot(a.utility.coeffs, vsub(x_star, x_low)) for a in prof.agents]
    if any(g <= 0 for g in gains):
        raise PreconditionError("every agent must strictly prefer x_star to x_low")
    society_gain = dot(prof.society.utility.coeffs, vsub(x_star, x_low))
    if society_gain <= 0:
        raise PreconditionError(
            "society must strictly prefer x_star to x_low "
            "(holds whenever its taste decomposes over the agents)"
        )

    lam, kappa = _rescale_unit(h)
    act_f = Act(tuple(_segment_point(ls, x_star, x_low) for ls in lam))
    act_x = constant_act(_segment_point(kappa, x_star, x_low), prof.states)

    per_agent = []
    for i, (agent, p_i, gain) in enumerate(zip(prof.agents, combo, gains)):
        margin = gain * (dot(p_i, lam) - kappa)
        direct = expected_utility(agent.utility, p_i, act_f) - expected_utility(
            agent.utility, p_i, act_x
        )
        assert direct == margin and margin > 0
        per_agent.append(AgentMargin(i, p_i, margin))
    society_margin = _society_min_margin(prof, act_x, act_f)
    assert society_margin == society_gain * (
        kappa - max(dot(w, lam) for w in prof.society.beliefs.vertices)
    )
    assert society_margin > 0
    assert no_taste_disagreement(prof, act_f, act_x)
    return WitnessCertificate(
        "ct-pareto-star",
        act_f,
        act_x,
        Hyperplane(lam, kappa),
        {},
        tuple(per_agent),
        society_margin,
    )


# ---------------------------------------------------------------------------
# Single-agent belief escape (superset condition fails)
# ---------------------------------------------------------------------------

def _diversity_pairs(prof: Profile):
    pairs = check_c_diversity(prof)
    if pairs is None:
        raise PreconditionError("profile is not c-diverse; no per-agent direction pairs")
    return pairs


def witness_lemma1(
    prof: Profile,
    dec: Decomposition,
    i: int,
    p_i: Vec,
    epsilon: Fraction | None = None,
) -> WitnessCertificate:
    """Violation built from a positively weighted agent's prior outside P0.

    Agent i's leg of the acts tracks the rescaled separator between p_i and
    the social set; every other agent receives a fixed epsilon-sized taste
    bonus on f, small enough that society's weighted preference for x
    survives it.
    """
    if prof.society is None:
        raise PreconditionError("profile has no society")
    if not verify_decomposition(prof, dec):
        raise PreconditionError("decomposition does not reproduce the society's taste")
    if dec.alpha[i] <= 0:
        raise PreconditionError("agent must carry positive weight")
    if not membership(p_i, prof.agents[i].beliefs):
        raise PreconditionError("cited prior is not in the agent's belief set")
    h = separate([p_i], prof.society.beliefs)
    if h is None:
        raise PreconditionError("prior lies in the social belief set; nothing to witness")
    pairs = _diversity_pairs(prof)
    gains = [
        dot(a.utility.coeffs, vsub(hi, lo))
        for a, (hi, lo) in zip(prof.agents, pairs)
    ]
    assert all(g > 0 for g in gains)

    n = Fraction(prof.n)
    lam, kappa = _rescale_unit(h)
    min_gap = min(kappa - dot(w, lam) for w in prof.society.beliefs.vertices)
    assert min_gap > 0
    slack_weight = sum(
        (dec.alpha[j] * gains[j] for j in range(prof.n) if j != i), _ZERO
    )
    if epsilon is None:
        if slack_weight == 0:
            epsilon = _HALF
        else:
            bound = dec.alpha[i] * gains[i] * min_gap / (2 * slack_weight)
            epsilon = min(_HALF, bound / 2)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def leg(j: int, t: Fraction) -> Vec:
        hi, lo = pairs[j]
        return vscale(_ONE / n, _segment_point(t, hi, lo))

    def build_row(t_i: Fraction, others_high: bool) -> Vec:
        row = leg(i, t_i)
        t_other = _HALF + epsilon if others_high else _HALF - epsilon
        for j in range(prof.n):
            if j != i:
                row = vadd(row, leg(j, t_other))
        return row

    act_f = Act(tuple(build_row(ls, others_high=True) for ls in lam))
    act_x = constant_act(build_row(kappa, others_high=False), prof.states)

    per_agent = []
    margin_i = (gains[i] / n) * (dot(p_i, lam) - kappa)
    direct = expected_utility(prof.agents[i].utility, p_i, act_f) - expected_utility(
        prof.agents[i].utility, p_i, act_x
    )
    assert direct == margin_i and margin_i > 0
    per_agent.append(AgentMargin(i, p_i, margin_i))
    for j in range(prof.n):
        if j == i:
            continue
        margin_j = 2 * epsilon * gains[j] / n
        uf = utility_profile(prof.agents[j].utility, act_f)
        ux = utility_profile(prof.agents[j].utility, act_x)
        assert all(a - b == margin_j for a, b in zip(uf, ux)) and margin_j > 0
        per_agent.append(AgentMargin(j, prof.agents[j].beliefs.vertices[0], margin_j))
    per_agent.sort(key=lambda am: am.agent)

    society_margin = _society_min_margin(prof, act_x, act_f)
    expected_margin = dec.alpha[i] * (gains[i] / n) * min_gap - 2 * epsilon * slack_weight / n
    assert society_margin == expected_margin
    assert society_margin > 0
    return WitnessCertificate(
        "lemma1",
        act_f,
        act_x,
        Hyperplane(lam, kappa),
        {"epsilon": epsilon, "alpha": dec.alpha, "beta": dec.beta},
        tuple(per_agent),
        society_margin,
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
    epsilon: Fraction | None = None,
    b: Fraction | None = None,
    nu: Fraction | None = None,
) -> WitnessCertificate:
    """Violation from two positively weighted agents relying on distinct priors.

    The two agents' utility increments along f are opposite-signed affine
    functions of the state (weighted so their society aggregate is a constant
    epsilon-sized loss), scaled by b to fit their taste legs; each agent's
    own prior makes its increment strictly positive.  Remaining agents get
    the nu-sized taste bonus, and society strictly prefers the constant act
    under every prior regardless of the social belief set.
    """
    if prof.society is None:
        raise PreconditionError("profile has no society")
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
    pairs = _diversity_pairs(prof)
    gains = [
        dot(a.utility.coeffs, vsub(hi, lo))
        for a, (hi, lo) in zip(prof.agents, pairs)
    ]
    a1, a2 = dec.alpha[i1], dec.alpha[i2]
    n = Fraction(prof.n)
    m = prof.states

    spread = sum((x - y) ** 2 for x, y in zip(p2, p1))
    assert spread > 0
    if epsilon is None:
        epsilon = min(a1, a2) * spread / 4
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    mid = vscale(_HALF, vadd(p1, p2))
    c1 = vscale(a2, vsub(p1, p2))
    c2 = vscale(a1, vsub(p2, p1))
    off1 = -dot(c1, mid) - epsilon
    off2 = -dot(c2, mid) - epsilon

    def phi1(p: Vec) -> Fraction:
        return dot(c1, p) + off1

    def phi2(p: Vec) -> Fraction:
        return dot(c2, p) + off2

    phi1_states = [phi1(delta(s, m)) for s in range(m)]
    phi2_states = [phi2(delta(s, m)) for s in range(m)]

    if b is None:
        limits = []
        for val in phi1_states:
            if val != 0:
                limits.append(gains[i1] / (2 * n * abs(val)))
        for val in phi2_states:
            if val != 0:
                limits.append(gains[i2] / (2 * n * abs(val)))
        assert limits, "the two state increments cannot both vanish everywhere"
        b = min(limits) / 2
    if b <= 0:
        raise ValueError("b must be positive")

    others = [j for j in range(prof.n) if j not in (i1, i2)]
    slack_weight = sum((dec.alpha[j] * gains[j] for j in others), _ZERO)
    if nu is None:
        if slack_weight == 0:
            nu = _HALF
        else:
            bound = n * b * (a1 + a2) * epsilon / (2 * slack_weight)
            nu = min(_HALF, bound / 2)
    if nu <= 0:
        raise ValueError("nu must be positive")

    def pair_leg(j: int, t: Fraction) -> Vec:
        hi, lo = pairs[j]
        return vscale(_ONE / n, _segment_point(t, hi, lo))

    base_x = zero_vec(prof.outcome_dim)
    for j in (i1, i2):
        base_x = vadd(base_x, pair_leg(j, _HALF))
    for j in others:
        base_x = vadd(base_x, pair_leg(j, _HALF - nu))
    act_x = constant_act(base_x, m)

    rows = []
    for s in range(m):
        t1 = _HALF + n * b * phi1_states[s] / gains[i1]
        t2 = _HALF + n * b * phi2_states[s] / gains[i2]
        row = vadd(pair_leg(i1, t1), pair_leg(i2, t2))
        for j in others:
            row = vadd(row, pair_leg(j, _HALF + nu))
        rows.append(row)
    act_f = Act(tuple(rows))

    u1 = prof.agents[i1].utility
    u2 = prof.agents[i2].utility
    for s in range(m):
        assert dot(u1.coeffs, act_f.rows[s]) - dot(u1.coeffs, base_x) == b * phi1_states[s]
        assert dot(u2.coeffs, act_f.rows[s]) - dot(u2.coeffs, base_x) == b * phi2_states[s]

    per_agent = []
    margin1 = b * phi1(p1)
    assert margin1 == expected_utility(u1, p1, act_f) - expected_utility(u1, p1, act_x)
    assert margin1 > 0, "epsilon must stay below its spread bound"
    per_agent.append(AgentMargin(i1, p1, margin1))
    margin2 = b * phi2(p2)
    assert margin2 == expected_utility(u2, p2, act_f) - expected_utility(u2, p2, act_x)
    assert margin2 > 0
    per_agent.append(AgentMargin(i2, p2, margin2))
    for j in others:
        margin_j = 2 * nu * gains[j] / n
        uf = utility_profile(prof.agents[j].utility, act_f)
        ux = utility_profile(prof.agents[j].utility, act_x)
        assert all(a - x == margin_j for a, x in zip(uf, ux)) and margin_j > 0
        per_agent.append(AgentMargin(j, prof.agents[j].beliefs.vertices[0], margin_j))
    per_agent.sort(key=lambda am: am.agent)

    society_margin = _society_min_margin(prof, act_x, act_f)
    expected_margin = b * (a1 + a2) * epsilon - 2 * nu * slack_weight / n
    assert society_margin == expected_margin
    assert society_margin > 0
    return WitnessCertificate(
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
    )


# ---------------------------------------------------------------------------
# Dispatch: the construction that matches a failed condition report
# ---------------------------------------------------------------------------

def witness_for(
    prof: Profile, report: ConditionReport, builder=None
) -> WitnessCertificate:
    """Build the counterexample that a failed report's details call for.

    A failing vertex combo (``combo``) gives the common-taste witness, one
    weighted agent's prior outside the social set (``prior``) the lemma-1
    witness, and two weighted agents' distinct priors (``priors``) the
    spurious-unanimity witness.  `builder` replaces the chosen construction
    and takes the same arguments.
    """
    det = report.details
    if "combo" in det:
        x_star, x_low = check_c_minimal_agreement(prof)
        build = builder or witness_ct_pareto_star
        return build(prof, det["combo"], det["hyperplane"], x_star, x_low)
    if "prior" in det:
        build = builder or witness_lemma1
        return build(prof, det["decomposition"], det["agent"], det["prior"])
    if "priors" in det:
        build = builder or witness_spurious_unanimity
        return build(prof, det["decomposition"], *det["agents"], *det["priors"])
    raise PreconditionError("condition failed on the taste side; no combo witness applies")
