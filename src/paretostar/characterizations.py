"""Representation-level conditions on profiles and rule-based society builders.

The central reduction: conditions quantified over every choice of one prior
per agent are decided on vertex combos only.  If some choice's hull misses
the social belief set, a separating hyperplane exists, and replacing each
chosen prior by the vertex maximal in the hyperplane's direction preserves
the separation — so a failing choice exists iff a failing *vertex* combo
exists.

Single-prior existence needs fewer combos still: only those that label a
vertex of the Minkowski sum of the belief sets (Gritzmann & Sturmfels 1993;
Fukuda 2004).  One pass (`_minkowski_vertices`) sums every combo in
integers and keeps the vertices of the sum; the Minkowski society is built
from the same pass.  Theorem 2's precondition, a pair every agent strictly
ranks alike, is decided by Gordan's alternative: `convex_weights` of 0
over the agents' gradients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InternalError,
    PreconditionError,
)
# lp_solve is not called here; it stays bound because perfbench/tracing.py
# wraps it in every module that binds it, and its smoke test checks this one.
from .geometry import (  # noqa: F401
    Polytope,
    Vec,
    convex_weights,
    feasible_nonneg,
    intersect_polytopes,
    is_zero,
    lp_solve,
    remove_redundant,
    separate,
    simplex_standard,
    vadd,
    vscale,
    zero_vec,
)
from .preferences import (
    AffineUtility,
    Agent,
    Profile,
    _society,
    check_c_diversity,
)

_ZERO = Fraction(0)

# The most vertex combos any check enumerates; more raise CapExceededError.
DEFAULT_COMBO_CAP = 100_000


@dataclass(frozen=True)
class Decomposition:
    """Society's taste as a nonnegative, nonzero weighting of agent tastes.

    alpha solves the gradient equations exactly; beta absorbs the constants.
    """

    alpha: tuple[Fraction, ...]
    beta: Fraction

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.alpha) if a > 0)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    details: dict


def _weighted_taste(prof: Profile, alpha, beta) -> AffineUtility:
    """sum_i alpha_i u_i + beta."""
    coeffs = zero_vec(prof.outcome_dim)
    const = beta
    for a, agent in zip(alpha, prof.agents):
        coeffs = vadd(coeffs, vscale(a, agent.utility.coeffs))
        const += a * agent.utility.constant
    return AffineUtility(coeffs, const)


def verify_decomposition(prof: Profile, dec: Decomposition) -> bool:
    soc = _society(prof)
    if len(dec.alpha) != prof.n or any(a < 0 for a in dec.alpha):
        return False
    if all(a == 0 for a in dec.alpha):
        return False
    return _weighted_taste(prof, dec.alpha, dec.beta) == soc.utility


def utilitarian_decompose(prof: Profile) -> Decomposition | None:
    """Solve u0 = sum alpha_i u_i + beta with alpha >= 0, alpha != 0.

    Any nonnegative solution qualifies; the canonical one minimizes the
    total weight.
    """
    _society(prof)
    return _least_weight(prof, range(prof.n), normalized=False)


def _least_weight(prof: Profile, members, normalized: bool) -> Decomposition | None:
    """The least-total-weight decomposition with its support inside `members`.

    One LP: alpha_i >= 0 for i in `members` (every other weight 0) with
    sum alpha_i grad u_i = grad u0, minimizing sum alpha_i; `normalized` adds
    the row sum alpha_i = 1.  The gradients are read from
    `AffineUtility.cleared` and every row and rhs is scaled by L, the lcm of
    their denominators.  None when it is infeasible or its optimum is 0.
    """
    members = list(members)
    grads = [prof.agents[i].utility.cleared for i in members]
    grad0, den0 = prof.society.utility.cleared
    L = lcm(den0, *(den for _, den in grads))
    rows = [[ints[k] * (L // den) for ints, den in grads] for k in range(prof.outcome_dim)]
    rhs = [x * (L // den0) for x in grad0]
    if normalized:
        rows.append([L] * len(members))
        rhs.append(L)
    status, z, _ = simplex_standard(rows, rhs, [-1] * len(members))
    if status != "optimal" or all(x == 0 for x in z):
        return None
    return _decomposition(prof, members, z)


def _decomposition(prof: Profile, members, weights) -> Decomposition:
    """Weights on `members` (0 elsewhere), with beta absorbing the constants."""
    alpha = [_ZERO] * prof.n
    for i, a in zip(members, weights):
        alpha[i] = a
    beta = prof.society.utility.constant - sum(
        (a * ag.utility.constant for a, ag in zip(alpha, prof.agents)), _ZERO
    )
    return Decomposition(tuple(alpha), beta)


# ---------------------------------------------------------------------------
# Vertex combos
# ---------------------------------------------------------------------------

def combo_count(belief_sets: list[Polytope]) -> int:
    total = 1
    for P in belief_sets:
        total *= len(P.vertices)
    return total


def enumerate_combos(belief_sets: list[Polytope]):
    """All choices of one vertex per belief set, ascending-lexicographic order."""
    total = combo_count(belief_sets)
    if total > DEFAULT_COMBO_CAP:
        raise CapExceededError(f"{total} vertex combos exceed the cap {DEFAULT_COMBO_CAP}")
    return itertools.product(*(P.vertices for P in belief_sets))


def _minkowski_vertices(belief_sets: list[Polytope], weights):
    """The vertices of sum_i weights_i P_i, each with the combo it comes from.

    Every combo is drawn through `enumerate_combos` (so the cap applies) and
    its weighted sum taken in integers over one denominator `den`, from the
    cached `Polytope.cleared` forms, each vertex's integers looked up by
    position.  One `remove_redundant` pass over the distinct sums keeps the
    vertices.  Returns `den` and, in product order, (integer sum, first
    combo with that sum) per vertex of the sum.
    """
    den = lcm(*(g.denominator * d for g, P in zip(weights, belief_sets) for _, _, d in P.cleared))
    scaled = [
        [tuple(g.numerator * (den // (g.denominator * d)) * x for x in ints)
         for _, ints, d in P.cleared]
        for g, P in zip(weights, belief_sets)
    ]
    first: dict = {}
    for combo, parts in zip(enumerate_combos(belief_sets), itertools.product(*scaled)):
        first.setdefault(tuple(map(sum, zip(*parts))), combo)
    return den, [(s, first[s]) for s in remove_redundant(list(first))]


def combo_meets(combo: tuple[Vec, ...], P0: Polytope) -> tuple[Vec, ...] | None:
    """(gamma, hull weights of the meeting point in P0) when the hulls meet.

    Feasibility of: gamma in the unit simplex over agents, mu in the unit
    simplex over P0's vertices, sum gamma_i combo_i = sum mu_j w_j.  The
    rows are built as integers over one L, the lcm of the denominators of
    P0's vertices (from the cached `Polytope.cleared`) and of the combo's
    entries; every row, the two unit-sum rows and the rhs included, is
    scaled by L, which is the tableau the `Fraction` rows would give, so
    Bland's rule takes the same pivots.  A combo point whose length differs
    from P0's dimension raises DimensionMismatchError.
    """
    m = P0.ambient_dim
    if any(len(c) != m for c in combo):
        raise DimensionMismatchError(
            f"combo points of lengths {sorted({len(c) for c in combo})} against "
            f"a belief set of dimension {m}"
        )
    n = len(combo)
    cleared = P0.cleared
    L = lcm(*(d for _, _, d in cleared), *(x.denominator for c in combo for x in c))
    rows = []
    for s in range(m):
        rows.append([c[s].numerator * (L // c[s].denominator) for c in combo]
                    + [-ints[s] * (L // d) for _, ints, d in cleared])
    rows.append([L] * n + [0] * len(cleared))
    rows.append([0] * n + [L] * len(cleared))
    z = feasible_nonneg(rows, [0] * m + [L, L])
    if z is None:
        return None
    return tuple(z[:n]), tuple(z[n:])


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def _hull_weights(points, P: Polytope) -> tuple[dict, Vec | None]:
    """Hull weights in P of each point up to the first one outside P.

    Returns (point -> weights over P's vertices, first point outside P or
    None when every point lies in P).  `convex_weights` reads P's vertices
    from its cached integers.
    """
    weights = {}
    for p in points:
        w = convex_weights(p, P)
        if w is None:
            return weights, p
        weights[p] = tuple(w)
    return weights, None


def check_eq1_dght1(prof: Profile) -> ConditionReport:
    """Some decomposition puts all its weight on agents whose belief sets
    contain the social one.

    Decided in two steps.  First the containing agents S = {i : P0 inside
    P_i}, from each agent's hull weights of P0's vertices.  Then one LP over
    the columns in S: the least-total-weight alpha >= 0 with
    sum alpha_i grad u_i = grad u0, plus the row sum alpha_i = 1 when the
    social gradient is zero (so alpha != 0).  Any such alpha's support is a
    set of containing agents that decomposes the society's taste with
    strictly positive weights, and every such set gives one; so the LP is
    feasible exactly when some support does, and no LP runs when S is empty.

    A pass carries that canonical decomposition, its support and the hull
    weights of P0's vertices in each supported agent's set; a failure
    carries S ("containing") and, for every other agent, the first vertex
    of P0 outside its set ("outside").
    """
    soc = _society(prof)
    memberships, outside = {}, {}
    for i, agent in enumerate(prof.agents):
        weights, missing = _hull_weights(soc.beliefs.vertices, agent.beliefs)
        if missing is None:
            memberships[i] = weights
        else:
            outside[i] = missing
    containing = tuple(memberships)
    dec = None
    if containing:
        dec = _least_weight(prof, containing, normalized=is_zero(soc.utility.coeffs))
    if dec is None:
        return ConditionReport("eq1", False, {"containing": containing, "outside": outside})
    support = dec.support
    return ConditionReport(
        "eq1",
        True,
        {
            "support": support,
            "decomposition": dec,
            "memberships": {
                (i, w): mu for i in support for w, mu in memberships[i].items()
            },
        },
    )


def check_thm1_condition(prof: Profile) -> ConditionReport:
    """Taste weights exist and either the supported agents share one single
    prior lying in the social set, or one agent is a taste dictator whose
    whole belief set the social set contains."""
    _society(prof)
    if check_c_diversity(prof) is None:
        raise PreconditionError("profile is not c-diverse; the condition is undefined")
    # Independent gradients admit at most one alpha, so the LP's is the one.
    dec = utilitarian_decompose(prof)
    if dec is None:
        return ConditionReport("thm1", False, {"reason": "no-decomposition"})
    support = dec.support
    details: dict = {"decomposition": dec, "support": support}

    # Every weighted belief set inside the social one (Lemma 1) is what both
    # clauses need; a prior outside it is the first failure class.
    inclusion = check_lemma1_superset(prof, dec)
    if not inclusion.holds:
        details.update(inclusion.details, failure="belief-outside-society")
        return ConditionReport("thm1", False, details)
    memberships = inclusion.details["memberships"]
    first = prof.agents[support[0]].beliefs
    if len(support) == 1 and not first.is_singleton():
        details["clause"] = "taste-dictator"
        details["dictator"] = support[0]
        details["memberships"] = {v: mu for (_, v), mu in memberships.items()}
        return ConditionReport("thm1", True, details)
    pair = distinct_prior_pair(prof, dec)
    if not pair.holds:
        details.update(pair.details)
        return ConditionReport("thm1", False, details)
    # No two weighted agents hold distinct priors: one shared single prior.
    if not all(prof.agents[i].beliefs.is_singleton() for i in support):
        raise InternalError("thm1 failure must fall in one of the two classes")
    details["clause"] = "common-single-prior"
    details["shared_prior"] = first.vertices[0]
    details["membership"] = memberships[support[0], first.vertices[0]]
    return ConditionReport("thm1", True, details)


def distinct_priors(P1: Polytope, P2: Polytope) -> tuple[Vec, Vec] | None:
    """First pair of distinct vertices, one from each polytope."""
    for v1 in P1.vertices:
        for v2 in P2.vertices:
            if v1 != v2:
                return v1, v2
    return None


def distinct_prior_pair(prof: Profile, dec: Decomposition) -> ConditionReport:
    """Holds when no two positively weighted agents hold distinct priors.

    On failure the details carry the first such agents i1 < i2, in
    combination order over the support, and their priors
    (`distinct_priors`).
    """
    for i1, i2 in itertools.combinations(dec.support, 2):
        pair = distinct_priors(prof.agents[i1].beliefs, prof.agents[i2].beliefs)
        if pair is not None:
            return ConditionReport(
                "spurious-unanimity",
                False,
                {
                    "decomposition": dec,
                    "failure": "two-positive-weights",
                    "agents": (i1, i2),
                    "priors": pair,
                },
            )
    return ConditionReport("spurious-unanimity", True, {"decomposition": dec})


def check_lemma1_superset(prof: Profile, dec: Decomposition) -> ConditionReport:
    """Every belief vertex of every positively weighted agent lies in P0.

    A vertex two agents share is decided once: the hull weights found for
    an earlier agent are reused, and each agent's LPs run only on its
    vertices not yet decided.  Every decided vertex lies in P0, so the
    first of an agent's vertices outside P0 is the first of its new ones.
    """
    soc = _society(prof)
    memberships = {}
    decided: dict = {}
    for i in dec.support:
        vertices = prof.agents[i].beliefs.vertices
        weights, outside = _hull_weights([v for v in vertices if v not in decided], soc.beliefs)
        decided.update(weights)
        if outside is not None:
            return ConditionReport(
                "lemma1",
                False,
                {
                    "agent": i,
                    "prior": outside,
                    "hyperplane": separate([outside], soc.beliefs),
                    "decomposition": dec,
                },
            )
        memberships.update(((i, v), decided[v]) for v in vertices)
    return ConditionReport(
        "lemma1", True, {"memberships": memberships, "decomposition": dec}
    )


def check_eq4_dght2(prof: Profile) -> ConditionReport:
    """A decomposition exists and P0 sits inside the hull of all agent beliefs."""
    soc = _society(prof)
    dec = utilitarian_decompose(prof)
    if dec is None:
        return ConditionReport("eq4", False, {"reason": "no-decomposition"})
    pooled = [v for a in prof.agents for v in a.beliefs.vertices]
    pooled_poly = Polytope.from_generators(pooled)
    memberships, outside = _hull_weights(soc.beliefs.vertices, pooled_poly)
    if outside is not None:
        return ConditionReport(
            "eq4",
            False,
            {
                "vertex": outside,
                "hyperplane": separate([outside], pooled_poly),
                "decomposition": dec,
            },
        )
    return ConditionReport(
        "eq4",
        True,
        {"decomposition": dec, "memberships": memberships, "hull_vertices": pooled_poly.vertices},
    )


def check_thm2_condition(prof: Profile) -> ConditionReport:
    """A decomposition exists and every vertex combo's hull meets P0.

    On failure the report carries the first failing combo (ascending
    enumeration) together with a strictly separating hyperplane.  The
    condition needs a pair every agent strictly ranks alike; by Gordan's
    alternative one exists iff 0 is outside the gradients' hull, else
    PreconditionError.
    """
    soc = _society(prof)
    gradients = [a.utility.coeffs for a in prof.agents]
    if convex_weights(zero_vec(prof.outcome_dim), gradients) is not None:
        raise PreconditionError(
            "profile lacks a commonly strictly ranked outcome pair; the condition is undefined"
        )
    dec = utilitarian_decompose(prof)
    if dec is None:
        return ConditionReport("thm2", False, {"reason": "no-decomposition"})
    combo_certs = []
    for combo in enumerate_combos([a.beliefs for a in prof.agents]):
        met = combo_meets(combo, soc.beliefs)
        if met is None:
            h = separate(list(combo), soc.beliefs)
            if h is None:
                raise InternalError("disjoint hulls admit a separating hyperplane")
            return ConditionReport(
                "thm2",
                False,
                {"combo": combo, "hyperplane": h, "decomposition": dec},
            )
        combo_certs.append({"combo": combo, "gamma": met[0], "society_weights": met[1]})
    return ConditionReport(
        "thm2", True, {"decomposition": dec, "combos": combo_certs}
    )


def check_corollary2(prof: Profile) -> ConditionReport:
    """(a) the exact intersection of agent beliefs sits inside P0;
    (b) when all agents share one belief set, P0 equals it."""
    soc = _society(prof)
    inter = intersect_polytopes([a.beliefs for a in prof.agents])
    details: dict = {}
    if inter is None:
        a_holds = True
        details["intersection"] = None
    else:
        details["intersection"] = inter.vertices
        _, bad = _hull_weights(inter.vertices, soc.beliefs)
        a_holds = bad is None
        if not a_holds:
            details["missing_vertex"] = bad
            details["hyperplane"] = separate([bad], soc.beliefs)
    details["a"] = a_holds

    # Vertex tuples are canonical, so == decides set equality.
    first = prof.agents[0].beliefs
    b_holds = None
    if all(a.beliefs == first for a in prof.agents[1:]):
        b_holds = soc.beliefs == first
        details["common_beliefs"] = first.vertices
    details["b"] = b_holds
    holds = a_holds and b_holds is not False
    return ConditionReport("corollary2", holds, details)


def check_seu_existence(belief_sets: list[Polytope]) -> Vec | None:
    """A single prior lying in the hull of every vertex combo, or None.

    Only the combos that label a vertex of the Minkowski sum sum_i P_i
    constrain the prior.  If p misses conv(c) for a combo c, some lam has
    lam . p > max_i lam . c_i >= max_i min over P_i of lam; perturbed to be
    generic, lam is minimized on each P_i at one vertex c'_i, and the combo
    c' labels the vertex of the sum that minimizes lam, with
    lam . p > max_i lam . c'_i.  A vertex of a Minkowski sum splits into
    exactly one vertex per summand, so each vertex names one combo.

    One joint feasibility LP over those combos, in product order
    (`_minkowski_vertices` with unit weights): the candidate prior p plus
    one simplex weight vector per combo, tied together by
    p = sum_i gamma^c_i combo^c_i.  Every row is scaled by L, the lcm of
    the belief sets' vertex denominators (their cached `Polytope.cleared`
    forms), the -1 of p's column and the unit-sum rows included.
    """
    if len(belief_sets) < 2:
        raise ValueError("need at least two belief sets")
    m = belief_sets[0].ambient_dim
    if any(P.ambient_dim != m for P in belief_sets):
        raise DimensionMismatchError("belief sets live on different state spaces")
    n = len(belief_sets)
    _, vertices = _minkowski_vertices(belief_sets, [1] * n)
    L = lcm(*(d for P in belief_sets for _, _, d in P.cleared))
    scaled = [{v: [x * (L // d) for x in ints] for v, ints, d in P.cleared} for P in belief_sets]
    nvars = m + n * len(vertices)
    rows = []
    rhs = []
    for c_idx, (_, combo) in enumerate(vertices):
        off = m + n * c_idx
        columns = [scaled[i][v] for i, v in enumerate(combo)]
        for s in range(m):
            row = [0] * nvars
            row[s] = -L
            for i in range(n):
                row[off + i] = columns[i][s]
            rows.append(row)
            rhs.append(0)
        row = [0] * nvars
        for i in range(n):
            row[off + i] = L
        rows.append(row)
        rhs.append(L)
    z = feasible_nonneg(rows, rhs)
    if z is None:
        return None
    return tuple(z[:m])


def _delegated(condition: str, inner: ConditionReport) -> ConditionReport:
    return ConditionReport(
        condition, inner.holds, {**inner.details, "delegated_to": inner.condition}
    )


def check_prop1(prof: Profile) -> ConditionReport:
    """Same representation condition as the hull upper bound; delegated."""
    return _delegated("prop1", check_eq4_dght2(prof))


def check_prop2(prof: Profile) -> ConditionReport:
    """Same representation condition as the combo lower bound; delegated."""
    return _delegated("prop2", check_thm2_condition(prof))


def required_decomposition(prof: Profile) -> Decomposition:
    """The canonical taste decomposition; a precondition of the reports that read it."""
    dec = utilitarian_decompose(prof)
    if dec is None:
        raise PreconditionError("no nonnegative taste decomposition exists")
    return dec


# Condition tag -> profile -> ConditionReport, read by the CLI and by
# `harness.cross_validate`.  Each entry looks its checker up when called, so
# rebinding a module name (as a tracer does) reaches every caller.
CONDITION_CHECKS = {
    "thm1": lambda prof: check_thm1_condition(prof),
    "thm2": lambda prof: check_thm2_condition(prof),
    "eq1": lambda prof: check_eq1_dght1(prof),
    "eq4": lambda prof: check_eq4_dght2(prof),
    "lemma1": lambda prof: check_lemma1_superset(prof, required_decomposition(prof)),
    "corollary2": lambda prof: check_corollary2(prof),
    "prop1": lambda prof: check_prop1(prof),
    "prop2": lambda prof: check_prop2(prof),
}


# ---------------------------------------------------------------------------
# Society construction rules
# ---------------------------------------------------------------------------

def aggregate_society(
    prof: Profile,
    alpha,
    beta,
    rule: str,
    gamma=None,
    vertices=None,
) -> Agent:
    """Build a society agent: utilitarian taste plus a rule-based belief set.

    * ``minkowski``: the gamma-weighted Minkowski average of the agent sets:
      the vertices `_minkowski_vertices` keeps, sorted into the canonical
      vertex tuple with no second redundancy pass.
    * ``hull-union``: the hull of all agents' vertices pooled.
    * ``given``: caller-supplied belief vertices.
    """
    alpha = tuple(Fraction(a) for a in alpha)
    if len(alpha) != prof.n or any(a < 0 for a in alpha) or all(a == 0 for a in alpha):
        raise ValueError("alpha must be nonnegative, nonzero, one weight per agent")
    u0 = _weighted_taste(prof, alpha, Fraction(beta))

    if rule == "minkowski":
        if gamma is None:
            raise ValueError("minkowski rule needs gamma")
        gamma = tuple(Fraction(g) for g in gamma)
        if len(gamma) != prof.n or any(g < 0 for g in gamma) or sum(gamma) != 1:
            raise ValueError("gamma must be a weight vector over the agents")
        den, vertices = _minkowski_vertices([a.beliefs for a in prof.agents], gamma)
        beliefs = Polytope(tuple(
            tuple(Fraction(x, den) for x in s) for s in sorted(s for s, _ in vertices)
        ))
    elif rule == "hull-union":
        beliefs = Polytope.from_generators(
            [v for a in prof.agents for v in a.beliefs.vertices]
        )
    elif rule == "given":
        if vertices is None:
            raise ValueError("given rule needs vertices")
        beliefs = Polytope.from_generators(vertices)
    else:
        raise ValueError(f"unknown society rule {rule!r}")
    return Agent(u0, beliefs, name="society")
