"""Representation-level conditions on profiles and rule-based society builders.

The central reduction: conditions quantified over every choice of one prior
per agent are decided on vertex combos only.  If some choice's hull misses
the social belief set, a separating hyperplane exists, and replacing each
chosen prior by the vertex maximal in the hyperplane's direction preserves
the separation — so a failing choice exists iff a failing *vertex* combo
exists.  The same argument powers the joint feasibility reduction for the
single-prior-society existence check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InternalError,
    MissingSocietyError,
    PreconditionError,
)
# lp_solve is not called here; it stays bound because perfbench/tracing.py
# wraps it in every module that binds it, and its smoke test checks this one.
from .geometry import (  # noqa: F401
    DEFAULT_DIM_CAP,
    Polytope,
    Vec,
    convex_weights,
    delta,
    feasible_nonneg,
    intersect_polytopes,
    lp_solve,
    max_margin,
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
    check_c_diversity,
    check_c_minimal_agreement,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


def _society(prof: Profile) -> Agent:
    if prof.society is None:
        raise MissingSocietyError("profile has no society")
    return prof.society


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


def utilitarian_decompose(
    prof: Profile, support_constraint: tuple[int, ...] | None = None
) -> Decomposition | None:
    """Solve u0 = sum alpha_i u_i + beta with alpha >= 0, alpha != 0.

    Without a support constraint any nonnegative solution qualifies and the
    canonical one minimizes the total weight.  With a constraint, weights
    outside it are pinned to zero and weights inside must be strictly
    positive, decided by maximizing their common lower bound.
    """
    soc = _society(prof)
    d = prof.outcome_dim
    n = prof.n
    if support_constraint is None:
        rows = [[a.utility.coeffs[k] for a in prof.agents] for k in range(d)]
        rhs = [soc.utility.coeffs[k] for k in range(d)]
        status, z, _ = simplex_standard(rows, rhs, [-_ONE] * n)
        if status != "optimal" or all(x == 0 for x in z):
            return None
        alpha = tuple(z)
    else:
        members = sorted(support_constraint)
        if not members:
            return None
        # Columns alpha_i (i in members), then w = 1: maximize t with
        # alpha_i >= t and w >= t, so t is capped at 1.
        nm = len(members)
        eqs = [
            [prof.agents[i].utility.coeffs[k] for i in members] + [_ZERO]
            for k in range(d)
        ]
        found = max_margin(
            [delta(j, nm + 1) for j in range(nm + 1)],
            eqs + [delta(nm, nm + 1)],
            [*soc.utility.coeffs, _ONE],
        )
        if found is None:
            return None
        alpha_list = [_ZERO] * n
        for j, i in enumerate(members):
            alpha_list[i] = found[0][j]
        alpha = tuple(alpha_list)
    beta = soc.utility.constant - sum(
        (a * ag.utility.constant for a, ag in zip(alpha, prof.agents)), _ZERO
    )
    return Decomposition(alpha, beta)


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


# ---------------------------------------------------------------------------
# Vertex combos
# ---------------------------------------------------------------------------

def combo_count(belief_sets: list[Polytope]) -> int:
    total = 1
    for P in belief_sets:
        total *= len(P.vertices)
    return total


def enumerate_combos(belief_sets: list[Polytope], combo_cap: int = DEFAULT_COMBO_CAP):
    """All choices of one vertex per belief set, ascending-lexicographic order."""
    total = combo_count(belief_sets)
    if total > combo_cap:
        raise CapExceededError(f"{total} vertex combos exceed the cap {combo_cap}")
    return itertools.product(*(P.vertices for P in belief_sets))


def combo_meets(combo: tuple[Vec, ...], P0: Polytope) -> tuple[Vec, ...] | None:
    """(gamma, hull weights of the meeting point in P0) when the hulls meet.

    Feasibility of: gamma in the unit simplex over agents, mu in the unit
    simplex over P0's vertices, sum gamma_i combo_i = sum mu_j w_j.
    """
    m = len(combo[0])
    n = len(combo)
    w = P0.vertices
    rows = []
    for s in range(m):
        rows.append([c[s] for c in combo] + [-v[s] for v in w])
    rows.append([_ONE] * n + [_ZERO] * len(w))
    rows.append([_ZERO] * n + [_ONE] * len(w))
    z = feasible_nonneg(rows, [_ZERO] * m + [_ONE, _ONE])
    if z is None:
        return None
    return tuple(z[:n]), tuple(z[n:])


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def _hull_weights(points, P: Polytope) -> tuple[dict, Vec | None]:
    """Hull weights in P of each point up to the first one outside P.

    Returns (point -> weights over P's vertices, first point outside P or
    None when every point lies in P).
    """
    vertices = list(P.vertices)
    weights = {}
    for p in points:
        w = convex_weights(p, vertices)
        if w is None:
            return weights, p
        weights[p] = tuple(w)
    return weights, None


def check_eq1_dght1(prof: Profile) -> ConditionReport:
    """Some decomposition puts its support inside agents whose belief sets all
    contain the social one (vertex memberships, enumerated over supports)."""
    soc = _society(prof)
    tried = []
    for M in _subsets(prof.n):
        dec = utilitarian_decompose(prof, M)
        if dec is None:
            continue
        memberships = {}
        ok = True
        for i in M:
            weights, outside = _hull_weights(soc.beliefs.vertices, prof.agents[i].beliefs)
            if outside is not None:
                ok = False
                break
            memberships.update(((i, w), mu) for w, mu in weights.items())
        if ok:
            return ConditionReport(
                "eq1",
                True,
                {"support": M, "decomposition": dec, "memberships": memberships},
            )
        tried.append(M)
    return ConditionReport("eq1", False, {"feasible_supports": tried})


def check_thm1_condition(prof: Profile) -> ConditionReport:
    """Taste weights exist and either the supported agents share one single
    prior lying in the social set, or one agent is a taste dictator whose
    whole belief set the social set contains."""
    soc = _society(prof)
    if check_c_diversity(prof) is None:
        raise PreconditionError("profile is not c-diverse; the condition is undefined")
    # Independent gradients admit at most one alpha, so the LP's is the one.
    dec = utilitarian_decompose(prof)
    if dec is None:
        return ConditionReport("thm1", False, {"reason": "no-decomposition"})
    support = dec.support
    details: dict = {"decomposition": dec, "support": support}

    singles = [prof.agents[i].beliefs for i in support]
    if all(P.is_singleton() for P in singles):
        common = singles[0].vertices[0]
        if all(P.vertices[0] == common for P in singles):
            weights, outside = _hull_weights([common], soc.beliefs)
            if outside is None:
                details["clause"] = "common-single-prior"
                details["shared_prior"] = common
                details["membership"] = weights[common]
                return ConditionReport("thm1", True, details)

    # Every weighted belief set inside the social one (Lemma 1) is what a
    # taste dictator needs; a prior outside it is the first failure class.
    inclusion = check_lemma1_superset(prof, dec)
    if not inclusion.holds:
        details.update(inclusion.details, failure="belief-outside-society")
        return ConditionReport("thm1", False, details)
    if len(support) == 1:
        details["clause"] = "taste-dictator"
        details["dictator"] = support[0]
        memberships = inclusion.details["memberships"]
        details["memberships"] = {v: mu for (_, v), mu in memberships.items()}
        return ConditionReport("thm1", True, details)
    pair = distinct_prior_pair(prof, dec)
    if pair.holds:
        raise InternalError("thm1 failure must fall in one of the two classes")
    details.update(pair.details)
    return ConditionReport("thm1", False, details)


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
    """Every belief vertex of every positively weighted agent lies in P0."""
    soc = _society(prof)
    memberships = {}
    for i in dec.support:
        weights, outside = _hull_weights(prof.agents[i].beliefs.vertices, soc.beliefs)
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
        memberships.update(((i, v), mu) for v, mu in weights.items())
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


def check_thm2_condition(
    prof: Profile, combo_cap: int = DEFAULT_COMBO_CAP
) -> ConditionReport:
    """A decomposition exists and every vertex combo's hull meets P0.

    On failure the report carries the first failing combo (ascending
    enumeration) together with a strictly separating hyperplane.
    """
    soc = _society(prof)
    if check_c_minimal_agreement(prof) is None:
        raise PreconditionError(
            "profile lacks a commonly strictly ranked outcome pair; the condition is undefined"
        )
    dec = utilitarian_decompose(prof)
    if dec is None:
        return ConditionReport("thm2", False, {"reason": "no-decomposition"})
    combo_certs = []
    for combo in enumerate_combos([a.beliefs for a in prof.agents], combo_cap):
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


def check_corollary2(prof: Profile, dim_cap: int = DEFAULT_DIM_CAP) -> ConditionReport:
    """(a) the exact intersection of agent beliefs sits inside P0;
    (b) when all agents share one belief set, P0 equals it (mutual inclusion)."""
    soc = _society(prof)
    inter = intersect_polytopes([a.beliefs for a in prof.agents], dim_cap)
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

    first = prof.agents[0].beliefs
    common = all(a.beliefs == first for a in prof.agents[1:])
    if common:
        b_holds = (
            _hull_weights(soc.beliefs.vertices, first)[1] is None
            and _hull_weights(first.vertices, soc.beliefs)[1] is None
        )
        details["b"] = b_holds
        details["common_beliefs"] = first.vertices
    else:
        b_holds = None
        details["b"] = None
    holds = a_holds and (b_holds if b_holds is not None else True)
    return ConditionReport("corollary2", holds, details)


def check_seu_existence(
    belief_sets: list[Polytope], combo_cap: int = DEFAULT_COMBO_CAP
) -> Vec | None:
    """A single prior lying in the hull of every vertex combo, or None.

    One joint feasibility LP: the candidate prior p plus one simplex weight
    vector per combo, tied together by p = sum_i gamma^c_i combo^c_i.
    """
    if len(belief_sets) < 2:
        raise ValueError("need at least two belief sets")
    m = belief_sets[0].ambient_dim
    if any(P.ambient_dim != m for P in belief_sets):
        raise DimensionMismatchError("belief sets live on different state spaces")
    n = len(belief_sets)
    combos = list(enumerate_combos(belief_sets, combo_cap))
    nvars = m + n * len(combos)
    rows = []
    rhs = []
    for c_idx, combo in enumerate(combos):
        off = m + n * c_idx
        for s in range(m):
            row = [_ZERO] * nvars
            row[s] = -_ONE
            for i in range(n):
                row[off + i] = combo[i][s]
            rows.append(row)
            rhs.append(_ZERO)
        row = [_ZERO] * nvars
        for i in range(n):
            row[off + i] = _ONE
        rows.append(row)
        rhs.append(_ONE)
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


def check_prop2(prof: Profile, combo_cap: int = DEFAULT_COMBO_CAP) -> ConditionReport:
    """Same representation condition as the combo lower bound; delegated."""
    return _delegated("prop2", check_thm2_condition(prof, combo_cap))


# ---------------------------------------------------------------------------
# Society construction rules
# ---------------------------------------------------------------------------

SOCIETY_RULES = ("minkowski", "hull-union", "given")


def aggregate_society(
    prof: Profile,
    alpha,
    beta,
    rule: str,
    gamma=None,
    vertices=None,
    combo_cap: int = DEFAULT_COMBO_CAP,
) -> Agent:
    """Build a society agent: utilitarian taste plus a rule-based belief set.

    * ``minkowski``: the gamma-weighted Minkowski average of the agent sets,
      generated by weighted sums over vertex combos.
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
        points = []
        for combo in enumerate_combos([a.beliefs for a in prof.agents], combo_cap):
            p = zero_vec(prof.states)
            for g, v in zip(gamma, combo):
                p = vadd(p, vscale(g, v))
            points.append(p)
        beliefs = Polytope.from_generators(points)
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
