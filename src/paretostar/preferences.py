"""Multi-prior (Bewley) preference model: utilities, acts, agents, profiles.

An agent carries a nonconstant affine utility over outcome vectors and a
belief polytope of priors over states.  It weakly prefers act f to act g iff
the expected utility of f is at least that of g under *every* prior in the
belief set; since the expected-utility difference is linear in the prior,
checking the belief vertices is exact and sufficient.

Act evaluation runs on integers.  The gaps u(f(s)) - u(g(s)) of two acts are
cleared to integers over one denominator (the utility constant cancels), each
belief vertex's weighted sum of them is one integer numerator whose sign
decides dominance, and a `Fraction` is built only for a margin that is
returned.  `utility_profile` and `expected_utility` still return `Fraction`s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError
from .geometry import (
    Polytope,
    Vec,
    box_margin,
    dot,
    dot_parts,
    frac,
    is_simplex_point,
    is_zero,
    nullspace,
    rref,
    vec,
    zero_vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class AffineUtility:
    """u(x) = coeffs·x + constant on the outcome space."""

    coeffs: Vec
    constant: Fraction = _ZERO

    def __call__(self, outcome: Vec) -> Fraction:
        return dot(self.coeffs, outcome) + self.constant

    @property
    def dim(self) -> int:
        return len(self.coeffs)


def utility(coeffs, constant=0) -> AffineUtility:
    return AffineUtility(vec(coeffs), frac(constant))


@dataclass(frozen=True)
class Act:
    """A state-indexed tuple of outcome vectors; row s is the outcome in state s."""

    rows: tuple[Vec, ...]

    @property
    def states(self) -> int:
        return len(self.rows)

    @property
    def outcome_dim(self) -> int:
        return len(self.rows[0])

    def translate(self, offset: Vec) -> "Act":
        return Act(tuple(tuple(a + b for a, b in zip(r, offset)) for r in self.rows))


def act(rows) -> Act:
    return Act(tuple(vec(r) for r in rows))


def constant_act(outcome, states: int) -> Act:
    row = vec(outcome)
    return Act((row,) * states)


@dataclass(frozen=True)
class Agent:
    utility: AffineUtility
    beliefs: Polytope
    name: str = ""


@dataclass(frozen=True)
class Profile:
    """n >= 2 agents over a common state count and outcome dimension.

    The optional society is the aggregate under test; index agents 1..n in
    reports, society as 0.  Structural witnesses (common strict pair,
    per-agent direction pairs) are derived lazily and cached per profile.
    """

    states: int
    outcome_dim: int
    agents: tuple[Agent, ...]
    society: Agent | None = None

    @property
    def n(self) -> int:
        return len(self.agents)

    def agent_names(self) -> list[str]:
        return [a.name or f"agent{i + 1}" for i, a in enumerate(self.agents)]


def profile(agents, society=None, states=None, outcome_dim=None) -> Profile:
    ags = tuple(agents)
    m = states if states is not None else ags[0].beliefs.ambient_dim
    d = outcome_dim if outcome_dim is not None else ags[0].utility.dim
    return Profile(m, d, ags, society)


# ---------------------------------------------------------------------------
# Evaluation and dominance
# ---------------------------------------------------------------------------

def expected_utility(u: AffineUtility, p: Vec, f: Act) -> Fraction:
    """sum_s p(s) * u(f(s))."""
    if len(p) != f.states:
        raise DimensionMismatchError("prior length differs from act's state count")
    if u.dim != f.outcome_dim:
        raise DimensionMismatchError("utility dimension differs from outcome dimension")
    total = _ZERO
    for ps, row in zip(p, f.rows):
        if ps:
            total += ps * (dot(u.coeffs, row) + u.constant)
    return total


def utility_profile(u: AffineUtility, f: Act) -> Vec:
    """The state-indexed vector (u(f(1)), ..., u(f(m)))."""
    return tuple(dot(u.coeffs, row) + u.constant for row in f.rows)


def _on_rows(coeffs: Vec, rows) -> tuple[list[int], int]:
    """coeffs·row for every row, as integers over one positive denominator."""
    parts = [dot_parts(coeffs, row) for row in rows]
    den = lcm(*(d for _, d in parts))
    return [n * (den // d) for n, d in parts], den


def _gaps(u: AffineUtility, f: Act, g: Act) -> tuple[list[int], int]:
    """u(f(s)) - u(g(s)) for every state s, as integers over one denominator.

    The difference is coeffs·(f(s) - g(s)); the utility constant cancels
    exactly, so it never enters.
    """
    if f.states != g.states:
        raise DimensionMismatchError(f"acts have {f.states} and {g.states} states")
    values, den = _on_rows(u.coeffs, f.rows + g.rows)
    m = f.states
    return [a - b for a, b in zip(values[:m], values[m:])], den


def _vertex_gaps(u: AffineUtility, vertices, f: Act, g: Act):
    """(v, n, d) for each prior v, where EU_v(f) - EU_v(g) under u is n / d, d > 0."""
    gaps, den = _gaps(u, f, g)
    for v in vertices:
        n, d = dot_parts(v, gaps)
        yield v, n, d * den


def bewley_geq(a: Agent, f: Act, g: Act) -> bool:
    """f weakly dominates g for the agent: EU(f) >= EU(g) under every prior.

    The difference is linear in the prior, so the belief vertices decide it.
    """
    return all(n >= 0 for _, n, _ in _vertex_gaps(a.utility, a.beliefs.vertices, f, g))


def strict_prior_against(a: Agent, f: Act, g: Act) -> tuple[Vec, Fraction] | None:
    """A belief vertex under which g strictly beats f, with its margin.

    Existence is exactly the failure of ``bewley_geq(a, f, g)``; the first
    such vertex in canonical order is returned.
    """
    for v, n, d in _vertex_gaps(a.utility, a.beliefs.vertices, g, f):
        if n > 0:
            return v, Fraction(n, d)
    return None


def min_margin(a: Agent, f: Act, g: Act) -> Fraction:
    """The least EU(f) - EU(g) over the agent's belief vertices."""
    best_n, best_d = None, 1
    for _, n, d in _vertex_gaps(a.utility, a.beliefs.vertices, f, g):
        if best_n is None or n * best_d < best_n * d:
            best_n, best_d = n, d
    return Fraction(best_n, best_d)


def bewley_incomparable(a: Agent, f: Act, g: Act) -> bool:
    return not bewley_geq(a, f, g) and not bewley_geq(a, g, f)


# ---------------------------------------------------------------------------
# Taste agreement and profile structure
# ---------------------------------------------------------------------------

def _taste_on_span(coeffs: Vec, points: tuple[Vec, ...]) -> list[int]:
    """coeffs·(p - points[0]) for every later point, times one positive integer."""
    values, _ = _on_rows(coeffs, points)
    base = values[0]
    return [x - base for x in values[1:]]


def no_taste_disagreement(prof: Profile, f: Act, g: Act) -> bool:
    """All agents rank the outcomes spanned by the two acts identically.

    Restrict every agent's utility gradient to the span of outcome
    differences; the rankings agree iff the restrictions are all zero or all
    positive multiples of one common nonzero functional.  A functional on the
    span is fixed by its values on any spanning set, so each restriction is
    compared through its values on the differences p - p_0 of the acts' rows,
    cleared to integers: by sign, and by integer cross-products.
    """
    if f.outcome_dim != prof.outcome_dim or g.outcome_dim != prof.outcome_dim:
        raise DimensionMismatchError("acts live in a different outcome space")
    points = f.rows + g.rows
    restricted = [_taste_on_span(a.utility.coeffs, points) for a in prof.agents]
    nonzero = [r for r in restricted if any(r)]
    if not nonzero:
        return True
    if len(nonzero) < len(restricted):
        return False
    ref = nonzero[0]
    k = next(i for i, x in enumerate(ref) if x != 0)
    for r in nonzero[1:]:
        if r[k] * ref[k] <= 0 or any(x * ref[k] != y * r[k] for x, y in zip(r, ref)):
            return False
    return True


@functools.lru_cache(maxsize=256)
def check_c_minimal_agreement(prof: Profile) -> tuple[Vec, Vec] | None:
    """A pair (x_star, x_low) every agent strictly prefers in that order.

    Found by maximizing the worst agent's gain along a direction in the
    [-1, 1] box; a pair exists iff the optimal margin is positive.
    """
    found = box_margin([a.utility.coeffs for a in prof.agents], prof.outcome_dim)
    if found is None:
        return None
    return found[0], zero_vec(prof.outcome_dim)


@functools.lru_cache(maxsize=256)
def check_c_diversity(prof: Profile) -> tuple[tuple[Vec, Vec], ...] | None:
    """Per-agent pairs (x_hi, x_lo) the agent strictly ranks, all others tie.

    Such pairs exist for every agent iff the utility gradients are linearly
    independent.  Each direction is taken from the null space of the other
    agents' gradients, oriented and scaled into the [-1, 1] box.
    """
    coeff_rows = [list(a.utility.coeffs) for a in prof.agents]
    d = prof.outcome_dim
    if len(rref(coeff_rows)[1]) < prof.n:
        return None
    pairs = []
    for i in range(prof.n):
        others = [coeff_rows[j] for j in range(prof.n) if j != i]
        candidates = nullspace(others, d) if others else [
            tuple(_ONE if a == b else _ZERO for a in range(d)) for b in range(d)
        ]
        direction = None
        for cand in candidates:
            gain = dot(vec(coeff_rows[i]), cand)
            if gain != 0:
                direction = cand if gain > 0 else tuple(-x for x in cand)
                break
        if direction is None:
            return None
        scale = max(abs(x) for x in direction)
        direction = tuple(x / scale for x in direction)
        pairs.append((direction, zero_vec(d)))
    return tuple(pairs)


def utility_rank(prof: Profile) -> int:
    return len(rref([list(a.utility.coeffs) for a in prof.agents])[1])


def validate_profile(prof: Profile) -> list[str]:
    """Well-formedness report; an empty list means the profile is sound."""
    problems = []
    if prof.n < 2:
        problems.append(f"profile has {prof.n} agents; at least 2 required")
    if prof.states < 2:
        problems.append(f"profile has {prof.states} states; at least 2 required")
    if prof.outcome_dim < 1:
        problems.append("outcome dimension must be at least 1")
    everyone = list(zip(prof.agent_names(), prof.agents))
    if prof.society is not None:
        everyone.append((prof.society.name or "society", prof.society))
    for name, a in everyone:
        if is_zero(a.utility.coeffs):
            problems.append(f"{name}: utility is constant (zero gradient)")
        if a.utility.dim != prof.outcome_dim:
            problems.append(
                f"{name}: utility dimension {a.utility.dim} != outcome dimension {prof.outcome_dim}"
            )
        for v in a.beliefs.vertices:
            if len(v) != prof.states:
                problems.append(f"{name}: belief vertex {v} has wrong length")
            elif not is_simplex_point(v):
                problems.append(f"{name}: belief vertex {v} is not a probability vector")
    return problems
