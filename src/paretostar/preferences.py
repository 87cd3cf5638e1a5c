"""Multi-prior (Bewley) preference model: utilities, acts, agents, profiles.

An agent carries a nonconstant affine utility over outcome vectors and a
belief polytope of priors over states.  It weakly prefers act f to act g iff
the expected utility of f is at least that of g under *every* prior in the
belief set; since the expected-utility difference is linear in the prior,
checking the belief vertices is exact and sufficient.

Act evaluation runs on integers.  Gradients, act rows and belief vertices
are cleared to integers over one denominator on first use (`.cleared`,
cached outside the dataclass fields, so equality, hashing and documents
never see it).  `_on_acts` evaluates every taste of a check on an act pair
in one call, with one shape check and one lcm of the acts' denominators: a
taste is plain `int` dot products (the utility constant cancels from every
gap), and `_on_pair` is its one-taste case.  Each belief vertex's weighted
sum of the gaps is one integer numerator whose sign decides dominance;
`_strict_prior` returns the integer witness (v, n, d), and a `Fraction` is
built from it only where a certificate records it or
`strict_prior_against` returns it.  `utility_profile` and
`expected_utility` still evaluate in `Fraction`s.  A fuzz run builds an
act only for a drawn violation, with `_cleared_act`, whose rows arrive
already cleared over a denominator shared by a whole table of draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatchError, MissingSocietyError
from .geometry import (
    Polytope,
    Vec,
    box_margin,
    dot,
    frac,
    is_zero,
    nullspace,
    rank,
    vec,
    vec_parts,
    zero_vec,
)

_ZERO = Fraction(0)


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

    @functools.cached_property
    def cleared(self) -> tuple[tuple[int, ...], int]:
        """The gradient as integers over one denominator, computed on first use."""
        return vec_parts(self.coeffs)


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

    @functools.cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Every row as integers over one common denominator, computed on first use."""
        if len(set(map(len, self.rows))) > 1:
            raise DimensionMismatchError("act rows of mixed outcome dimension")
        flat, den = vec_parts([x for r in self.rows for x in r])
        w = len(self.rows[0])
        return tuple([flat[i:i + w] for i in range(0, len(flat), w)]), den

    def translate(self, offset: Vec) -> "Act":
        return Act(tuple(tuple(a + b for a, b in zip(r, offset)) for r in self.rows))


def _cleared_act(rows: tuple[Vec, ...], ints: tuple[tuple[int, ...], ...], den: int) -> Act:
    """An `Act` on `rows` whose `cleared` cache already holds `(ints, den)`.

    `rows[s][j] == ints[s][j] / den` must hold; `den` need not be the least
    common denominator (`_on_acts` rescales both acts to `lcm(den_f, den_g)`
    and every margin leaves as a reduced `Fraction`), so a sampler can clear
    a whole table of rows over one denominator once.  The value sits in the
    instance `__dict__`, where `functools.cached_property` keeps it, so
    equality, hashing, `repr` and documents see only `rows`.
    """
    f = Act(rows)
    f.__dict__["cleared"] = (ints, den)
    return f


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


def _society(prof: Profile) -> Agent:
    """The profile's society: the one gate for every check, fuzz run and
    witness that needs one."""
    if prof.society is None:
        raise MissingSocietyError("profile has no society")
    return prof.society


def profile(agents, society=None) -> Profile:
    ags = tuple(agents)
    return Profile(ags[0].beliefs.ambient_dim, ags[0].utility.dim, ags, society)


# ---------------------------------------------------------------------------
# Evaluation and dominance
# ---------------------------------------------------------------------------

def expected_utility(u: AffineUtility, p: Vec, f: Act) -> Fraction:
    """sum_s p(s) * u(f(s))."""
    if len(p) != f.states:
        raise DimensionMismatchError("prior length differs from act's state count")
    if u.dim != f.outcome_dim:
        raise DimensionMismatchError("utility dimension differs from outcome dimension")
    return dot(p, utility_profile(u, f))


def utility_profile(u: AffineUtility, f: Act) -> Vec:
    """The state-indexed vector (u(f(1)), ..., u(f(m)))."""
    return tuple(dot(u.coeffs, row) + u.constant for row in f.rows)


def _on_acts(utilities, f: Act, g: Act) -> list[tuple[list[int], int]]:
    """Each utility's gradient on every row of f, then of g, over one
    denominator per taste: the one evaluation of tastes on an act pair.

    One shape check and one lcm of the acts' denominators serve every taste;
    the rows are rescaled to that lcm once per pair, and not at all when the
    acts share a denominator (every sampled act does).
    """
    if f.states != g.states:
        raise DimensionMismatchError(f"acts have {f.states} and {g.states} states")
    dim = f.outcome_dim
    if g.outcome_dim != dim or any(u.dim != dim for u in utilities):
        raise DimensionMismatchError("acts live in a different outcome space")
    rows_f, den_f = f.cleared
    rows_g, den_g = g.cleared
    if den_f == den_g:
        den, rows = den_f, rows_f + rows_g
    else:
        den = lcm(den_f, den_g)
        sf, sg = den // den_f, den // den_g
        rows = [tuple([x * sf for x in r]) for r in rows_f]
        rows += [tuple([x * sg for x in r]) for r in rows_g]
    return [([sum(map(mul, coeffs, r)) for r in rows], den_u * den)
            for coeffs, den_u in [u.cleared for u in utilities]]


def _on_pair(u: AffineUtility, f: Act, g: Act) -> tuple[list[int], int]:
    """One taste's `_on_acts` values."""
    return _on_acts((u,), f, g)[0]


def _state_gaps(vertices, values: tuple[list[int], int]) -> tuple[list[int], int]:
    """The per-state gaps coeffs·(f(s) - g(s)) of one taste's `_on_acts`
    values, over their denominator; the utility constant cancels.

    `vertices` are `Polytope.cleared` vertices, all of one length, which must
    be the acts' state count.
    """
    nums, den = values
    m = len(nums) // 2
    if vertices and len(vertices[0][1]) != m:
        raise DimensionMismatchError(f"prior has {len(vertices[0][1])} entries for {m} states")
    return [a - b for a, b in zip(nums[:m], nums[m:])], den


def _vertex_gaps(vertices, values: tuple[list[int], int]) -> list[tuple[Vec, int, int]]:
    """(v, n, d) per `Polytope.cleared` vertex, EU_v(f) - EU_v(g) = n / d, d > 0."""
    gaps, den = _state_gaps(vertices, values)
    return [(v, sum(map(mul, ints, gaps)), d * den) for v, ints, d in vertices]


def _strict_prior(vertices, values) -> tuple[Vec, int, int] | None:
    """The first vertex v under which g strictly beats f, as the integer
    witness (v, n, d): EU_v(g) - EU_v(f) = n / d with n, d > 0.

    No `Fraction` is built here; a certificate builds its margin from the
    witness only where one is recorded.  It stops at that vertex, so the
    later vertices' gaps, which `_vertex_gaps` would build, are not summed.
    """
    gaps, den = _state_gaps(vertices, values)
    for v, ints, d in vertices:
        n = sum(map(mul, ints, gaps))
        if n < 0:
            return v, -n, d * den
    return None


def _least_margin(vertices, values) -> Fraction:
    """The least EU(f) - EU(g) over the vertices."""
    best_n, best_d = None, 1
    for _, n, d in _vertex_gaps(vertices, values):
        if best_n is None or n * best_d < best_n * d:
            best_n, best_d = n, d
    return Fraction(best_n, best_d)


def bewley_geq(a: Agent, f: Act, g: Act) -> bool:
    """f weakly dominates g for the agent: EU(f) >= EU(g) under every prior.

    The difference is linear in the prior, so the belief vertices decide it.
    """
    return _strict_prior(a.beliefs.cleared, _on_pair(a.utility, f, g)) is None


def strict_prior_against(a: Agent, f: Act, g: Act) -> tuple[Vec, Fraction] | None:
    """A belief vertex under which g strictly beats f, with its margin.

    Existence is exactly the failure of ``bewley_geq(a, f, g)``; the first
    such vertex in canonical order is returned.
    """
    witness = _strict_prior(a.beliefs.cleared, _on_pair(a.utility, f, g))
    if witness is None:
        return None
    v, n, d = witness
    return v, Fraction(n, d)


def bewley_incomparable(a: Agent, f: Act, g: Act) -> bool:
    return not bewley_geq(a, f, g) and not bewley_geq(a, g, f)


# ---------------------------------------------------------------------------
# Taste agreement and profile structure
# ---------------------------------------------------------------------------

def _tastes_agree(evaluations) -> bool:
    """Taste agreement from each taste's `_on_acts` values on the rows of f, then g."""
    restricted = [[x - nums[0] for x in nums[1:]] for nums, _ in evaluations]
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


def no_taste_disagreement(prof: Profile, f: Act, g: Act) -> bool:
    """All agents rank the outcomes spanned by the two acts identically.

    Restrict every agent's utility gradient to the span of outcome
    differences; the rankings agree iff the restrictions are all zero or all
    positive multiples of one common nonzero functional.  A functional on the
    span is fixed by its values on any spanning set, so each restriction is
    compared through its values on the differences p - p_0 of the acts' rows,
    cleared to integers: by sign, and by integer cross-products.
    """
    return _tastes_agree(_on_acts([a.utility for a in prof.agents], f, g))


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
    coeffs = [a.utility.coeffs for a in prof.agents]
    d = prof.outcome_dim
    if rank(coeffs) < prof.n:
        return None
    pairs = []
    for i, u in enumerate(coeffs):
        # Independent gradients put u outside the span of the others, so
        # some kernel vector of the others has a nonzero gain.
        cand = next(c for c in nullspace(coeffs[:i] + coeffs[i + 1:], d) if dot(u, c))
        direction = cand if dot(u, cand) > 0 else tuple(-x for x in cand)
        scale = max(abs(x) for x in direction)
        direction = tuple(x / scale for x in direction)
        pairs.append((direction, zero_vec(d)))
    return tuple(pairs)


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
        # v = ints / den (den > 0); the sum goes first, so () is no vector.
        for v, ints, den in a.beliefs.cleared:
            if len(v) != prof.states:
                problems.append(f"{name}: belief vertex {v} has wrong length")
            elif not (sum(ints) == den and min(ints) >= 0):
                problems.append(f"{name}: belief vertex {v} is not a probability vector")
    return problems
