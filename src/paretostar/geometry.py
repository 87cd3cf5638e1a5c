"""Exact rational linear algebra, polytopes in the probability simplex, and LP.

Everything in this module is exact rational arithmetic; there are no
tolerances and no floating point anywhere.  Values in and out are
`fractions.Fraction`s.  The simplex and Gauss-Jordan elimination
(`_echelon`) share one integer pivot: each row keeps its own positive
denominator, a pivot rewrites only the rows it changes, and `Fraction`s are
built only for what is returned.  The simplex takes `int` entries only: every
LP entry clears its data to integers over one common scale first.  Strict
conditions ("is there a point strictly on one side?") are decided by
margin-maximization LPs: the strict system is feasible iff the optimal
margin is positive, which is an exact comparison.

Conventions
-----------
* A vector is a tuple of Fractions (`Vec`).
* `Polytope` is vertex-represented; `from_generators` removes redundant
  generators and sorts the surviving vertices in ascending lexicographic
  order, so equal point sets compare equal.  `remove_redundant` reads the
  vertices of a line or a plane (every set over three states) off integer
  cross products; a larger hull takes one hull LP per point.  V->H
  conversion and vertex enumeration solve no LP: they read the extreme
  rays of one integer double description (`_cone_rays`), within DD_BUDGET.
* The simplex solver uses Bland's rule, hence every LP answer (including
  returned certificates) is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import CapExceededError, DimensionMismatchError, InternalError

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce int / Fraction / numeric string ("0.2", "3/7") to Fraction.

    Floats are rejected: they carry binary rounding error and would silently
    break the exactness guarantee.  A string whose numerator or denominator
    could pass DIGIT_CAP digits is refused before it is converted.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _check_digits(x)
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            "refusing to convert float %r: pass a string or Fraction for exactness" % (x,)
        )
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def _check_digits(text: str) -> None:
    """Refuse a numeric string with more than DIGIT_CAP mantissa digits plus exponent."""
    if len(text) <= DIGIT_CAP and "e" not in text and "E" not in text:
        return
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")
    if len(exponent) > len(str(DIGIT_CAP)) or sum(c.isdigit() for c in mantissa) + (
        int(exponent) if exponent.isdecimal() else 0  # else Fraction refuses it
    ) > DIGIT_CAP:
        raise ValueError(f"number {text[:20]!r} may exceed {DIGIT_CAP} digits")


def vec(entries) -> Vec:
    v = tuple(frac(x) for x in entries)
    if not v:
        raise ValueError("vectors must have positive length")
    return v


def dot(u: Vec, v: Vec) -> Fraction:
    """u·v, with one integer numerator accumulated over a running common
    denominator (the lcm of the products' denominators); entries may be
    Fractions or ints.
    """
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if den % d:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
            else:
                num += n * (den // d)
    return Fraction(num, den)


def vec_parts(entries) -> tuple[tuple[int, ...], int]:
    """The entries as integers over their least common denominator (> 0)."""
    den = lcm(*[x.denominator for x in entries])
    return tuple([x.numerator * (den // x.denominator) for x in entries]), den


def _scaled(values, scale: int) -> list[int]:
    """Each rational of `values` times `scale`, a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in values]


def vadd(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vadd: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vsub: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def segment_point(t: Fraction, high: Vec, low: Vec) -> Vec:
    """low + t (high - low), entrywise; high and low have the same length.

    Each entry is one `Fraction` built from integers (entries may be ints).
    """
    tn, td = t.numerator, t.denominator
    return tuple(
        Fraction(lo.numerator * hi.denominator * td
                 + tn * (hi.numerator * lo.denominator - lo.numerator * hi.denominator),
                 lo.denominator * hi.denominator * td)
        for hi, lo in zip(high, low)
    )


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def simplex_point(entries) -> Vec:
    """Validate and return a probability vector (entries >= 0, sum exactly 1)."""
    p = vec(entries)
    if any(x < 0 for x in p):
        raise ValueError(f"negative probability in {p}")
    if sum(p) != 1:
        raise ValueError(f"probabilities sum to {sum(p)}, not 1: {p}")
    return p


# ---------------------------------------------------------------------------
# Exact Gaussian elimination
# ---------------------------------------------------------------------------

def _echelon(rows) -> tuple[list[list[int]], list[int], list[int]]:
    """The RREF in integers: (rows, their denominators, pivot columns).

    Each row is scaled to integers and Gauss-Jordan runs through `_pivot`;
    a reduced row over its own positive denominator is the RREF row, so its
    pivot entry equals the denominator.  This is the package's one
    elimination: its callers read ranks, kernels, frames and solutions off
    the integer rows and build a `Fraction` only for a value they return.
    """
    if not rows:
        return [], [], []
    mat = [list(vec_parts(row)[0]) for row in rows]
    dens = [1] * len(mat)
    d = 1
    pivots: list[int] = []
    r = 0
    for col in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        dens[r], dens[pivot_row] = dens[pivot_row], dens[r]
        d = _pivot(mat, dens, d, r, col)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], dens[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(_echelon(rows)[2])


def _kernel(mat: list[list[int]], pivots: list[int], width: int) -> list[Vec]:
    """Kernel basis read off the first `width` columns of `_echelon`'s rows.

    A reduced row's pivot entry is its denominator, so the RREF entry of
    row i in free column f is mat[i][f] over mat[i][pivots[i]].
    """
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        x = [_ZERO] * width
        x[f] = _ONE
        for row, p in zip(mat, pivots):
            x[p] = Fraction(-row[f], row[p])
        basis.append(tuple(x))
    return basis


def nullspace(rows: list[list[Fraction]], width: int) -> list[Vec]:
    """Basis of {x : R x = 0} for the row system, one vector per free column."""
    mat, _, pivots = _echelon(rows)
    return _kernel(mat, pivots, width)


# ---------------------------------------------------------------------------
# LP: two-phase tableau simplex with Bland's rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HRep:
    """Halfspace representation: normal·x <= bound inequalities plus equalities."""

    inequalities: tuple[tuple[Vec, Fraction], ...]
    equalities: tuple[tuple[Vec, Fraction], ...] = ()


@dataclass(frozen=True)
class Hyperplane:
    """normal·x = threshold, used as a strict separator between point sets."""

    normal: Vec
    threshold: Fraction

    def __post_init__(self):
        if is_zero(self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def value(self, p: Vec) -> Fraction:
        return dot(self.normal, p)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Vec | None = None
    value: Fraction | None = None


def _pivot(tab, dens, d, row, col):
    """Pivot on tab[row][col] and return the new denominator `d`.

    Row i of `tab` holds integers over its own positive denominator dens[i],
    that of the pivot which last rewrote it; `d` is that of the last pivot.
    Integer-preserving update (Edmonds 1967; Bareiss 1968), done lazily: the
    pivot row is first brought up to `d` and negated if its pivot p is
    negative, then every row with a nonzero entry f in `col` becomes
    (p*a - f*r) // dens[i], an exact division equal to the row an eager
    update over one common denominator would hold.  Rows with f = 0 keep
    their values and are not rewritten; in a rewritten row, a cell whose
    pivot-row entry is 0 becomes p*a // dens[i], the same integer without
    the product f*0 (and 0 when a is 0).  The pivot becomes the denominator
    of every row it rewrote.  The rows are walked by index; the pivot row is
    told apart by identity, as it was just stored.
    """
    pr = tab[row]
    if dens[row] != d:
        pr = [a * d // dens[row] for a in pr]
    if pr[col] < 0:
        pr = [-a for a in pr]
    tab[row] = pr
    p = dens[row] = pr[col]
    for i in range(len(tab)):
        r = tab[i]
        f = r[col]
        if f and r is not pr:
            q = dens[i]
            tab[i] = [(p * a - f * b) // q if b else a and p * a // q for a, b in zip(r, pr)]
            dens[i] = p
    return p


def _bland_loop(tab, dens, basis, d, n):
    """Maximize until no structural column has positive reduced cost.

    Returns ("optimal" | "unbounded", denominator).  Bland's rule: entering =
    smallest eligible column index, leaving = smallest basis index among
    ratio ties.  Ratios rhs/coef are compared by cross-multiplication; both
    entries of a ratio share their row's denominator, which cancels.  The
    entering column is found by a plain loop over the cost row.
    """
    while True:
        zrow = tab[-1]
        for enter in range(n):
            if zrow[enter] > 0:
                break
        else:
            return "optimal", d
        best = None
        for i in range(len(basis)):
            r = tab[i]
            coef = r[enter]
            if coef > 0:
                if best is None:
                    best, num, den = i, r[-1], coef
                    continue
                lhs, rhs = r[-1] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, num, den = i, r[-1], coef
        if best is None:
            return "unbounded", d
        d = _pivot(tab, dens, d, best, enter)
        basis[best] = enter


def simplex_standard(
    rows: list[list[int]],
    rhs: list[int],
    objective: list[int],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective·z subject to rows·z = rhs, z >= 0 (exact, two-phase).

    Every entry must be an `int`; any other type (a `Fraction`, a `bool`)
    raises TypeError.  A caller with rational data clears its rows and rhs
    over one common positive scale first: one scale for all rows keeps the
    phase-1 reduced costs' signs, so Bland's rule picks the pivots a
    `Fraction` tableau would, and leaves z as it is; a positive scale on the
    objective scales the value it returns.  The tableau keeps each row over
    its own positive denominator (see `_pivot`); rows with a negative rhs
    are negated.  An all-zero objective (a feasibility question) returns
    right after phase 1's infeasibility test with value 0: an artificial
    still basic there has rhs 0, and pivoting it out would change no basic
    value, so only an LP with a phase 2 drives the artificials out.  Only
    the returned point and value are `Fraction`s; basic values equal to 0
    and nonbasic ones are the shared `_ZERO`.
    """
    m = len(rows)
    n = len(objective)
    if len(rhs) != m:
        raise DimensionMismatchError("rhs length differs from the number of rows")
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError("constraint width differs from objective length")
    if set(map(type, itertools.chain(*rows, rhs, objective))) - {int}:
        raise TypeError("simplex_standard takes int entries only; clear rationals first")
    tab = [[*r, b] if b >= 0 else [-x for x in (*r, b)] for r, b in zip(rows, rhs)]

    # Phase 1 drives the sum of one artificial per row to zero.  Artificial
    # columns never enter, so only their basis indices are kept.
    basis = [n + i for i in range(m)]
    tab.append([sum(c) for c in zip(*tab)] if m else [0] * (n + 1))
    dens = [1] * (m + 1)
    _, d = _bland_loop(tab, dens, basis, 1, n)
    tab.pop()
    dens.pop()
    if any(tab[i][-1] for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    if not any(objective):
        return "optimal", _basic_values(tab, dens, basis, n), _ZERO

    # Pivot surviving artificials out; rows that cannot pivot are redundant.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                continue
            d = _pivot(tab, dens, d, i, col)
            basis[i] = col
        keep.append(i)
    if len(keep) < m:
        tab = [tab[i] for i in keep]
        dens = [dens[i] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2 with the real objective, over `d`: the rows it is built from
    # are first brought up to `d`.
    zrow = [d * c for c in objective] + [0]
    for i, bi in enumerate(basis):
        f = objective[bi]
        if f:
            r = [a * d // dens[i] for a in tab[i]]
            zrow = [z - f * a for z, a in zip(zrow, r)]
    tab.append(zrow)
    dens.append(d)
    status, d = _bland_loop(tab, dens, basis, d, n)
    if status == "unbounded":
        return "unbounded", None, None
    # The cost row's rhs, over its own denominator, is -value.
    return "optimal", _basic_values(tab, dens, basis, n), Fraction(-tab[-1][-1], dens[-1])


def _basic_values(tab, dens, basis, n) -> list[Fraction]:
    """The basic solution: each basic column's rhs over its row's denominator.

    A row with rhs 0 sets nothing, so an artificial still basic after phase
    1 (its rhs is 0) is never read as a column.
    """
    z = [_ZERO] * n
    for r, q, bi in zip(tab, dens, basis):
        if r[-1]:
            z[bi] = Fraction(r[-1], q)
    return z


def feasible_nonneg(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Some z >= 0 with rows·z = rhs, or None: phase 1 of the simplex only,
    with no artificial drive-out.  Rows and rhs are `int`s, as
    `simplex_standard` takes them."""
    n = len(rows[0]) if rows else 0
    status, z, _ = simplex_standard(rows, rhs, [0] * n)
    return z if status == "optimal" else None


def max_margin(rows: list[list[int]], den: int) -> tuple[Vec, Fraction] | None:
    """Maximize t >= 0 over the unit simplex {z >= 0 : sum z = 1} with
    row·z / den >= t per row; every row holds integers over the one
    positive denominator `den`.

    Returns (z, t) when the largest margin t is positive, None when it is 0
    or no simplex point makes every row nonnegative; sum z = 1 keeps t
    bounded.  Unlike `lp_solve`, no variable is split: the standard-form
    columns are z, then t, then one surplus per row, and every row, the
    unit-sum row and its rhs included, is scaled by `den`.
    """
    n = len(rows[0])
    k = len(rows)
    lp_rows = []
    for i, r in enumerate(rows):
        surplus = [0] * k
        surplus[i] = -den
        lp_rows.append([*r, -den, *surplus])
    lp_rows.append([den] * n + [0] * (k + 1))
    status, z, value = simplex_standard(lp_rows, [0] * k + [den], [0] * n + [1] + [0] * k)
    if status != "optimal" or value <= 0:
        return None
    return tuple(z[:n]), value


def positive_margin(rows: list[list[int]], den: int) -> bool:
    """Whether `max_margin(rows, den)` is not None, from phase 1 alone.

    Feasibility of mu >= 0 with row·mu >= den for every row, one surplus
    column per row: a simplex point with margin t > 0, scaled by 1/t, is
    such a mu, and such a mu, scaled to sum 1, has margin at least
    1/sum(mu) > 0.
    """
    k = len(rows)
    lp_rows = [[*r, *[-1 if j == i else 0 for j in range(k)]] for i, r in enumerate(rows)]
    return feasible_nonneg(lp_rows, [den] * k) is not None


def lp_solve(objective: Vec, constraints: HRep) -> LPResult:
    """Exact LP over free variables: maximize objective·x on the HRep region.

    Every row, bound and the objective are cleared to integers over one
    scale, the lcm of all their denominators; free variables are split
    x = u - v with u, v >= 0 and inequalities get slack columns (scaled
    too), then the standard-form solver runs and its value is divided by
    the scale.  Deterministic by Bland's rule.
    """
    d = len(objective)
    data = [*constraints.inequalities, *constraints.equalities]
    for a, _ in data:
        if len(a) != d:
            raise DimensionMismatchError("constraint dimension differs from objective")
    nslack = len(constraints.inequalities)
    scale = lcm(*{x.denominator for a, b in data for x in (*a, b)},
                *{x.denominator for x in objective})
    rows = []
    rhs = []
    for k, (a, bound) in enumerate(data):
        *ints, b = _scaled((*a, bound), scale)
        row = [*ints, *(-x for x in ints)] + [0] * nslack
        if k < nslack:
            row[2 * d + k] = scale
        rows.append(row)
        rhs.append(b)
    obj = _scaled(objective, scale)
    status, z, value = simplex_standard(rows, rhs, [*obj, *(-x for x in obj)] + [0] * nslack)
    if status != "optimal":
        return LPResult(status)
    point = tuple(z[j] - z[d + j] for j in range(d))
    return LPResult("optimal", point, value / scale)


def box_margin(rows: list[Vec], boxed: int) -> tuple[Vec, Fraction] | None:
    """Maximize t over free x with row·x >= t per row and |x_j| <= 1 for j < boxed.

    Returns (x, t) when the largest margin t is positive, None otherwise.
    Solved by `lp_solve` over the inequalities -row·x + t <= 0, one per row
    in order, then x_j <= 1 and -x_j <= 1 for each boxed coordinate j; with
    Bland's rule that order fixes the optimal vertex returned.
    """
    width = len(rows[0]) + 1
    ineqs: list[tuple[Vec, Fraction]] = [((*(-x for x in r), 1), 0) for r in rows]
    for j in range(boxed):
        for sign in (1, -1):
            e = [0] * width
            e[j] = sign
            ineqs.append((tuple(e), 1))
    res = lp_solve((0,) * (width - 1) + (1,), HRep(tuple(ineqs)))
    if res.status != "optimal" or res.value <= 0:
        return None
    return res.point[:-1], res.value


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many points, stored by its exact vertex set.

    `vertices` is irredundant and sorted ascending-lexicographically, so two
    polytopes are equal iff they are the same point set.
    """

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        d = len(self.vertices[0])
        if any(len(v) != d for v in self.vertices):
            raise DimensionMismatchError("vertices of mixed dimension")

    @classmethod
    def from_generators(cls, points) -> "Polytope":
        pts = [vec(p) for p in points]
        if not pts:
            raise ValueError("no generators")
        reduced = remove_redundant(pts)
        return cls(tuple(sorted(reduced)))

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def cleared(self) -> tuple[tuple[Vec, tuple[int, ...], int], ...]:
        """(v, ints, den) per vertex v = ints / den, cached outside the fields."""
        return tuple((v, *vec_parts(v)) for v in self.vertices)

    def is_singleton(self) -> bool:
        return len(self.vertices) == 1


def _outside_box(p: list[int], coords: list[list[int]]) -> bool:
    """Some coordinate p[k] lies strictly below or strictly above every
    point's, coords[k], so p is outside the points' coordinate box and hence
    their hull.  p and the points are integers over one common scale.

    True for any p of positive length when there are no points.
    """
    return any(
        not row or x < min(row) or x > max(row) for x, row in zip(p, coords)
    )


def convex_weights(p: Vec, points) -> list[Fraction] | None:
    """Weights mu >= 0, sum 1, with sum mu_j points_j = p; None if impossible.

    `points` is a list of points or a `Polytope`, whose vertices are read
    from its cached `cleared` integers.  The points and p are cleared to
    integers over one common scale L, the lcm of their denominators.  A p
    outside the points' coordinate box (`_outside_box`, on those integers)
    gets None without an LP, the answer the LP would give; every other p is
    decided by one phase-1 LP over the integer rows, the unit-sum row and
    its rhs scaled by L too, which also returns the weights.
    """
    if isinstance(points, Polytope):
        cleared = points.cleared
    else:
        cleared = [(q, *vec_parts(q)) for q in points]
    d = len(p)
    for _, ints, _ in cleared:
        if len(ints) != d:
            raise DimensionMismatchError("point dimension differs from target")
    L = lcm(*{den for _, _, den in cleared}, *{x.denominator for x in p})
    rows = [[ints[k] * (L // den) for _, ints, den in cleared] for k in range(d)]
    target = _scaled(p, L)
    return _hull_weights(target, rows, L)


def _hull_weights(target: list[int], rows: list[list[int]], scale: int) -> list[Fraction] | None:
    """`convex_weights` on integers over one positive `scale`: rows[k] holds
    coordinate k of every point, target those of p."""
    if _outside_box(target, rows):
        return None
    return feasible_nonneg([*rows, [scale] * len(rows[0])], [*target, scale])


def membership(p: Vec, P: Polytope) -> bool:
    """Exact convex-hull membership: `convex_weights` finds weights, by one
    LP unless p lies outside the vertices' coordinate box."""
    return convex_weights(p, P) is not None


def support(P: Polytope, direction: Vec) -> Fraction:
    """max of direction·x over the polytope (attained at a vertex)."""
    if len(direction) != P.ambient_dim:
        raise DimensionMismatchError("direction and polytope dimension differ")
    if is_zero(direction):
        raise ValueError("support direction must be nonzero")
    return max(dot(direction, v) for v in P.vertices)


def separate(points: list[Vec], P: Polytope) -> Hyperplane | None:
    """Strictly separating hyperplane (normal, threshold) or None.

    Returns (lam, kappa) with lam·v > kappa for every input point and
    kappa > lam·w for every vertex w of P, which exists iff the hulls are
    disjoint.  Decided by maximizing the margin t subject to
    lam·v >= kappa + t, lam·w <= kappa - t and the box |lam_j| <= 1;
    separation succeeds iff the optimum is positive.
    """
    if not points:
        raise ValueError("no points to separate")
    d = P.ambient_dim
    for p in points:
        if len(p) != d:
            raise DimensionMismatchError("point and polytope dimension differ")
    # Variables (lam_1..lam_d, kappa): lam·v - kappa >= t, kappa - lam·w >= t.
    found = box_margin(
        [(*v, -1) for v in points] + [(*(-x for x in w), 1) for w in P.vertices], d
    )
    if found is None:
        return None
    h = Hyperplane(found[0][:d], found[0][d])
    # Re-checked by direct evaluation in every run mode, python -O included.
    if not _separates(h, points, P):
        raise InternalError(f"LP separator {h} does not strictly separate the point sets")
    return h


def _separates(h: Hyperplane, points, P: Polytope) -> bool:
    """Every point lies strictly above h and every vertex of P strictly below."""
    return all(h.value(v) > h.threshold for v in points) and all(
        h.value(w) < h.threshold for w in P.vertices
    )


def remove_redundant(points: list[Vec]) -> list[Vec]:
    """Minimal subset with the same convex hull (the exact vertex set).

    Input order of the survivors is preserved; duplicates collapse to their
    first occurrence, and one or two distinct points are returned as they
    are.  Otherwise `_affine_frame` clears the points to integers over one
    denominator and gives the pivot columns of their affine hull, of
    dimension k; reading a point at those columns is injective on the hull,
    so vertices go to vertices.  For k <= 2 (every point set over three
    states) the vertices are read off with no LP: the least and greatest
    point on a line, the corners of `_planar_corners` in a plane.  For
    k >= 3 the lexicographically least and greatest points are kept, being
    vertices of any finite set's hull, and every other point gets one
    `_hull_weights` test against the points still kept (no LP when it
    leaves their coordinate box): N small LPs, where the facets a double
    description would list can outnumber the N points many times over.
    """
    if not points:
        raise ValueError("no points given")
    uniq: list[Vec] = []
    for p in points:
        if p not in uniq:
            uniq.append(p)
    if len(set(map(len, uniq))) > 1:
        raise DimensionMismatchError("points of mixed dimension")
    if len(uniq) <= 2:
        return uniq
    ints, den, _, pivots = _affine_frame(uniq)
    if len(pivots) <= 2:
        coords = [tuple(q[c] for c in pivots) for q in ints]
        corners = {min(coords), max(coords)} if len(pivots) == 1 else _planar_corners(coords)
        return [p for p, t in zip(uniq, coords) if t in corners]
    extremes = (ints.index(min(ints)), ints.index(max(ints)))
    kept = list(range(len(uniq)))
    for j in range(len(uniq)):
        if j not in extremes and _hull_weights(
            ints[j], [[ints[o][k] for o in kept if o != j] for k in range(len(ints[j]))], den
        ) is not None:
            kept.remove(j)
    return [uniq[j] for j in kept]


def _planar_corners(points: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """The corners of the hull of distinct integer points, not all on a line.

    Andrew's monotone chain (1979): the sorted points are walked forward for
    the lower chain and backward for the upper one, and a point is popped
    while the turn to the next is not strictly left (integer cross product
    <= 0), so points inside the hull or on an edge are dropped.
    """
    ordered = sorted(points)
    corners: set[tuple[int, int]] = set()
    for run in (ordered, ordered[::-1]):
        chain: list[tuple[int, int]] = []
        for x, y in run:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        corners.update(chain)
    return corners


# ---------------------------------------------------------------------------
# V-representation <-> H-representation by double description
# ---------------------------------------------------------------------------

# The most ray tests (row signs, ray pairs, third rays) one double
# description may make; it bounds the time and the rays held at once.  Past
# it, CapExceededError.  Read when called.
DD_BUDGET = 40_000_000

# The most digits a number read as text (`frac`) may give its numerator or
# denominator, and the most decimal places the CLI writes: Python's default
# limit on int <-> str conversion, so what is read can be written back.
DIGIT_CAP = 4300


def _primitive(normal: Vec, bound: Fraction) -> tuple[Vec, Fraction]:
    """Scale an inequality by a positive rational to coprime integer entries."""
    *ints, b = _reduced(vec_parts((*normal, bound))[0])
    return tuple(map(Fraction, ints)), Fraction(b)


def _affine_frame(points) -> tuple[list[tuple[int, ...]], int, list[list[int]], list[int]]:
    """(ints, den, basis, pivots): the points as integers over one
    denominator `den` (`vec_parts` of all their entries), and `_echelon` of
    their offsets from the first, whose RREF is that of the points'
    differences (scaling by `den` leaves an RREF as it is)."""
    d = len(points[0])
    flat, den = vec_parts([x for p in points for x in p])
    ints = [flat[i:i + d] for i in range(0, len(flat), d)]
    basis, _, pivots = _echelon([[a - b for a, b in zip(q, ints[0])] for q in ints[1:]])
    return ints, den, basis, pivots


def _cone_rays(rows: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """(ray, mask) per extreme ray of the pointed cone {z : r·z >= 0 per row}.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996) on integer rows of full column rank n: the first n
    independent rows (`_echelon` on the transpose) bound a simplicial cone,
    whose rays are the columns of their inverse; each other row then keeps
    the rays on its nonnegative side and adds, per adjacent pair of rays on
    opposite sides, their positive combination on the row.  Bit i of a
    mask says row i is tight on the ray, a primitive integer vector.  Two
    rays are adjacent exactly when no third ray is tight on every row both
    are, which needs at least n - 2 such rows.  Past DD_BUDGET ray tests
    (each row's signs, ray pairs, third rays), CapExceededError.
    """
    n = len(rows[0])
    basis = _echelon(list(zip(*rows)))[2]
    inverse, dens, _ = _echelon(
        [[*rows[i], *(int(j == c) for c in range(n))] for j, i in enumerate(basis)]
    )
    scale = lcm(*dens)
    full = sum(1 << i for i in basis)
    rays = [
        (_reduced([row[n + c] * (scale // q) for row, q in zip(inverse, dens)]), full ^ 1 << i)
        for c, i in enumerate(basis)
    ]
    work = 0
    for i, row in enumerate(rows):
        if full >> i & 1:
            continue
        signed = [(sum([a * b for a, b in zip(row, z)]), z, mask) for z, mask in rays]
        pos = [ray for ray in signed if ray[0] > 0]
        neg = [ray for ray in signed if ray[0] < 0]
        kept = [(z, mask | (s == 0) << i) for s, z, mask in signed if s >= 0]
        work = _charge(work + len(rays) + len(pos) * len(neg))
        masks = [mask for _, mask in rays]
        for sp, zp, mp in pos:
            for sq, zq, mq in neg:
                common = mp & mq
                if common.bit_count() >= n - 2:
                    work = _charge(work + len(masks))
                    if sum([m & common == common for m in masks]) == 2:
                        z = _reduced([sp * a - sq * b for a, b in zip(zq, zp)])
                        kept.append((z, common | 1 << i))
        rays = kept
    return rays


def _charge(work: int) -> int:
    """`work`, or CapExceededError once it passes DD_BUDGET ray tests."""
    if work > DD_BUDGET:
        raise CapExceededError(
            f"vertex enumeration took {work} ray tests, over the budget {DD_BUDGET}"
        )
    return work


def _reduced(z) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries (if nonzero)."""
    g = gcd(*z) or 1
    return tuple([x // g for x in z])


def vrep_to_hrep(P: Polytope) -> HRep:
    """Exact facet description of a vertex-represented polytope.

    In the vertices' integer frame (`_affine_frame`), the kernel of the
    basis gives the equalities that pin the affine hull.  Read at the pivot
    columns (the basis is an RREF), the N vertices x over `den` give the
    polar dual about their centroid, {y : q·y <= N·den} with q = N·x - Σx
    per vertex, which is bounded.  Each ray (t, y) of its cone
    (`_cone_rays`) is a dual vertex y/t and so a facet: y·x <= t + y·Σx /
    (N·den) at the pivot columns x, scaled by N·den.  Every row is brought
    to primitive integers and the rows are sorted, so equal polytopes give
    equal HReps.
    """
    d = P.ambient_dim
    ints, den, basis, pivots = _affine_frame(P.vertices)
    # Normals vanishing on the direction span pin the affine hull; for a
    # single point this degenerates to one equality per coordinate.
    eqs = [_primitive(w, dot(w, P.vertices[0])) for w in _kernel(basis, pivots, d)]
    if not basis:
        return HRep((), tuple(sorted(eqs)))

    xs = [[q[c] for c in pivots] for q in ints]
    total = [sum(col) for col in zip(*xs)]
    n = len(xs)
    scale = n * den
    rows = [(scale, *[t - n * a for a, t in zip(x, total)]) for x in xs]
    ineqs = []
    for (t, *y), _ in _cone_rays(rows):
        if t <= 0:
            raise InternalError("polar dual of a full-dimensional polytope is unbounded")
        normal = [0] * d
        for yk, c in zip(y, pivots):
            normal[c] = scale * yk
        ineqs.append(_primitive(normal, scale * t + sum([a * b for a, b in zip(y, total)])))
    ineqs.sort()
    return HRep(tuple(ineqs), tuple(sorted(eqs)))


def hrep_vertices(H: HRep) -> Polytope | None:
    """Exact vertex set of an H-represented polytope; None when empty.

    Every row must have the length of the first.  Each inequality a·x <= b,
    each equality as two opposite inequalities, and t >= 0 give the cone
    {(t, y) : b·t - a·y >= 0} over the pivot columns y of the stacked
    normals (`_echelon`), which is pointed.  Its extreme rays
    (`_cone_rays`) decide the region: with no ray where t > 0 it is empty
    (None); a ray with t = 0, or fewer pivot columns than coordinates, means
    it is unbounded (ValueError); otherwise the rays scaled to t = 1 are its
    vertices.
    """
    rows = [*H.inequalities, *H.equalities]
    if not rows:
        raise ValueError("empty H-representation")
    d = len(rows[0][0])
    if any(len(a) != d for a, _ in rows):
        raise DimensionMismatchError("H-representation rows of mixed dimension")
    pivots = _echelon([a for a, _ in rows])[2]
    cone = {(1, *[0] * len(pivots)): None}
    for i, (a, b) in enumerate(rows):
        ints = vec_parts((b, *[-a[c] for c in pivots]))[0]
        cone[ints] = None
        if i >= len(H.inequalities):
            cone[tuple([-x for x in ints])] = None
    rays = [z for z, _ in _cone_rays(list(cone))]
    if not any(z[0] for z in rays):
        return None
    if len(pivots) < d or not all(z[0] for z in rays):
        raise ValueError("region is unbounded; expected a polytope")
    return Polytope(tuple(sorted(tuple(Fraction(x, t) for x in y) for t, *y in rays)))


def intersect_polytopes(polys: list[Polytope]) -> Polytope | None:
    """Exact intersection via stacked facet descriptions; None when empty.

    Each polytope lies in its vertices' coordinate box, so when the boxes
    share no value in some coordinate the intersection is empty and None is
    returned with no V->H conversion.  Otherwise every polytope's facets are
    stacked and `hrep_vertices` gives the canonical vertex set.
    """
    if not polys:
        raise ValueError("nothing to intersect")
    d = polys[0].ambient_dim
    if any(P.ambient_dim != d for P in polys):
        raise DimensionMismatchError("polytopes of mixed dimension")
    for k in range(d):
        if max(min(v[k] for v in P.vertices) for P in polys) > min(
            max(v[k] for v in P.vertices) for P in polys
        ):
            return None
    ineqs: list[tuple[Vec, Fraction]] = []
    eqs: list[tuple[Vec, Fraction]] = []
    for P in polys:
        h = vrep_to_hrep(P)
        ineqs.extend(h.inequalities)
        eqs.extend(h.equalities)
    return hrep_vertices(HRep(tuple(ineqs), tuple(eqs)))
