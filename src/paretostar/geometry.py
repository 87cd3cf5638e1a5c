"""Exact rational linear algebra, polytopes in the probability simplex, and LP.

Everything in this module is exact rational arithmetic; there are no
tolerances and no floating point anywhere.  Values in and out are
`fractions.Fraction`s.  The simplex and `rref` share one integer pivot:
each row keeps its own positive denominator, a pivot rewrites only the rows
it changes, and `Fraction`s are built only for what is returned.  Strict
conditions ("is there a point strictly on one side?") are decided by
margin-maximization LPs: the strict system is feasible iff the optimal
margin is positive, which is an exact comparison.

Conventions
-----------
* A vector is a tuple of Fractions (`Vec`).
* `Polytope` is vertex-represented; `from_generators` removes redundant
  generators and sorts the surviving vertices in ascending lexicographic
  order, so equal point sets compare equal.
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


def is_simplex_point(p: Vec) -> bool:
    return all(x >= 0 for x in p) and sum(p) == 1


def delta(s: int, m: int) -> Vec:
    """The degenerate distribution putting mass 1 on state `s` out of `m`."""
    return tuple(_ONE if i == s else _ZERO for i in range(m))


# ---------------------------------------------------------------------------
# Exact Gaussian elimination
# ---------------------------------------------------------------------------

def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns).

    Each row is scaled to integers and Gauss-Jordan runs through `_pivot`;
    a pivoted row over its own denominator has pivot entry 1.
    """
    if not rows:
        return [], []
    mat = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        mat.append([s * x.numerator // x.denominator for x in row])
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
    return [[Fraction(a, q) for a in row] for row, q in zip(mat[:r], dens)], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def _kernel(red: list[list[Fraction]], pivots: list[int], width: int) -> list[Vec]:
    """Kernel basis read off the first `width` columns of an RREF."""
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        x = [_ZERO] * width
        x[f] = _ONE
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(tuple(x))
    return basis


def nullspace(rows: list[list[Fraction]], width: int) -> list[Vec]:
    """Basis of {x : R x = 0} for the row system, one vector per free column."""
    return _kernel(*rref(rows), width)


def solve_linear(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[Vec, list[Vec]] | None:
    """Solve R x = rhs exactly.

    Returns (particular solution with free variables at 0, homogeneous basis),
    or None when the system is inconsistent.  One RREF of the augmented
    system serves both: its first `width` columns are the RREF of R.
    """
    if not rows:
        return (), []
    width = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if width in pivots:
        return None
    x = [_ZERO] * width
    for i, p in enumerate(pivots):
        x[p] = red[i][width]
    return tuple(x), _kernel(red, pivots, width)


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
    their values and are not rewritten.  The pivot becomes the denominator
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
            tab[i] = [(p * a - f * b) // dens[i] for a, b in zip(r, pr)]
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
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective·z subject to rows·z = rhs, z >= 0 (exact, two-phase).

    The tableau is kept in integers, each row over its own positive
    denominator (see `_pivot`).  Rows with a negative rhs are negated, then
    every row and the rhs are multiplied by the lcm of all their
    denominators: one scale for all rows, so the phase-1 reduced costs keep
    their signs and Bland's rule picks the pivots a `Fraction` tableau
    would.  Entries may be ints or `Fraction`s; when every entry is an int
    that scale is 1 and the rows are copied as they are, so a caller that
    clears its rows over one denominator gets the tableau the `Fraction`
    rows would give.  An all-zero objective (a feasibility question) stops
    after phase 1 and the artificial drive-out with value 0.  Only the
    returned point and value are `Fraction`s; basic values equal to 0 and
    nonbasic ones are the shared `_ZERO`.
    """
    m = len(rows)
    n = len(objective)
    if len(rhs) != m:
        raise DimensionMismatchError("rhs length differs from the number of rows")
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError("constraint width differs from objective length")
    if all(type(x) is int for r in rows for x in r) and all(type(b) is int for b in rhs):
        tab = [[*r, b] if b >= 0 else [-x for x in (*r, b)] for r, b in zip(rows, rhs)]
    else:
        scale = lcm(*{x.denominator for r in rows for x in r}, *{b.denominator for b in rhs})
        tab = []
        for r, b in zip(rows, rhs):
            s = -scale if b < 0 else scale
            tab.append([s * x.numerator // x.denominator for x in (*r, b)])

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
    if not any(objective):
        return "optimal", _basic_values(tab, dens, basis, n), _ZERO

    # Phase 2 with the real objective, scaled to integers, over `d`: the
    # rows it is built from are first brought up to `d`.
    oscale = lcm(*{c.denominator for c in objective})
    obj = [oscale * c.numerator // c.denominator for c in objective]
    zrow = [d * c for c in obj] + [0]
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f:
            r = [a * d // dens[i] for a in tab[i]]
            zrow = [z - f * a for z, a in zip(zrow, r)]
    tab.append(zrow)
    dens.append(d)
    status, d = _bland_loop(tab, dens, basis, d, n)
    if status == "unbounded":
        return "unbounded", None, None
    # The cost row's rhs, over its own denominator, is -oscale·value.
    value = Fraction(-tab[-1][-1], oscale * dens[-1])
    return "optimal", _basic_values(tab, dens, basis, n), value


def _basic_values(tab, dens, basis, n) -> list[Fraction]:
    """The basic solution: each basic column's rhs over its row's denominator."""
    z = [_ZERO] * n
    for r, q, bi in zip(tab, dens, basis):
        if r[-1]:
            z[bi] = Fraction(r[-1], q)
    return z


def feasible_nonneg(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Some z >= 0 with rows·z = rhs, or None. Phase 1 of the simplex only."""
    n = len(rows[0]) if rows else 0
    status, z, _ = simplex_standard(rows, rhs, [0] * n)
    return z if status == "optimal" else None


def max_margin(
    rows: list[Vec], eqs: list[Vec], eq_rhs: list[Fraction]
) -> tuple[Vec, Fraction] | None:
    """Maximize t >= 0 over z >= 0 with row·z >= t per row and eqs·z = eq_rhs.

    Returns (z, t) when the largest margin t is positive, None when it is 0
    or no z >= 0 satisfies the system.  Unlike `lp_solve`, no variable is
    split: the standard-form columns are z, then t, then one surplus per
    row.  The equalities must keep t bounded (for instance by fixing the
    scale of z); an unbounded margin raises ValueError.
    """
    n = len(rows[0])
    k = len(rows)
    lp_rows = []
    for i, r in enumerate(rows):
        surplus = [0] * k
        surplus[i] = -1
        lp_rows.append([*r, -1, *surplus])
    lp_rows += [[*a, 0] + [0] * k for a in eqs]
    rhs = [0] * k + list(eq_rhs)
    status, z, value = simplex_standard(lp_rows, rhs, [0] * n + [1] + [0] * k)
    if status == "unbounded":
        raise ValueError("margin LP is unbounded")
    if status != "optimal" or value <= 0:
        return None
    return tuple(z[:n]), value


def lp_solve(objective: Vec, constraints: HRep) -> LPResult:
    """Exact LP over free variables: maximize objective·x on the HRep region.

    Free variables are split x = u - v with u, v >= 0 and inequalities get
    slack columns, then the standard-form solver runs.  Deterministic by
    Bland's rule.
    """
    d = len(objective)
    ineqs = constraints.inequalities
    eqs = constraints.equalities
    for a, _ in list(ineqs) + list(eqs):
        if len(a) != d:
            raise DimensionMismatchError("constraint dimension differs from objective")
    nslack = len(ineqs)
    width = 2 * d + nslack
    rows = []
    rhs = []
    for k, (a, bound) in enumerate(ineqs):
        row = [*a, *(-x for x in a)] + [0] * nslack
        row[2 * d + k] = 1
        rows.append(row)
        rhs.append(bound)
    for a, bound in eqs:
        rows.append([*a, *(-x for x in a)] + [0] * nslack)
        rhs.append(bound)
    obj = [*objective, *(-x for x in objective)] + [0] * nslack
    status, z, value = simplex_standard(rows, rhs, obj)
    if status != "optimal":
        return LPResult(status)
    point = tuple(z[j] - z[d + j] for j in range(d))
    return LPResult("optimal", point, value)


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


def _outside_box(p: Vec, points) -> bool:
    """Some coordinate of p lies strictly below or strictly above every
    point's, so p is outside the points' coordinate box and hence their hull.

    True for any p of positive length when there are no points.
    """
    return any(
        all(x < q[k] for q in points) or all(x > q[k] for q in points)
        for k, x in enumerate(p)
    )


def convex_weights(p: Vec, points: list[Vec]) -> list[Fraction] | None:
    """Weights mu >= 0, sum 1, with sum mu_j points_j = p; None if impossible.

    A p outside the points' coordinate box (`_outside_box`) gets None without
    an LP, the answer the LP would give; every other p is decided by one
    phase-1 LP, which also returns the weights.
    """
    d = len(p)
    for q in points:
        if len(q) != d:
            raise DimensionMismatchError("point dimension differs from target")
    if _outside_box(p, points):
        return None
    rows = [[q[k] for q in points] for k in range(d)]
    rows.append([1] * len(points))
    rhs = list(p) + [1]
    return feasible_nonneg(rows, rhs)


def membership(p: Vec, P: Polytope) -> bool:
    """Exact convex-hull membership: `convex_weights` finds weights, by one
    LP unless p lies outside the vertices' coordinate box."""
    if len(p) != P.ambient_dim:
        raise DimensionMismatchError("point and polytope dimension differ")
    return convex_weights(p, list(P.vertices)) is not None


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
    first occurrence.  The lexicographically least and greatest points are
    vertices of any finite set's hull, so they are kept without an LP.  Every
    other point gets one `convex_weights` test against the points still kept,
    which needs no LP when a coordinate of the point is strictly below or
    above all of theirs (such a point is a vertex).
    """
    if not points:
        raise ValueError("no points given")
    uniq: list[Vec] = []
    for p in points:
        if p not in uniq:
            uniq.append(p)
    if len(set(map(len, uniq))) > 1:
        raise DimensionMismatchError("points of mixed dimension")
    extremes = (min(uniq), max(uniq))
    kept = list(uniq)
    i = 0
    while i < len(kept):
        p = kept[i]
        if p not in extremes and convex_weights(p, kept[:i] + kept[i + 1:]) is not None:
            kept.pop(i)
        else:
            i += 1
    return kept


# ---------------------------------------------------------------------------
# V-representation <-> H-representation (desk scale)
# ---------------------------------------------------------------------------

# The largest ambient dimension V<->H conversion accepts; more raise
# CapExceededError.
DEFAULT_DIM_CAP = 6

# The most digits a number read as text (`frac`) may give its numerator or
# denominator, and the most decimal places the CLI writes: Python's default
# limit on int <-> str conversion, so what is read can be written back.
DIGIT_CAP = 4300


def _primitive(normal: Vec, bound: Fraction) -> tuple[Vec, Fraction]:
    """Scale an inequality by a positive rational to coprime integer entries."""
    mult = lcm(*(x.denominator for x in normal), bound.denominator)
    ints = [int(x * mult) for x in normal] + [int(bound * mult)]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])


def _affine_basis(points: list[Vec]) -> tuple[Vec, list[Vec], list[int]]:
    """Base point, RREF basis of the direction span, and its pivot columns."""
    base = points[0]
    diffs = [list(vsub(p, base)) for p in points[1:]]
    basis_rows, pivots = rref(diffs)
    return base, [tuple(r) for r in basis_rows], pivots


def _coords(p: Vec, base: Vec, basis: list[Vec], pivots: list[int]) -> Vec:
    """Coordinates of p in the affine frame (exact; asserts p lies in it)."""
    diff = vsub(p, base)
    t = tuple(diff[c] for c in pivots)
    recon = zero_vec(len(base))
    for tk, bk in zip(t, basis):
        recon = vadd(recon, vscale(tk, bk))
    if recon != diff:
        raise ValueError("point lies outside the affine hull")
    return t


def _tight_vertices(
    ineqs: list[tuple[Vec, Fraction]], k: int
) -> list[Vec] | None:
    """Vertices of the bounded region {y in R^k : a·y <= b for each row}.

    A vertex is a feasible point at which k linearly independent rows are
    tight, so every k-subset of the rows is solved as a square system and
    each unique solution that satisfies every row is kept, in no particular
    order.  Returns None when no subset gives a vertex, which for a bounded
    region means it is empty.
    """
    rows = list(dict.fromkeys(ineqs))
    found: set[Vec] = set()
    for subset in itertools.combinations(rows, k):
        sol = solve_linear([list(a) for a, _ in subset], [b for _, b in subset])
        if sol is None or sol[1]:
            continue
        y = sol[0]
        if y not in found and all(dot(a, y) <= b for a, b in rows):
            found.add(y)
    return list(found) or None


def vrep_to_hrep(P: Polytope) -> HRep:
    """Exact facet description of a vertex-represented polytope.

    Equalities pin the affine hull.  In the hull's coordinate frame, centred
    on the vertex centroid, each facet is a vertex y of the polar dual
    {y : q·y <= 1 for every shifted vertex q}; those are found by solving
    the k-subsets of the dual rows.  Every row is brought to primitive
    integers and the rows are sorted, so equal polytopes give equal HReps.
    Only sensible at desk scale, hence the ambient-dimension cap.
    """
    d = P.ambient_dim
    if d > DEFAULT_DIM_CAP:
        raise CapExceededError(f"ambient dimension {d} exceeds cap {DEFAULT_DIM_CAP}")
    base, basis, pivots = _affine_basis(list(P.vertices))
    k = len(basis)
    # Normals vanishing on the direction span pin the affine hull; for a
    # single point this degenerates to one equality per coordinate.
    eqs = [
        _primitive(w, dot(w, base))
        for w in nullspace([list(b) for b in basis], d)
    ]
    if k == 0:
        return HRep((), tuple(sorted(eqs)))

    ts = [_coords(v, base, basis, pivots) for v in P.vertices]
    centroid = tuple(
        sum((t[j] for t in ts), _ZERO) / len(ts) for j in range(k)
    )
    shifted = [vsub(t, centroid) for t in ts]
    dual_ineqs = [(q, _ONE) for q in shifted]
    dual_vertices = _tight_vertices(dual_ineqs, k)
    if not dual_vertices:
        raise InternalError("polar dual of a full-dimensional polytope has no vertex")
    ineqs = []
    for y in dual_vertices:
        normal = [_ZERO] * d
        for yk, c in zip(y, pivots):
            normal[c] = yk
        bound = _ONE + dot(y, centroid) + sum(
            (yk * base[c] for yk, c in zip(y, pivots)), _ZERO
        )
        ineqs.append(_primitive(tuple(normal), bound))
    ineqs.sort()
    return HRep(tuple(ineqs), tuple(sorted(eqs)))


def hrep_vertices(H: HRep) -> Polytope | None:
    """Exact vertex set of an H-represented polytope; None when empty.

    The equalities are eliminated by an exact parametrization of their
    solution space.  In that frame {t : A t <= b} is bounded iff rank A = k
    and some lambda >= 1 has A^T lambda = 0 (Stiemke's lemma), one phase-1
    LP; its vertices are then the feasible solutions of the k-subsets of
    rows.  Raises ValueError when the region is nonempty and unbounded.
    """
    if H.inequalities:
        d = len(H.inequalities[0][0])
    elif H.equalities:
        d = len(H.equalities[0][0])
    else:
        raise ValueError("empty H-representation")
    if d > DEFAULT_DIM_CAP:
        raise CapExceededError(f"ambient dimension {d} exceeds cap {DEFAULT_DIM_CAP}")

    if H.equalities:
        sol = solve_linear(
            [list(a) for a, _ in H.equalities], [b for _, b in H.equalities]
        )
        if sol is None:
            return None
        base, kernel = sol
    else:
        base, kernel = zero_vec(d), [
            tuple(_ONE if i == j else _ZERO for i in range(d)) for j in range(d)
        ]
    k = len(kernel)
    if k == 0:
        ok = all(dot(a, base) <= b for a, b in H.inequalities)
        return Polytope((base,)) if ok else None

    reduced: list[tuple[Vec, Fraction]] = []
    for a, b in H.inequalities:
        a_t = tuple(dot(a, kb) for kb in kernel)
        b_t = b - dot(a, base)
        if is_zero(a_t):
            if b_t < 0:
                return None
            continue
        reduced.append((a_t, b_t))
    # Rows of A^T; lambda = 1 + mu with mu >= 0 gives A^T mu = -A^T 1.
    cols = [list(c) for c in zip(*(a for a, _ in reduced))]
    if rank(cols) < k or feasible_nonneg(
        cols, [-sum(c, _ZERO) for c in cols]
    ) is None:
        if lp_solve(zero_vec(k), HRep(tuple(reduced))).status == "infeasible":
            return None
        raise ValueError("region is unbounded; expected a polytope")
    verts_t = _tight_vertices(reduced, k)
    if verts_t is None:
        return None
    verts = []
    for t in verts_t:
        x = base
        for tk, kb in zip(t, kernel):
            x = vadd(x, vscale(tk, kb))
        verts.append(x)
    return Polytope(tuple(sorted(verts)))


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
