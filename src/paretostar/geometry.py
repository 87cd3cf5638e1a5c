"""Exact rational linear algebra, polytopes in the probability simplex, and LP.

Everything in this module is exact rational arithmetic; there are no
tolerances and no floating point anywhere.  Values in and out are
`fractions.Fraction`s.  The simplex pivots an integer tableau over one
positive common denominator and builds `Fraction`s only for the point and
value it returns.  Strict conditions ("is there a point strictly on one
side?") are decided by margin-maximization LPs: the strict system is
feasible iff the optimal margin is positive, which is an exact comparison.

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
from math import gcd, lcm

from .errors import CapExceededError, DimensionMismatchError

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce int / Fraction / numeric string ("0.2", "3/7") to Fraction.

    Floats are rejected: they carry binary rounding error and would silently
    break the exactness guarantee.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            "refusing to convert float %r: pass a string or Fraction for exactness" % (x,)
        )
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def vec(entries) -> Vec:
    v = tuple(frac(x) for x in entries)
    if not v:
        raise ValueError("vectors must have positive length")
    return v


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


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
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = _ONE / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list[Fraction]], width: int) -> list[Vec]:
    """Basis of {x : R x = 0} for the row system, one vector per free column."""
    red, pivots = rref(rows)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        x = [_ZERO] * width
        x[f] = _ONE
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(tuple(x))
    return basis


def solve_linear(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[Vec, list[Vec]] | None:
    """Solve R x = rhs exactly.

    Returns (particular solution with free variables at 0, homogeneous basis),
    or None when the system is inconsistent.
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
    return tuple(x), nullspace(rows, width)


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


def _pivot(tab, basis, d, row, col):
    """Pivot on tab[row][col] and return the new common denominator.

    Every row of `tab` (the constraint rows with their rhs as last entry, then
    the reduced-cost row) holds integers over the positive common denominator
    `d`.  Integer-preserving update (Edmonds 1967; Bareiss 1968): every other
    row becomes (p*a - f*r) // d, an exact division; the pivot row stays as it
    is and the pivot p becomes the denominator.  A negative p negates every
    row, so the denominator stays positive and signs keep their meaning.
    """
    pr = tab[row]
    p = pr[col]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [(p * a - f * b) // d for a, b in zip(r, pr)]
        elif p != d:
            tab[i] = [p * a // d for a in r]
    basis[row] = col
    if p < 0:
        tab[:] = [[-a for a in r] for r in tab]
        return -p
    return p


def _bland_loop(tab, basis, d, n):
    """Maximize until no structural column has positive reduced cost.

    Returns ("optimal" | "unbounded", denominator).  Bland's rule: entering =
    smallest eligible column index, leaving = smallest basis index among
    ratio ties.  Ratios rhs/coef are compared by cross-multiplication; both
    sides share the denominator, which cancels.
    """
    while True:
        zrow = tab[-1]
        enter = next((j for j in range(n) if zrow[j] > 0), None)
        if enter is None:
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
        d = _pivot(tab, basis, d, best, enter)


def simplex_standard(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective·z subject to rows·z = rhs, z >= 0 (exact, two-phase).

    The tableau is kept in integers over one common denominator.  Rows with a
    negative rhs are negated, then every row and the rhs are multiplied by
    the lcm of all their denominators: one scale for all rows, so the
    phase-1 reduced costs keep their signs and Bland's rule picks the pivots
    a `Fraction` tableau would.  Only the returned point and value are
    `Fraction`s.
    """
    m = len(rows)
    n = len(objective)
    if len(rhs) != m:
        raise DimensionMismatchError("rhs length differs from the number of rows")
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError("constraint width differs from objective length")
    scale = lcm(*{x.denominator for r in rows for x in r}, *{b.denominator for b in rhs})
    tab = []
    for r, b in zip(rows, rhs):
        s = -scale if b < 0 else scale
        tab.append([s * x.numerator // x.denominator for x in (*r, b)])

    # Phase 1 drives the sum of one artificial per row to zero.  Artificial
    # columns never enter, so only their basis indices are kept.
    basis = [n + i for i in range(m)]
    tab.append([sum(c) for c in zip(*tab)] if m else [0] * (n + 1))
    _, d = _bland_loop(tab, basis, 1, n)
    tab.pop()
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None

    # Pivot surviving artificials out; rows that cannot pivot are redundant.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                continue
            d = _pivot(tab, basis, d, i, col)
        keep.append(i)
    if len(keep) < m:
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2 with the real objective, scaled to integers.
    oscale = lcm(*{c.denominator for c in objective})
    obj = [oscale * c.numerator // c.denominator for c in objective]
    zrow = [d * c for c in obj] + [0]
    for r, bi in zip(tab, basis):
        f = obj[bi]
        if f:
            zrow = [z - f * a for z, a in zip(zrow, r)]
    tab.append(zrow)
    status, d = _bland_loop(tab, basis, d, n)
    if status == "unbounded":
        return "unbounded", None, None
    z = [_ZERO] * n
    for r, bi in zip(tab, basis):
        z[bi] = Fraction(r[-1], d)
    value = Fraction(sum(obj[bi] * r[-1] for r, bi in zip(tab, basis)), oscale * d)
    return "optimal", z, value


def feasible_nonneg(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Some z >= 0 with rows·z = rhs, or None. Phase 1 of the simplex only."""
    n = len(rows[0]) if rows else 0
    status, z, _ = simplex_standard(rows, rhs, [_ZERO] * n)
    return z if status == "optimal" else None


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
        row = [*a, *(-x for x in a)] + [_ZERO] * nslack
        row[2 * d + k] = _ONE
        rows.append(row)
        rhs.append(bound)
    for a, bound in eqs:
        rows.append([*a, *(-x for x in a)] + [_ZERO] * nslack)
        rhs.append(bound)
    obj = [*objective, *(-x for x in objective)] + [_ZERO] * nslack
    status, z, value = simplex_standard(rows, rhs, obj)
    if status != "optimal":
        return LPResult(status)
    point = tuple(z[j] - z[d + j] for j in range(d))
    return LPResult("optimal", point, value)


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

    def contains(self, p: Vec) -> bool:
        return membership(p, self)

    def is_singleton(self) -> bool:
        return len(self.vertices) == 1


def convex_weights(p: Vec, points: list[Vec]) -> list[Fraction] | None:
    """Weights mu >= 0, sum 1, with sum mu_j points_j = p; None if impossible."""
    d = len(p)
    for q in points:
        if len(q) != d:
            raise DimensionMismatchError("point dimension differs from target")
    rows = [[q[k] for q in points] for k in range(d)]
    rows.append([_ONE] * len(points))
    rhs = list(p) + [_ONE]
    return feasible_nonneg(rows, rhs)


def membership(p: Vec, P: Polytope) -> bool:
    """Exact convex-hull membership, decided by LP feasibility."""
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


def argmax_vertex(P: Polytope, direction: Vec) -> Vec:
    """First vertex (in canonical order) attaining the support value."""
    best = support(P, direction)
    return next(v for v in P.vertices if dot(direction, v) == best)


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
    # Variables (lam_1..lam_d, kappa, t).
    ineqs: list[tuple[Vec, Fraction]] = []
    for v in points:
        ineqs.append((tuple([*(-x for x in v), _ONE, _ONE]), _ZERO))
    for w in P.vertices:
        ineqs.append((tuple([*w, -_ONE, _ONE]), _ZERO))
    for j in range(d):
        e = [_ZERO] * (d + 2)
        e[j] = _ONE
        ineqs.append((tuple(e), _ONE))
        e2 = [_ZERO] * (d + 2)
        e2[j] = -_ONE
        ineqs.append((tuple(e2), _ONE))
    objective = tuple([_ZERO] * (d + 1) + [_ONE])
    res = lp_solve(objective, HRep(tuple(ineqs)))
    if res.status != "optimal" or res.value <= 0:
        return None
    lam = res.point[:d]
    kappa = res.point[d]
    h = Hyperplane(lam, kappa)
    # Re-checked by direct evaluation in every run mode, python -O included.
    if not (
        all(h.value(v) > kappa for v in points)
        and all(h.value(w) < kappa for w in P.vertices)
    ):
        raise RuntimeError(f"LP separator {h} does not strictly separate the point sets")
    return h


def remove_redundant(points: list[Vec]) -> list[Vec]:
    """Minimal subset with the same convex hull (the exact vertex set).

    Input order of the survivors is preserved; duplicates collapse to their
    first occurrence.
    """
    if not points:
        raise ValueError("no points given")
    uniq: list[Vec] = []
    for p in points:
        if p not in uniq:
            uniq.append(p)
    if len(uniq) == 1:
        return uniq
    kept = list(uniq)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if convex_weights(kept[i], others) is not None:
            kept.pop(i)
        else:
            i += 1
    return kept


# ---------------------------------------------------------------------------
# V-representation <-> H-representation (desk scale)
# ---------------------------------------------------------------------------

DEFAULT_DIM_CAP = 6


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


def vrep_to_hrep(P: Polytope, dim_cap: int = DEFAULT_DIM_CAP) -> HRep:
    """Exact facet description of a vertex-represented polytope.

    Equalities pin the affine hull.  In the hull's coordinate frame, centred
    on the vertex centroid, each facet is a vertex y of the polar dual
    {y : q·y <= 1 for every shifted vertex q}; those are found by solving
    the k-subsets of the dual rows.  Every row is brought to primitive
    integers and the rows are sorted, so equal polytopes give equal HReps.
    Only sensible at desk scale, hence the ambient-dimension cap.
    """
    d = P.ambient_dim
    if d > dim_cap:
        raise CapExceededError(f"ambient dimension {d} exceeds cap {dim_cap}")
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
        raise RuntimeError("polar dual of a full-dimensional polytope has no vertex")
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


def hrep_vertices(H: HRep, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope | None:
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
    if d > dim_cap:
        raise CapExceededError(f"ambient dimension {d} exceeds cap {dim_cap}")

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


def intersect_polytopes(
    polys: list[Polytope], dim_cap: int = DEFAULT_DIM_CAP
) -> Polytope | None:
    """Exact intersection via stacked facet descriptions; None when empty."""
    if not polys:
        raise ValueError("nothing to intersect")
    ineqs: list[tuple[Vec, Fraction]] = []
    eqs: list[tuple[Vec, Fraction]] = []
    for P in polys:
        h = vrep_to_hrep(P, dim_cap)
        ineqs.extend(h.inequalities)
        eqs.extend(h.equalities)
    return hrep_vertices(HRep(tuple(ineqs), tuple(eqs)), dim_cap)
