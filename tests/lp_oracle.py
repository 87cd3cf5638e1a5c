"""Reference LP routes kept as oracles for the differential tests.

`simplex_standard` is the solver `paretostar.geometry` used before its
tableau kernel moved to integer-preserving pivots.  It is kept verbatim as
the oracle the new kernel is differential-tested against
(`tests/test_lp_kernel.py`): both must return the same `(status, z, value)`
on every LP, because Bland's rule makes the same choices on either
representation.

`exchange_star_prior` and `support_decompose_alpha` are the margin LPs of
`axioms._exchange_star_prior` and of the support-constrained branch that
`characterizations.utilitarian_decompose` once had, as they were written
over `lp_solve` (free variables split u - v, explicit -x <= 0 rows).  They
are kept verbatim (`tests/test_margin_lp.py`, and the eq1 oracle below).

`separate` and `check_c_minimal_agreement` are those two functions as they
built their box-bounded margin LPs row by row before both moved to
`geometry.box_margin` (`check_c_minimal_agreement` without its
`lru_cache`).  `unique_decomposition` is `characterizations.
_unique_decomposition`, the linear solve thm1 used for its taste weights
before it moved to `utilitarian_decompose`.  All three are kept verbatim
(`tests/test_margin_lp.py`, `tests/test_characterizations.py`).

`check_eq1_dght1` is `characterizations.check_eq1_dght1` as it solved one
support-constrained decomposition LP for every nonempty set of agents
(`_subsets`, by size, then lexicographically), 2**n - 1 of them, and
computed an agent's hull weights again for every support containing the
agent.  The package now decides eq1 with one LP over the agents whose belief
sets contain the social one; the subset loop is kept as the oracle its
verdicts are compared with (`tests/test_characterizations.py`), each support
decided by `support_decompose_alpha`, so it shares no LP with the package.

`remove_redundant` is `geometry.remove_redundant` as it solved one
`convex_weights` LP per point, before it kept the lexicographically least
and greatest points without one and read the vertices of a line or a plane
off integer cross products.  It is the oracle for both of the package's
routes.  It and `convex_weights` are kept verbatim;
`feasible_nonneg` runs them on this module's `simplex_standard`
(`tests/test_lp_kernel.py`, and the redundancy passes of `vh_oracle.py`).

`check_corollary2` is `characterizations.check_corollary2` as it decided
clause (b) with two passes of hull-membership LPs (the social set inside the
shared one, then the shared one inside the social set), before it compared
the canonical vertex tuples; kept verbatim, on this module's `separate`
(`tests/test_characterizations.py`).

`check_seu_existence` is `characterizations.check_seu_existence` as it
built one joint LP over every vertex combo of the product, before it kept
only the combos that label a vertex of the Minkowski sum.  It is kept
verbatim as the oracle the labelled LP's priors are compared with
(`tests/test_characterizations.py`).  What it checks is the choice of
combos, not the kernel, so it solves its LP on the package's
`geometry.feasible_nonneg`, its rows cleared to integers by
`helpers.cleared_lp`: this module's `Fraction` simplex would take seconds on
each product LP of the sweep, and the two kernels are compared LP by LP in
`tests/test_lp_kernel.py`.

`combo_meets` is `characterizations.combo_meets` as it built its rows from
`Fraction` entries (P0's vertices negated) and let the simplex find the
common denominator, before it built integer rows over one L itself.  It is
kept verbatim and runs on this module's `simplex_standard`, so the two
share no LP code (`tests/test_characterizations.py`).

`rref`, `rank`, `_kernel`, `nullspace`, `solve_linear`, `_affine_basis` and
`_coords` are the `Fraction` Gauss-Jordan routines `geometry` used before
its elimination moved onto the simplex's integer pivot (`geometry._echelon`,
whose integer rows every caller now reads; `rref` and `solve_linear` have
no copy left in the package).  They are kept verbatim so the oracles here,
in `vh_oracle.py` and in `act_oracle.py` do not share the kernel they check
(`tests/test_lp_kernel.py`).
"""

import itertools
from fractions import Fraction

from helpers import cleared_lp
from paretostar.characterizations import (
    ConditionReport,
    Decomposition,
    _hull_weights,
    _society,
    enumerate_combos,
)
from paretostar import geometry
from paretostar.errors import DimensionMismatchError, InternalError
from paretostar.geometry import (
    HRep,
    Hyperplane,
    Polytope,
    Vec,
    dot,
    intersect_polytopes,
    lp_solve,
    vadd,
    vscale,
    vsub,
    zero_vec,
)
from paretostar.preferences import Profile

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _pivot(tab, rhs, basis, zrow, row, col):
    piv = tab[row][col]
    inv = _ONE / piv
    tab[row] = [x * inv for x in tab[row]]
    rhs[row] *= inv
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
            rhs[i] -= f * rhs[row]
    if zrow[col] != 0:
        f = zrow[col]
        for j in range(len(zrow)):
            zrow[j] -= f * tab[row][j]
    basis[row] = col


def _bland_loop(tab, rhs, basis, zrow, allowed):
    """Maximize until no allowed column has positive reduced cost.

    Returns "optimal" or "unbounded". Bland's rule: entering = smallest
    eligible column index, leaving = smallest basis index among ratio ties.
    """
    while True:
        enter = next((j for j in allowed if zrow[j] > 0), None)
        if enter is None:
            return "optimal"
        best = None
        for i in range(len(tab)):
            coef = tab[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return "unbounded"
        _pivot(tab, rhs, basis, zrow, best[2], enter)


def simplex_standard(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective·z subject to rows·z = rhs, z >= 0 (exact, two-phase)."""
    m = len(rows)
    n = len(objective)
    tab = [list(r) for r in rows]
    b = list(rhs)
    for i in range(m):
        if len(tab[i]) != n:
            raise DimensionMismatchError("constraint width differs from objective length")
        if b[i] < 0:
            tab[i] = [-x for x in tab[i]]
            b[i] = -b[i]

    # Phase 1: one artificial column per row, drive their sum to zero.
    for i in range(m):
        tab[i] += [_ONE if j == i else _ZERO for j in range(m)]
    basis = [n + i for i in range(m)]
    zrow = [sum(tab[i][j] for i in range(m)) for j in range(n)] + [_ZERO] * m
    _bland_loop(tab, b, basis, zrow, range(n))
    if sum(b[i] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None

    # Pivot surviving artificials out; rows that cannot pivot are redundant.
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, b, basis, zrow, i, col)
    if drop:
        tab = [tab[i] for i in range(m) if i not in drop]
        b = [b[i] for i in range(m) if i not in drop]
        basis = [basis[i] for i in range(m) if i not in drop]

    tab = [row[:n] for row in tab]

    # Phase 2 with the real objective.
    zrow = list(objective)
    zval = _ZERO
    for i, bi in enumerate(basis):
        if objective[bi] != 0:
            f = objective[bi]
            for j in range(n):
                zrow[j] -= f * tab[i][j]
            zval += f * b[i]
    status = _bland_loop(tab, b, basis, zrow, range(n))
    if status == "unbounded":
        return "unbounded", None, None
    z = [_ZERO] * n
    for i, bi in enumerate(basis):
        z[bi] = b[i]
    value = sum((objective[j] * z[j] for j in range(n)), _ZERO)
    return "optimal", z, value


def feasible_nonneg(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Some z >= 0 with rows·z = rhs, or None. Phase 1 of the simplex only.

    The entries are made `Fraction`s first: this module's simplex divides
    them with `/`, which on two ints would give a float.
    """
    n = len(rows[0]) if rows else 0
    rows = [[Fraction(x) for x in r] for r in rows]
    status, z, _ = simplex_standard(rows, [Fraction(x) for x in rhs], [_ZERO] * n)
    return z if status == "optimal" else None


def convex_weights(p: Vec, points: list[Vec]) -> list[Fraction] | None:
    """Weights mu >= 0, sum 1, with sum mu_j points_j = p; None if impossible."""
    d = len(p)
    for q in points:
        if len(q) != d:
            raise DimensionMismatchError("point dimension differs from target")
    rows = [[q[k] for q in points] for k in range(d)]
    rows.append([1] * len(points))
    rhs = list(p) + [1]
    return feasible_nonneg(rows, rhs)


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


def exchange_star_prior(agent_diffs: list[Vec], holder) -> tuple[Vec, Fraction] | None:
    """A prior in the holder's belief set that strictly favors g for every taste.

    Margin LP over the hull: variables are hull weights mu plus the margin t;
    maximize t subject to sum_v mu_v * diff_i(v) >= t for every taste i.
    """
    verts = holder.beliefs.vertices
    nv = len(verts)
    # Variables (mu_1..mu_nv, t).
    ineqs: list[tuple[Vec, Fraction]] = []
    for diff in agent_diffs:
        row = [-dot(v, diff) for v in verts] + [_ONE]
        ineqs.append((tuple(row), _ZERO))
    for j in range(nv):
        e = [_ZERO] * (nv + 1)
        e[j] = -_ONE
        ineqs.append((tuple(e), _ZERO))
    eqs = [(tuple([_ONE] * nv + [_ZERO]), _ONE)]
    res = lp_solve(tuple([_ZERO] * nv + [_ONE]), HRep(tuple(ineqs), tuple(eqs)))
    if res.status != "optimal" or res.value <= 0:
        return None
    mu = res.point[:nv]
    prior = tuple(
        sum((mu[j] * verts[j][s] for j in range(nv)), _ZERO)
        for s in range(len(verts[0]))
    )
    return prior, res.value


def support_decompose_alpha(prof, support_constraint) -> tuple[Fraction, ...] | None:
    """A decomposition's alpha with every weight in `support_constraint`
    strictly positive and every other weight zero (maximizing their common
    lower bound, capped at 1), or None."""
    soc = prof.society
    d = prof.outcome_dim
    n = prof.n
    members = sorted(support_constraint)
    if not members:
        return None
    # Variables (alpha_i for i in members, t): maximize t, alpha_i >= t.
    nm = len(members)
    ineqs: list[tuple[Vec, Fraction]] = []
    for j in range(nm):
        row = [_ZERO] * (nm + 1)
        row[j] = -_ONE
        row[nm] = _ONE
        ineqs.append((tuple(row), _ZERO))
        row2 = [_ZERO] * (nm + 1)
        row2[j] = -_ONE
        ineqs.append((tuple(row2), _ZERO))
    cap_row = [_ZERO] * (nm + 1)
    cap_row[nm] = _ONE
    ineqs.append((tuple(cap_row), _ONE))
    eqs = []
    for k in range(d):
        row = [prof.agents[i].utility.coeffs[k] for i in members] + [_ZERO]
        eqs.append((tuple(row), soc.utility.coeffs[k]))
    res = lp_solve(tuple([_ZERO] * nm + [_ONE]), HRep(tuple(ineqs), tuple(eqs)))
    if res.status != "optimal" or res.value <= 0:
        return None
    alpha_list = [_ZERO] * n
    for j, i in enumerate(members):
        alpha_list[i] = res.point[j]
    return tuple(alpha_list)


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
        raise InternalError(f"LP separator {h} does not strictly separate the point sets")
    return h


def check_c_minimal_agreement(prof) -> tuple[Vec, Vec] | None:
    """A pair (x_star, x_low) every agent strictly prefers in that order.

    Found by maximizing the worst agent's gain along a direction in the
    [-1, 1] box; a pair exists iff the optimal margin is positive.
    """
    d = prof.outcome_dim
    ineqs: list[tuple[Vec, Fraction]] = []
    # Variables (delta_1..delta_d, t): maximize t s.t. coeffs_i·delta >= t.
    for a in prof.agents:
        ineqs.append((tuple([*(-c for c in a.utility.coeffs), _ONE]), _ZERO))
    for j in range(d):
        e = [_ZERO] * (d + 1)
        e[j] = _ONE
        ineqs.append((tuple(e), _ONE))
        e2 = [_ZERO] * (d + 1)
        e2[j] = -_ONE
        ineqs.append((tuple(e2), _ONE))
    res = lp_solve(tuple([_ZERO] * d + [_ONE]), HRep(tuple(ineqs)))
    if res.status != "optimal" or res.value <= 0:
        return None
    direction = res.point[:d]
    return direction, zero_vec(d)


def unique_decomposition(prof) -> Decomposition | None:
    """The only candidate alpha when agent gradients are linearly independent."""
    soc = _society(prof)
    d = prof.outcome_dim
    rows = [[a.utility.coeffs[k] for a in prof.agents] for k in range(d)]
    rhs = [soc.utility.coeffs[k] for k in range(d)]
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    alpha, kernel = sol
    if kernel:
        raise InternalError("independent gradients leave no degrees of freedom")
    if any(a < 0 for a in alpha) or all(a == 0 for a in alpha):
        return None
    return _with_beta(prof, alpha)


def _with_beta(prof, alpha) -> Decomposition:
    beta = prof.society.utility.constant - sum(
        (a * ag.utility.constant for a, ag in zip(alpha, prof.agents)), _ZERO
    )
    return Decomposition(tuple(alpha), beta)


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def check_eq1_dght1(prof: Profile) -> ConditionReport:
    """Some decomposition puts its support inside agents whose belief sets all
    contain the social one (vertex memberships, enumerated over supports)."""
    soc = _society(prof)
    tried = []
    for M in _subsets(prof.n):
        alpha = support_decompose_alpha(prof, M)
        if alpha is None:
            continue
        dec = _with_beta(prof, alpha)
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


def check_corollary2(prof: Profile) -> ConditionReport:
    """(a) the exact intersection of agent beliefs sits inside P0;
    (b) when all agents share one belief set, P0 equals it (mutual inclusion)."""
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


def check_seu_existence(belief_sets: list[Polytope]) -> Vec | None:
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
    combos = list(enumerate_combos(belief_sets))
    nvars = m + n * len(combos)
    rows = []
    rhs = []
    for c_idx, combo in enumerate(combos):
        off = m + n * c_idx
        for s in range(m):
            row = [0] * nvars
            row[s] = -1
            for i in range(n):
                row[off + i] = combo[i][s]
            rows.append(row)
            rhs.append(0)
        row = [0] * nvars
        for i in range(n):
            row[off + i] = 1
        rows.append(row)
        rhs.append(1)
    ints, ints_rhs, _, _ = cleared_lp(rows, rhs, [])
    z = geometry.feasible_nonneg(ints, ints_rhs)
    if z is None:
        return None
    return tuple(z[:m])


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
    rows.append([1] * n + [0] * len(w))
    rows.append([0] * n + [1] * len(w))
    z = feasible_nonneg(rows, [0] * m + [1, 1])
    if z is None:
        return None
    return tuple(z[:n]), tuple(z[n:])
