"""Reference LP routes kept as oracles for the differential tests.

`simplex_standard` is the solver `paretostar.geometry` used before its
tableau kernel moved to integer-preserving pivots.  It is kept verbatim as
the oracle the new kernel is differential-tested against
(`tests/test_lp_kernel.py`): both must return the same `(status, z, value)`
on every LP, because Bland's rule makes the same choices on either
representation.

`exchange_star_prior` and `support_decompose_alpha` are the margin LPs of
`axioms._exchange_star_prior` and of the support branch of
`characterizations.utilitarian_decompose` as they were written over
`lp_solve` (free variables split u - v, explicit -x <= 0 rows), before both
moved to `geometry.max_margin`.  They are kept verbatim
(`tests/test_margin_lp.py`).

`separate` and `check_c_minimal_agreement` are those two functions as they
built their box-bounded margin LPs row by row before both moved to
`geometry.box_margin` (`check_c_minimal_agreement` without its
`lru_cache`).  `unique_decomposition` is `characterizations.
_unique_decomposition`, the linear solve thm1 used for its taste weights
before it moved to `utilitarian_decompose`.  All three are kept verbatim
(`tests/test_margin_lp.py`, `tests/test_characterizations.py`).
"""

from fractions import Fraction

from paretostar.characterizations import Decomposition, _society
from paretostar.errors import DimensionMismatchError, InternalError
from paretostar.geometry import (
    HRep,
    Hyperplane,
    Polytope,
    Vec,
    dot,
    lp_solve,
    solve_linear,
    zero_vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """The alpha of `utilitarian_decompose(prof, support_constraint)`."""
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
    beta = soc.utility.constant - sum(
        (a * ag.utility.constant for a, ag in zip(alpha, prof.agents)), _ZERO
    )
    return Decomposition(tuple(alpha), beta)
