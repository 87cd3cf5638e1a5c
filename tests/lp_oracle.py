"""Reference two-phase simplex on a `Fraction` tableau.

This is the solver `paretostar.geometry` used before its tableau kernel moved
to integer-preserving pivots.  It is kept verbatim as the oracle the new
kernel is differential-tested against (`tests/test_lp_kernel.py`): both must
return the same `(status, z, value)` on every LP, because Bland's rule makes
the same choices on either representation.
"""

from fractions import Fraction

from paretostar.errors import DimensionMismatchError

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
