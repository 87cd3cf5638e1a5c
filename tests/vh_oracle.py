"""Reference V<->H conversions: incremental double description by LPs, and
tight k-subsets of rows.

Two earlier ways `paretostar.geometry` converted between vertex and facet
descriptions are kept here as the oracles its integer double description
(`geometry._cone_rays`) is differential-tested against
(`tests/test_vh_kernel.py`): all must return the same `HRep` normal form and
the same sorted vertices.

* `_box_and_cut`: 2k bounding LPs, then one halfspace cut at a time with a
  `remove_redundant` pass after each.  `_primitive`, `_box_and_cut`,
  `vrep_to_hrep`, `hrep_vertices` and `intersect_polytopes` are kept
  verbatim, with their own ambient-dimension cap `DIM_CAP` = 6.  Their
  linear algebra is the `Fraction` elimination kept in `lp_oracle.py`, and
  their redundancy passes are the one-LP-per-point `remove_redundant` kept
  there.
* `_tight_vertices`: every k-subset of the rows solved as a square system,
  keeping the feasible solutions.  It is how the package enumerated
  vertices before double description, and it reaches hulls of dimension 6
  and 7 (seven and eight states), where `_box_and_cut` takes minutes.
  `subset_vertices` puts the bounding LPs of `_box_and_cut` in front of it,
  so it answers empty and unbounded regions as `_box_and_cut` does; pass it
  as `vertices_of`, and `_tight_vertices` as `dual_vertices_of`.

`vrep_to_hrep(P, dual_vertices_of=_tight_vertices)` is also the package's
conversion as it was before it moved to the vertices' integer frame: a
`Fraction` base vertex, the centroid of the offsets from it and the base
added back into every bound.
"""

import itertools
from fractions import Fraction
from math import gcd

from lp_oracle import _affine_basis, _coords, nullspace, remove_redundant, solve_linear
from paretostar.errors import CapExceededError
from paretostar.geometry import (
    HRep,
    Polytope,
    Vec,
    _echelon,
    dot,
    is_zero,
    lp_solve,
    vadd,
    vscale,
    vsub,
    zero_vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest ambient dimension the oracle accepts by default; more raise
# CapExceededError.
DIM_CAP = 6


def _primitive(normal: Vec, bound: Fraction) -> tuple[Vec, Fraction]:
    """Scale an inequality by a positive rational to coprime integer entries."""
    dens = [x.denominator for x in normal] + [bound.denominator]
    mult = 1
    for q in dens:
        mult = mult * q // gcd(mult, q)
    ints = [int(x * mult) for x in normal] + [int(bound * mult)]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])


def _box_and_cut(
    ineqs: list[tuple[Vec, Fraction]], k: int
) -> list[Vec] | None:
    """Vertices of the (bounded) region given by inequalities in R^k.

    Incremental double description: start from the exact bounding box and cut
    one halfspace at a time, keeping the generator set irredundant.  Returns
    None when the region is empty.
    """
    lo = []
    hi = []
    for j in range(k):
        e = tuple(_ONE if i == j else _ZERO for i in range(k))
        up = lp_solve(e, HRep(tuple(ineqs)))
        if up.status == "infeasible":
            return None
        if up.status == "unbounded":
            raise ValueError("region is unbounded; expected a polytope")
        down = lp_solve(tuple(-x for x in e), HRep(tuple(ineqs)))
        if down.status == "unbounded":
            raise ValueError("region is unbounded; expected a polytope")
        hi.append(up.value)
        lo.append(-down.value)
    corners = [tuple(c) for c in itertools.product(*([l, h] for l, h in zip(lo, hi)))]
    verts = remove_redundant(list(dict.fromkeys(corners)))
    for a, bound in ineqs:
        inside = [v for v in verts if dot(a, v) < bound]
        on = [v for v in verts if dot(a, v) == bound]
        out = [v for v in verts if dot(a, v) > bound]
        if not out:
            continue
        if not inside and not on:
            return None
        crossings = []
        for u in inside:
            au = dot(a, u)
            for w in out:
                s = (bound - au) / (dot(a, w) - au)
                crossings.append(vadd(u, vscale(s, vsub(w, u))))
        verts = remove_redundant(inside + on + crossings)
    return verts


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
        # The solution is unique iff the augmented system pivots on 0..k-1.
        mat, dens, pivots = _echelon([[*a, b] for a, b in subset])
        if pivots != list(range(k)):
            continue
        y = tuple(Fraction(row[k], q) for row, q in zip(mat, dens))
        if y not in found and all(dot(a, y) <= b for a, b in rows):
            found.add(y)
    return list(found) or None


def subset_vertices(
    ineqs: list[tuple[Vec, Fraction]], k: int
) -> list[Vec] | None:
    """`_tight_vertices` behind the bounding LPs of `_box_and_cut`: None when
    the region is empty, ValueError when it is unbounded."""
    for j in range(k):
        for sign in (_ONE, -_ONE):
            e = tuple(sign if i == j else _ZERO for i in range(k))
            status = lp_solve(e, HRep(tuple(ineqs))).status
            if status == "infeasible":
                return None
            if status == "unbounded":
                raise ValueError("region is unbounded; expected a polytope")
    return _tight_vertices(ineqs, k)


def vrep_to_hrep(
    P: Polytope, dim_cap: int = DIM_CAP, dual_vertices_of=_box_and_cut
) -> HRep:
    """Exact facet description of a vertex-represented polytope.

    Equalities pin the affine hull; facets are found by enumerating the
    vertices of the polar dual within the hull's coordinate frame.  Only
    sensible at desk scale, hence the ambient-dimension cap.
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
    dual_vertices = dual_vertices_of(dual_ineqs, k)
    assert dual_vertices, "polar dual of a full-dimensional polytope has vertices"
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


def hrep_vertices(
    H: HRep, dim_cap: int = DIM_CAP, vertices_of=_box_and_cut
) -> Polytope | None:
    """Exact vertex set of an H-represented polytope; None when empty.

    The equalities are eliminated by an exact parametrization of their
    solution space; the inequality system is then cut down from its bounding
    box in that frame.
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
    verts_t = vertices_of(reduced, k)
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
    polys: list[Polytope], dim_cap: int = DIM_CAP, vertices_of=_box_and_cut
) -> Polytope | None:
    """Exact intersection via stacked facet descriptions; None when empty."""
    if not polys:
        raise ValueError("nothing to intersect")
    ineqs: list[tuple[Vec, Fraction]] = []
    eqs: list[tuple[Vec, Fraction]] = []
    for P in polys:
        h = vrep_to_hrep(P, dim_cap, vertices_of)
        ineqs.extend(h.inequalities)
        eqs.extend(h.equalities)
    return hrep_vertices(HRep(tuple(ineqs), tuple(eqs)), dim_cap, vertices_of)
