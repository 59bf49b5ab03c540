"""Products, coproducts, counit, and antipode on loop-graph sums.

There is one star product.  On unmarked graphs, which are the planar binary
trees, it is the classical Loday-Ronco product of trees.  Its unit is the
bare leaf graph.
"""

from __future__ import annotations

from functools import lru_cache

from .freemodule import LinComb, Rational, bilinear_extend
from .loopgraphs import LEAF, LoopGraph, enumerate_graphs

# A GraphSum is a LinComb over LoopGraph basis elements.
GraphSum = LinComb

UNIT = LinComb.basis(LEAF)


@lru_cache(maxsize=None)
def star_h(t: LoopGraph, u: LoopGraph) -> GraphSum:
    """Loop-graph star product.

    Each factor decomposes through its root (looped or not) and recombines
    with the same kind of root:

        t * u = (t * u1) JOIN_u u2 + t1 JOIN_t (t2 * u)

    where JOIN_t / JOIN_u rebuild the root of t / u.  Order and genus are
    both additive on every summand.
    """
    if t.is_leaf:
        return LinComb.basis(u)
    if u.is_leaf:
        return LinComb.basis(t)
    first = star_h(t, u.left).map_basis(lambda s: LoopGraph(s, u.right, u.looped))
    second = star_h(t.right, u).map_basis(lambda s: LoopGraph(t.left, s, t.looped))
    return first + second


star_h_sum = bilinear_extend(star_h)


@lru_cache(maxsize=None)
def delta_h(t: LoopGraph) -> LinComb:
    """Coproduct of a basis graph, as a LinComb over pairs.

    The leaf is grouplike.  For t = a JOIN b the sum runs over all coproduct
    terms of both branches,

        delta(t) = sum (a' * b') (x) (a'' JOIN b'') + t (x) 1,

    which splits order and genus additively in every term.
    """
    if t.is_leaf:
        return LinComb.basis((LEAF, LEAF))
    out = [((t, LEAF), Rational(1))]
    for (a1, a2), ca in delta_h(t.left).items():
        for (b1, b2), cb in delta_h(t.right).items():
            joined = LoopGraph(a2, b2, t.looped)
            c = ca * cb
            for s, cs in star_h(a1, b1).items():
                out.append(((s, joined), c * cs))
    return LinComb(out)


def delta_h_sum(x: GraphSum) -> LinComb:
    return x.map_basis(delta_h)


def counit(x: GraphSum) -> Rational:
    """Coefficient of the unit graph."""
    return x.coeff(LEAF)


@lru_cache(maxsize=None)
def _antipode(t: LoopGraph) -> GraphSum:
    # Graded-connected recursion: S(t) = -t - sum S(a) * b over the reduced
    # coproduct terms a (x) b (both factors away from the unit).
    if t.is_leaf:
        return UNIT
    acc = LinComb.basis(t, -1)
    for (a, b), c in delta_h(t).items():
        if a.is_leaf or b.is_leaf:
            continue
        acc = acc - c * star_h_sum(_antipode(a), LinComb.basis(b))
    return acc


def antipode(x: GraphSum) -> GraphSum:
    """Antipode, extended linearly from basis graphs."""
    return x.map_basis(_antipode)


def graphs_of_total_order(m: int) -> list[LoopGraph]:
    """All basis graphs with order + genus equal to m."""
    out = []
    for n in range((m + 1) // 2, m + 1):
        out.extend(enumerate_graphs(n, m - n))
    return out


def graphs_up_to_total_order(m: int) -> list[LoopGraph]:
    out = []
    for k in range(m + 1):
        out.extend(graphs_of_total_order(k))
    return out


def _tensor_star(x: LinComb, y: LinComb) -> LinComb:
    # Componentwise product of 2-tensors: (a(x)b)(c(x)d) = (a*c)(x)(b*d).
    out = []
    for (a, b), c in x.items():
        for (d, e), f in y.items():
            coeff = c * f
            for s1, c1 in star_h(a, d).items():
                for s2, c2 in star_h(b, e).items():
                    out.append(((s1, s2), coeff * c1 * c2))
    return LinComb(out)


def _delta_left(t2: LinComb) -> LinComb:
    # (delta (x) id) on a 2-tensor, flattened to 3-tensors.
    out = []
    for (a, b), c in t2.items():
        for (x, y), d in delta_h(a).items():
            out.append(((x, y, b), c * d))
    return LinComb(out)


def _delta_right(t2: LinComb) -> LinComb:
    # (id (x) delta) on a 2-tensor, flattened to 3-tensors.
    out = []
    for (a, b), c in t2.items():
        for (x, y), d in delta_h(b).items():
            out.append(((a, x, y), c * d))
    return LinComb(out)


def check_axiom(axiom: str, max_total_order: int):
    """Exhaustively check one Hopf axiom over basis graphs.

    The bound limits the sum of the total orders of the inputs.  Returns
    None on success, otherwise the first counterexample (a tuple of basis
    graphs).
    """
    m = max_total_order
    basis = graphs_up_to_total_order(m)

    if axiom == "assoc":
        for x in basis:
            for y in basis:
                if x.total_order + y.total_order > m:
                    continue
                xy = star_h(x, y)
                for z in basis:
                    if x.total_order + y.total_order + z.total_order > m:
                        continue
                    lhs = star_h_sum(xy, LinComb.basis(z))
                    rhs = star_h_sum(LinComb.basis(x), star_h(y, z))
                    if lhs != rhs:
                        return (x, y, z)
        return None

    if axiom == "coassoc":
        for t in basis:
            d = delta_h(t)
            if _delta_left(d) != _delta_right(d):
                return (t,)
        return None

    if axiom == "compat":
        for x in basis:
            for y in basis:
                if x.total_order + y.total_order > m:
                    continue
                lhs = delta_h_sum(star_h(x, y))
                rhs = _tensor_star(delta_h(x), delta_h(y))
                if lhs != rhs:
                    return (x, y)
        return None

    if axiom == "counit":
        for t in basis:
            d = delta_h(t)
            left = LinComb(
                ((b, c * counit(LinComb.basis(a))) for (a, b), c in d.items())
            )
            right = LinComb(
                ((a, c * counit(LinComb.basis(b))) for (a, b), c in d.items())
            )
            if left != LinComb.basis(t) or right != LinComb.basis(t):
                return (t,)
        return None

    if axiom == "antipode":
        for t in basis:
            d = delta_h(t)
            left = LinComb.zero()
            right = LinComb.zero()
            for (a, b), c in d.items():
                left = left + c * star_h_sum(_antipode(a), LinComb.basis(b))
                right = right + c * star_h_sum(LinComb.basis(a), _antipode(b))
            expected = counit(LinComb.basis(t)) * UNIT
            if left != expected or right != expected:
                return (t,)
        return None

    raise ValueError(f"unknown axiom {axiom!r}")
