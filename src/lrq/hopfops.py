"""Products, coproducts, counit, and antipode on loop-graph sums.

There is one star product.  On unmarked graphs, which are the planar binary
trees, it is the classical Loday-Ronco product of trees.  Its unit is the
bare leaf graph.
"""

from __future__ import annotations

from functools import lru_cache

from .freemodule import LinComb, add_bilinear, bilinear_extend
from .loopgraphs import LEAF, LoopGraph, enumerate_graphs, with_slots

# Largest total order `check_axiom` accepts: on a 2-core x86-64 VM (Python
# 3.11.7, three cold runs each) the slowest axiom there, antipode, takes 0.6
# to 0.8 s at 25 MiB; at total order 8 antipode takes 9 to 12 s at 83 MiB,
# and each other axiom under 3 s at under 50 MiB.
MAX_AXIOM_ORDER = 7

UNIT = LinComb.basis(LEAF)


@lru_cache(maxsize=None)
def star_h(t: LoopGraph, u: LoopGraph) -> LinComb:
    """Loop-graph star product.

    On trees it is the Loday-Ronco recursion: each factor decomposes
    through its root and recombines with the same root,

        t * u = (t * u1) v u2 + t1 v (t2 * u).

    On graphs it is the product of the two shapes with the masks
    concatenated, (b) of `lrq.complexes`: every term s of the tree product
    carries the mask t.slots | u.slots << t.order.  Order and genus are
    both additive on every summand.
    """
    if t.is_leaf:
        return LinComb.basis(u)
    if u.is_leaf:
        return LinComb.basis(t)
    if t.slots or u.slots:
        mask = t.slots | u.slots << t.order
        shapes = star_h(with_slots(t, 0), with_slots(u, 0))
        return shapes.map_basis(lambda s: with_slots(s, mask))
    first = star_h(t, u.left).map_basis(lambda s: LoopGraph(s, u.right))
    second = star_h(t.right, u).map_basis(lambda s: LoopGraph(t.left, s))
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
    out = [((t, LEAF), 1)]
    for (a1, a2), ca in delta_h(t.left).items():
        for (b1, b2), cb in delta_h(t.right).items():
            joined = LoopGraph(a2, b2, t.looped)
            c = ca * cb
            for s, cs in star_h(a1, b1).items():
                out.append(((s, joined), c * cs))
    return LinComb(out)


def delta_h_sum(x: LinComb) -> LinComb:
    return x.map_basis(delta_h)


def counit(x: LinComb):
    """Coefficient of the unit graph (an int, or a Fraction if x has one)."""
    return x.coeff(LEAF)


@lru_cache(maxsize=None)
def _antipode(t: LoopGraph) -> LinComb:
    # Graded-connected recursion: S(t) = -t - sum S(a) * b over the reduced
    # coproduct terms a (x) b (both factors away from the unit).
    if t.is_leaf:
        return UNIT
    acc = {t: -1}
    for (a, b), c in delta_h(t).items():
        if a.is_leaf or b.is_leaf:
            continue
        add_bilinear(acc, star_h, _antipode(a).items(), ((b, 1),), -c)
    return LinComb.of_dict(acc)


def antipode(x: LinComb) -> LinComb:
    """Antipode, extended linearly from basis graphs."""
    return x.map_basis(_antipode)


def graphs_up_to_total_order(m: int) -> list[LoopGraph]:
    """All basis graphs with order + genus at most m, by total order."""
    return [t for k in range(m + 1) for n in range((k + 1) // 2, k + 1)
            for t in enumerate_graphs(n, k - n)]


def bounded_tuples(basis: list[LoopGraph], k: int, m: int):
    """The k-tuples of graphs of `basis`, which is ordered by total order,
    whose total orders sum to at most m: the first factor running over
    `basis`, then the second, and so on, each bounded by the total order
    still left."""
    if not k:
        yield ()
        return
    for x in basis:
        if x.total_order > m:
            break
        for rest in bounded_tuples(basis, k - 1, m - x.total_order):
            yield (x, *rest)


def first_counterexample(sides, tuples):
    """The first tuple whose two sides, `sides(*xs)`, differ, or None."""
    for xs in tuples:
        lhs, rhs = sides(*xs)
        if lhs != rhs:
            return xs
    return None


def tensor_star(x: LinComb, y: LinComb) -> LinComb:
    """Componentwise product of 2-tensors: (a(x)b)(c(x)d) = (a*c)(x)(b*d)."""
    acc: dict = {}
    get = acc.get
    for (a, b), c in x.items():
        for (d, e), f in y.items():
            right = star_h(b, e).items()
            for s1, c1 in star_h(a, d).items():
                k = c * f * c1
                for s2, c2 in right:
                    key = (s1, s2)
                    acc[key] = get(key, 0) + k * c2
    return LinComb.of_dict(acc)


# Each Hopf law as its arity and its two sides on one tuple of basis graphs.


def _assoc(x, y, z):
    # (xy)z = x(yz)
    return (star_h_sum(star_h(x, y), LinComb.basis(z)),
            star_h_sum(LinComb.basis(x), star_h(y, z)))


def _coassoc(t):
    # (delta (x) id) delta = (id (x) delta) delta, as 3-tensors
    left: dict = {}
    right: dict = {}
    for (a, b), c in delta_h(t).items():
        for (x, y), e in delta_h(a).items():
            key = (x, y, b)
            left[key] = left.get(key, 0) + c * e
        for (x, y), e in delta_h(b).items():
            key = (a, x, y)
            right[key] = right.get(key, 0) + c * e
    return LinComb.of_dict(left), LinComb.of_dict(right)


def _compat(x, y):
    # delta(xy) = delta(x) delta(y)
    return delta_h_sum(star_h(x, y)), tensor_star(delta_h(x), delta_h(y))


def _counit(t):
    # (eps (x) id) delta = id = (id (x) eps) delta; eps reads the leaf
    d = delta_h(t).items()
    left = LinComb((b, c) for (a, b), c in d if a is LEAF)
    right = LinComb((a, c) for (a, b), c in d if b is LEAF)
    return (left, right), (LinComb.basis(t),) * 2


def _antipode_law(t):
    # S(t') t'' = eps(t) 1 = t' S(t'')
    left: dict = {}
    right: dict = {}
    for (a, b), c in delta_h(t).items():
        add_bilinear(left, star_h, _antipode(a).items(), ((b, 1),), c)
        add_bilinear(right, star_h, ((a, 1),), _antipode(b).items(), c)
    return ((LinComb.of_dict(left), LinComb.of_dict(right)),
            (counit(LinComb.basis(t)) * UNIT,) * 2)


AXIOMS = {"assoc": (3, _assoc), "coassoc": (1, _coassoc), "compat": (2, _compat),
          "counit": (1, _counit), "antipode": (1, _antipode_law)}


def check_axiom(axiom: str, max_total_order: int):
    """Exhaustively check one Hopf axiom over basis graphs.

    The bound limits the sum of the total orders of the inputs.  Returns
    None on success, otherwise the first counterexample (a tuple of basis
    graphs) in the order of `bounded_tuples`.  Bounds above MAX_AXIOM_ORDER
    are refused before anything is built.
    """
    m = max_total_order
    if m > MAX_AXIOM_ORDER:
        raise ValueError(
            f"total order {m} is beyond the axiom bound m <= {MAX_AXIOM_ORDER}"
        )
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    arity, sides = AXIOMS[axiom]
    return first_counterexample(sides, bounded_tuples(graphs_up_to_total_order(m), arity, m))
