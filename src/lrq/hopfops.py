"""Products, coproducts, counit, and antipode on loop-graph sums.

There is one star product.  On unmarked graphs, which are the planar binary
trees, it is the classical Loday-Ronco product of trees.  Its unit is the
bare leaf graph.

Through order 5 the algebra is free and cofree, by counting.  Let H(x, y) =
sum C_n (1 + y)^n x^n be its Hilbert series, C_n the Catalan numbers, so
that 1 - 1/H has the coefficient C_{n-1} * binomial(n, g) at x^n y^g.  In
every bidegree (n, g) with 1 <= n <= 5 the tests find that dimension twice:
for the primitives, the kernel of the reduced coproduct (every term with a
leaf factor dropped), and for the indecomposables, the graphs modulo the
products of two graphs of positive order.  The graphs (| m s), whose left
subtree is a leaf, span a complement of the decomposables there.  A
connected graded algebra whose indecomposables have the series 1 - 1/H
has no relations in those degrees, so it is free on them through order 5;
the same count on the primitives makes it cofree through order 5.  The
product splits into the two halves of its recursion,
x < y = x.left v (x.right * y) under x's root and x > y = (x * y.left) v
y.right under y's root, which satisfy Loday's three dendriform axioms on
every triple of non-leaf graphs of total order at most 7.  The statement
for all orders is open.

The antipode recursion and the tensor product are summed straight into one
dict, over the terms of their factors.  So is each Hopf law, as its defect:
associativity, coassociativity and compatibility add their left side and
subtract their right side in one dict; the counit and antipode laws keep
one dict per side, each started at minus the value that side must equal
(-t, or -eps(t) 1), so that each side is compared with it and not only
with the other side.  A law holds on a tuple exactly when every
coefficient of its defect is zero.  Every product term still comes from a
call of `star_h`, every coproduct from `delta_h` and every antipode from
`_antipode`, each looked up as a module global when it is called, so
rebinding one of them (a seeded fault, a tracer) reaches every call, and no
unit product is read off.
"""

from __future__ import annotations

from functools import lru_cache

from .freemodule import LinComb, bilinear_extend
from .loopgraphs import LEAF, LoopGraph, enumerate_graphs, with_slots

# Largest total order `check_axiom` accepts, by the rule that the worst CLI
# call finishes within 30 s and 1 GiB: on a 2-core x86-64 VM (Python 3.11.7,
# cold runs, text and --json) the slowest axiom there, antipode, takes 3.8
# to 3.9 s at 85 MiB, and 5.6 to 5.9 s with three runs sharing the two
# cores.  In a slow phase of the host, when antipode took 7.7 to 11.4 s,
# compat took 2.4 to 3.5 s at 51 MiB, coassoc 1.6 to 1.9 s at 43 MiB,
# counit 1.0 to 1.2 s and assoc 0.6 to 1.0 s.  At total order 9 antipode
# takes 48 s at 534 MiB, and 115 to 135 s in that slow phase.
MAX_AXIOM_ORDER = 8

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
    lefts = delta_h(t.left)._terms.items()
    rights = delta_h(t.right)._terms.items()
    looped = t.looped
    for (a1, a2), ca in lefts:
        for (b1, b2), cb in rights:
            joined = LoopGraph(a2, b2, looped)
            c = ca * cb
            for s, cs in star_h(a1, b1)._terms.items():
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
    get = acc.get
    for (a, b), c in delta_h(t)._terms.items():
        if a.is_leaf or b.is_leaf:
            continue
        for s, d in _antipode(a)._terms.items():
            k = -c * d
            for p, e in star_h(s, b)._terms.items():
                acc[p] = get(p, 0) + k * e
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
        if k == 1:
            yield (x,)
            continue
        for rest in bounded_tuples(basis, k - 1, m - x.total_order):
            yield (x, *rest)


def first_counterexample(defect, tuples):
    """The first tuple on which a law fails, or None.

    `defect(*xs)` gives the law's defect on xs: dicts of exact
    coefficients, each a side of the law minus what it must equal.  The law
    holds on xs exactly when every coefficient of every such dict is zero;
    a dict may keep keys whose terms cancelled to 0."""
    for xs in tuples:
        for acc in defect(*xs):
            if any(acc.values()):
                return xs
    return None


def _add_tensor_star(acc: dict, x: LinComb, y: LinComb, sign: int) -> dict:
    """Add sign times the componentwise product of the 2-tensors x and y
    into acc, and return acc."""
    get = acc.get
    ys = list(y._terms.items())
    for (a, b), c in x._terms.items():
        for (d, e), f in ys:
            cf = sign * c * f
            right = star_h(b, e)._terms.items()
            for s1, c1 in star_h(a, d)._terms.items():
                k = cf * c1
                for s2, c2 in right:
                    key = (s1, s2)
                    acc[key] = get(key, 0) + k * c2
    return acc


def tensor_star(x: LinComb, y: LinComb) -> LinComb:
    """Componentwise product of 2-tensors: (a(x)b)(c(x)d) = (a*c)(x)(b*d)."""
    return LinComb.of_dict(_add_tensor_star({}, x, y, 1))


# Each Hopf law as its arity and its defect on one tuple of basis graphs.


def _assoc(x, y, z):
    # (xy)z - x(yz)
    acc: dict = {}
    get = acc.get
    for s, c in star_h(x, y)._terms.items():
        for p, e in star_h(s, z)._terms.items():
            acc[p] = get(p, 0) + c * e
    for s, c in star_h(y, z)._terms.items():
        for p, e in star_h(x, s)._terms.items():
            acc[p] = get(p, 0) - c * e
    return (acc,)


def _coassoc(t):
    # (delta (x) id) delta - (id (x) delta) delta, as 3-tensors
    acc: dict = {}
    get = acc.get
    for (a, b), c in delta_h(t)._terms.items():
        for (x, y), e in delta_h(a)._terms.items():
            key = (x, y, b)
            acc[key] = get(key, 0) + c * e
        for (x, y), e in delta_h(b)._terms.items():
            key = (a, x, y)
            acc[key] = get(key, 0) - c * e
    return (acc,)


def _compat(x, y):
    # delta(xy) - delta(x) delta(y)
    acc: dict = {}
    get = acc.get
    for s, c in star_h(x, y)._terms.items():
        for key, e in delta_h(s)._terms.items():
            acc[key] = get(key, 0) + c * e
    return (_add_tensor_star(acc, delta_h(x), delta_h(y), -1),)


def _counit(t):
    # (eps (x) id) delta - id and (id (x) eps) delta - id; eps reads the leaf
    left = {t: -1}
    right = {t: -1}
    for (a, b), c in delta_h(t)._terms.items():
        if a is LEAF:
            left[b] = left.get(b, 0) + c
        if b is LEAF:
            right[a] = right.get(a, 0) + c
    return left, right


def _antipode_law(t):
    # S(t') t'' - eps(t) 1 and t' S(t'') - eps(t) 1
    eps = counit(LinComb.basis(t))
    left = {LEAF: -eps}
    right = {LEAF: -eps}
    lget = left.get
    rget = right.get
    for (a, b), c in delta_h(t)._terms.items():
        for s, d in _antipode(a)._terms.items():
            k = c * d
            for p, e in star_h(s, b)._terms.items():
                left[p] = lget(p, 0) + k * e
        for s, d in _antipode(b)._terms.items():
            k = c * d
            for p, e in star_h(a, s)._terms.items():
                right[p] = rget(p, 0) + k * e
    return left, right


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
    arity, defect = AXIOMS[axiom]
    return first_counterexample(defect, bounded_tuples(graphs_up_to_total_order(m), arity, m))
