"""Products, coproducts, counit, antipode: worked values and axiom sweeps."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from lrq import hopfops, trees
from lrq.complexes import d_h_graph, matrix_rank
from lrq.exprs import parse
from lrq.freemodule import LinComb, bilinear_extend
from lrq.hopfops import (
    UNIT,
    _antipode,
    antipode,
    bounded_tuples,
    check_axiom,
    counit,
    delta_h,
    delta_h_sum,
    first_counterexample,
    graphs_up_to_total_order,
    star_h,
    star_h_sum,
)
from lrq.loopgraphs import LEAF, ONELOOP, TREE, LoopGraph, enumerate_graphs, with_slots
from oracles import antipode_by_takeuchi, single_basis, tensor


def bilinear_terms(f, xs, ys, c=1) -> list:
    """The terms of c * f(x, y) over the (basis, coefficient) pairs of xs
    and ys, unsummed: the list form that the oracles sum with one LinComb."""
    out = []
    for bx, cx in xs:
        for by, cy in ys:
            k = c * cx * cy
            out += [(b, k * d) for b, d in f(bx, by).items()]
    return out


def g(s: str):
    return single_basis(s)


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum")


@lru_cache(maxsize=None)
def star_tree(t, u) -> LinComb:
    """Oracle: the classical star product of two trees (Loday-Ronco 1998).

    Recursion on the branch decompositions t = t1 v t2, u = u1 v u2:
    t * u = t1 v (t2 * u) + (t * u1) v u2, with the leaf as two-sided unit.
    """
    if t.is_leaf:
        return LinComb.basis(u)
    if u.is_leaf:
        return LinComb.basis(t)
    t1, t2 = t.left, t.right
    u1, u2 = u.left, u.right
    left = star_tree(t2, u).map_basis(lambda s: LoopGraph(t1, s))
    right = star_tree(t, u1).map_basis(lambda s: LoopGraph(s, u2))
    return left + right


TV = LoopGraph(trees.LEAF, trees.LEAF)


def test_star_one_step():
    assert star_tree(TV, TV) == gsum("(|v(|v|)) + ((|v|)v|)")


def test_star_unit_laws():
    for t in trees.enumerate_trees(3):
        assert star_tree(t, trees.LEAF) == LinComb.basis(t)
        assert star_tree(trees.LEAF, t) == LinComb.basis(t)


def test_star_cube_covers_y3():
    acc = LinComb.basis(trees.LEAF)
    mul = bilinear_extend(star_tree)
    for _ in range(3):
        acc = mul(acc, LinComb.basis(TV))
    expected = LinComb((t, 1) for t in trees.enumerate_trees(3))
    assert acc == expected


def test_star_h_restricted_to_trees_equals_star():
    # The loop-graph product restricts to the classical oracle on unmarked
    # inputs (order <= 6).
    for n1 in range(7):
        for n2 in range(7 - n1):
            for a in trees.enumerate_trees(n1):
                for b in trees.enumerate_trees(n2):
                    assert star_h(a, b) == star_tree(a, b)


def over(t, u):
    """t/u: t grafted on the leftmost leaf of u."""
    return t if u.is_leaf else LoopGraph(over(t, u.left), u.right)


def under(t, u):
    """t\\u: u grafted on the rightmost leaf of t."""
    return u if t.is_leaf else LoopGraph(t.left, under(t.right, u))


def right_rotations(s):
    """The trees one right rotation ((a v b) v c) -> (a v (b v c)) above s."""
    if s.is_leaf:
        return
    a, b = s.left, s.right
    if not a.is_leaf:
        yield LoopGraph(a.left, LoopGraph(a.right, b))
    yield from (LoopGraph(x, b) for x in right_rotations(a))
    yield from (LoopGraph(a, x) for x in right_rotations(b))


def left_rotations(s):
    """The trees that one right rotation takes to s."""
    if s.is_leaf:
        return
    a, b = s.left, s.right
    if not b.is_leaf:
        yield LoopGraph(LoopGraph(a, b.left), b.right)
    yield from (LoopGraph(x, b) for x in left_rotations(a))
    yield from (LoopGraph(a, x) for x in left_rotations(b))


def closure(s, step) -> set:
    seen = {s}
    todo = [s]
    while todo:
        for x in step(todo.pop()):
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return seen


def test_star_h_on_trees_is_the_tamari_interval():
    # Oracle (Loday-Ronco, J. Algebraic Combin. 15, 2002): on trees,
    # t * u is the sum of the Tamari interval [t/u, t\u], each tree once;
    # every pair of combined order <= 6, 625 pairs.
    pairs = 0
    for n1 in range(7):
        for n2 in range(7 - n1):
            for t in trees.enumerate_trees(n1):
                for u in trees.enumerate_trees(n2):
                    interval = (closure(over(t, u), right_rotations)
                                & closure(under(t, u), left_rotations))
                    assert star_h(t, u) == LinComb.sum_of(interval), (t, u)
                    pairs += 1
    assert pairs == 625


def spine(t, side: str) -> list:
    """t and its subtrees down the given spine, to the leaf."""
    out = [t]
    while not t.is_leaf:
        t = getattr(t, side)
        out.append(t)
    return out


def test_tree_products_are_bounded_by_the_shuffles():
    # The premise of `cli.MAX_PRODUCT_TERMS`.  Loday-Ronco (Adv. Math. 139,
    # 1998): the product of trees of orders n and m is a sum over the
    # (n, m)-shuffles, so it has at most C(n+m, n) terms, each with
    # coefficient 1.  The recursion multiplies the trees on the right spine
    # of t by those on the left spine of u, whose orders are distinct, so
    # all its subproducts hold at most the sum of C(a+b, a) over a <= n and
    # b <= m, that is C(n+m+2, n+1) - 1 terms.  The right comb times the
    # left comb attains both.
    everything = [t for n in range(6) for t in trees.enumerate_trees(n)]
    counts = {"pairs": 0, "at the bound": 0}
    for t in everything:
        for u in everything:
            n, m = t.order, u.order
            product = star_h(t, u)
            assert len(product) <= comb(n + m, n)
            assert all(c == 1 for _, c in product.items())
            formed = sum(len(star_h(a, b)) for a in spine(t, "right") for b in spine(u, "left"))
            assert formed <= comb(n + m + 2, n + 1) - 1
            counts["pairs"] += 1
            counts["at the bound"] += len(product) == comb(n + m, n)
    assert counts == {"pairs": 4225, "at the bound": 154}

    def right_comb(n):
        return LoopGraph(LEAF, right_comb(n - 1)) if n else LEAF

    def left_comb(n):
        return LoopGraph(left_comb(n - 1), LEAF) if n else LEAF

    for n in range(6):
        for m in range(6):
            t, u = right_comb(n), left_comb(m)
            assert len(star_h(t, u)) == comb(n + m, n)
            formed = sum(len(star_h(a, b)) for a in spine(t, "right") for b in spine(u, "left"))
            assert formed == comb(n + m + 2, n + 1) - 1


def test_star_h_worked_examples():
    assert star_h(ONELOOP, ONELOOP) == gsum("(|o(|o|)) + ((|o|)o|)")
    assert star_h(TREE, ONELOOP) == gsum("((|v|)o|) + (|v(|o|))")
    assert star_h(g("(|o(|v|))"), ONELOOP) == gsum(
        "((|o(|v|))o|) + (|o((|v|)o|)) + (|o(|v(|o|)))"
    )


def test_star_h_mixed_root_example():
    # bridge-rooted times vee-rooted, order 2 each: three genus-2 graphs
    got = star_h(g("(|o(|v|))"), g("(|v(|o|))"))
    assert got == gsum(
        "((|o(|v|))v(|o|)) + (|o((|v|)v(|o|))) + (|o(|v(|v(|o|))))"
    )


def test_star_h_irregular_example():
    # vee-rooted times the elementary loop: every summand is irregular
    from lrq.loopgraphs import is_regular

    got = star_h(g("(|v(|o|))"), ONELOOP)
    assert got == gsum("(|v(|o(|o|))) + (|v((|o|)o|)) + ((|v(|o|))o|)")
    assert all(not is_regular(t) for t, _ in got.items())


def test_star_h_products_are_irregular_for_loop_squared():
    from lrq.loopgraphs import is_regular

    for t, _ in star_h(ONELOOP, ONELOOP).items():
        assert not is_regular(t)


def test_star_h_unit_laws():
    for t in graphs_up_to_total_order(4):
        assert star_h(LEAF, t) == LinComb.basis(t)
        assert star_h(t, LEAF) == LinComb.basis(t)


def test_star_h_bigrading():
    for x in graphs_up_to_total_order(5):
        for y in graphs_up_to_total_order(5):
            if x.total_order + y.total_order > 5:
                continue
            for s, _ in star_h(x, y).items():
                assert s.order == x.order + y.order
                assert s.genus == x.genus + y.genus


def test_delta_worked_examples():
    assert delta_h(ONELOOP) == LinComb(
        [((LEAF, ONELOOP), 1), ((ONELOOP, LEAF), 1)]
    )
    two_loop_tree = g("(|o(|v|))")
    assert delta_h(two_loop_tree) == LinComb(
        [
            ((LEAF, two_loop_tree), 1),
            ((two_loop_tree, LEAF), 1),
            ((TREE, ONELOOP), 1),
        ]
    )
    double = g("(|o(|o|))")
    assert delta_h(double) == LinComb(
        [
            ((LEAF, double), 1),
            ((double, LEAF), 1),
            ((ONELOOP, ONELOOP), 1),
        ]
    )


def test_delta_order_two_classical():
    t = g("(|v(|v|))")
    assert delta_h(t) == LinComb(
        [((LEAF, t), 1), ((TREE, TREE), 1), ((t, LEAF), 1)]
    )


def test_primitive_generators():
    for prim in (TREE, ONELOOP):
        assert delta_h(prim) == LinComb([((LEAF, prim), 1), ((prim, LEAF), 1)])


def test_delta_unit_grouplike():
    assert delta_h(LEAF) == LinComb.basis((LEAF, LEAF))


def test_delta_bidegree_splits():
    for t in graphs_up_to_total_order(4):
        for (a, b), _ in delta_h(t).items():
            assert a.order + b.order == t.order
            assert a.genus + b.genus == t.genus


@lru_cache(maxsize=None)
def slot_split(s) -> dict:
    """Where delta_h sends the slots of the tree s: for each shape pair
    (a, b) of delta_h(s), the list of (side, slot) that each slot i of s
    lands on, read from delta_h(with_slots(s, 1 << i)), one slot at a
    time."""
    split = {pair: [] for pair, _ in delta_h(s).items()}
    for i in range(s.order):
        terms = delta_h(with_slots(s, 1 << i)).items()
        assert len(terms) == len(split)
        for (a, b), _ in terms:
            side, mask = (0, a.slots) if a.slots else (1, b.slots)
            assert mask.bit_count() == 1 and a.slots | b.slots == mask
            split[with_slots(a, 0), with_slots(b, 0)].append((side, mask.bit_length() - 1))
    return split


def delta_by_slot_split(t) -> LinComb:
    """Oracle: delta_h(t) from the coproduct of t's tree shape, each term
    carrying t's mask restricted to the slots that `slot_split` sends to
    each of its factors."""
    s = with_slots(t, 0)
    out = []
    for (a, b), c in delta_h(s).items():
        masks = [0, 0]
        for i, (side, j) in enumerate(slot_split(s)[a, b]):
            masks[side] |= (t.slots >> i & 1) << j
        out.append(((with_slots(a, masks[0]), with_slots(b, masks[1])), c))
    return LinComb(out)


def test_delta_h_splits_the_slots_in_order():
    # Each factor of a coproduct term gets a subset of s's slots, all of
    # its own slots and in their order in s; ROADMAP item 12 builds on it.
    for n in range(6):
        for s in enumerate_graphs(n, 0):
            for (a, b), places in slot_split(s).items():
                for side, factor in enumerate((a, b)):
                    assert [j for k, j in places if k == side] == list(range(factor.order)), (s, a, b)
    for t in graphs_up_to_total_order(6):
        assert delta_h(t) == delta_by_slot_split(t), t


def test_counit_examples():
    assert counit(UNIT) == 1
    assert counit(LinComb.basis(ONELOOP)) == 0
    assert counit(LinComb([(LEAF, 2), (TREE, 3)])) == 2
    assert counit(LinComb()) == 0


def test_antipode_on_primitives():
    assert antipode(LinComb.basis(TREE)) == LinComb.basis(TREE, -1)
    assert antipode(LinComb.basis(ONELOOP)) == LinComb.basis(ONELOOP, -1)


def test_antipode_defining_property_instance():
    x = g("(|o(|v|))")
    acc = LinComb()
    for (a, b), c in delta_h(x).items():
        acc = acc + c * star_h_sum(antipode(LinComb.basis(a)), LinComb.basis(b))
    assert acc == counit(LinComb.basis(x)) * UNIT
    assert acc.is_zero()


@pytest.mark.parametrize(
    "axiom,bound",
    [
        ("assoc", 5),
        ("coassoc", 4),
        ("compat", 4),
        ("counit", 5),
        ("antipode", 4),
    ],
)
def test_axioms_pass(axiom, bound):
    assert check_axiom(axiom, bound) is None


def test_check_axiom_rejects_unknown():
    with pytest.raises(ValueError):
        check_axiom("frobenius", 3)


def test_check_axiom_refuses_a_negative_bound(monkeypatch):
    def built(*args):
        raise AssertionError(f"built {args} before checking the bound")

    monkeypatch.setattr(hopfops, "graphs_up_to_total_order", built)
    for axiom in hopfops.AXIOMS:
        for m in (-1, -10**6):
            with pytest.raises(ValueError, match="^total order must be nonnegative$"):
                check_axiom(axiom, m)


def test_delta_h_sum_is_linear():
    x = gsum("2*(|o|) + 1/3*(|v|)")
    expected = 2 * delta_h(ONELOOP) + Fraction(1, 3) * delta_h(TREE)
    assert delta_h_sum(x) == expected


def test_structure_constants_are_ints():
    basis = graphs_up_to_total_order(5)
    values = [star_h(x, y) for x in basis for y in basis
              if x.total_order + y.total_order <= 5]
    for t in basis:
        values += [delta_h(t), _antipode(t), d_h_graph(t)]
    assert all(type(c) is int for v in values for _, c in v.items())


@lru_cache(maxsize=None)
def star_graphs(t, u) -> LinComb:
    """Oracle: the product's defining recursion on graphs, through the roots
    looped or not, t * u = (t * u1) JOIN_u u2 + t1 JOIN_t (t2 * u), where
    JOIN_t / JOIN_u rebuild the root of t / u with its mark."""
    if t.is_leaf:
        return LinComb.basis(u)
    if u.is_leaf:
        return LinComb.basis(t)
    first = star_graphs(t, u.left).map_basis(lambda s: LoopGraph(s, u.right, u.looped))
    second = star_graphs(t.right, u).map_basis(lambda s: LoopGraph(t.left, s, t.looped))
    return first + second


def test_star_h_equals_the_graph_recursion():
    by_order = {n: [t for gg in range(n + 1) for t in enumerate_graphs(n, gg)]
                for n in range(5)}
    for n in range(5):
        for m in range(min(4, 6 - n) + 1):
            for x in by_order[n]:
                for y in by_order[m]:
                    assert star_h(x, y) == star_graphs(x, y), (x, y)


def antipode_by_sums(t) -> LinComb:
    """Oracle: the antipode recursion, one LinComb sum per coproduct term."""
    if t.is_leaf:
        return UNIT
    acc = LinComb.basis(t, -1)
    for (a, b), c in delta_h(t).items():
        if not (a.is_leaf or b.is_leaf):
            acc = acc - c * star_h_sum(antipode_by_sums(a), LinComb.basis(b))
    return acc


def test_antipode_equals_the_term_by_term_sum():
    for t in graphs_up_to_total_order(5):
        assert _antipode(t) == antipode_by_sums(t), t


def test_antipode_equals_takeuchis_formula():
    basis = graphs_up_to_total_order(6)
    assert len(basis) == 589
    for t in basis:
        assert _antipode(t) == antipode_by_takeuchi(t), t


def test_antipode_check_finds_a_wrong_antipode(monkeypatch):
    # An antipode that is wrong only on (|o|) breaks the antipode law there.
    def wrong(t):
        return LinComb.basis(t) if t is ONELOOP else _antipode(t)

    monkeypatch.setattr(hopfops, "_antipode", wrong)
    assert check_axiom("antipode", 3) == (ONELOOP,)


def tensor_star_by_sums(x: LinComb, y: LinComb) -> LinComb:
    """Oracle: the product of 2-tensors summed over pairs of their terms,
    each pair (a(x)b, c(x)d) giving the tensor of the extended products
    a*c and b*d.  The product is `hopfops.star_h` as bound at the call, so
    that a seeded fault in it reaches this oracle too."""
    star = bilinear_extend(hopfops.star_h)

    def pair_product(p, q):
        return tensor(star(LinComb.basis(p[0]), LinComb.basis(q[0])),
                      star(LinComb.basis(p[1]), LinComb.basis(q[1])))

    return LinComb(bilinear_terms(pair_product, x.items(), y.items()))


def test_tensor_star_is_the_sum_of_tensored_products():
    # On the coproducts, and on them with the k-th term weighted by (k+1)/2,
    # since a coproduct's own coefficients are all 1 at these orders.
    def weighted(d):
        return LinComb((p, Fraction(k + 1, 2) * c) for k, (p, c) in enumerate(d.terms()))

    basis = graphs_up_to_total_order(5)
    for x in basis:
        for y in basis:
            if x.total_order + y.total_order <= 5:
                for dx, dy in ((delta_h(x), delta_h(y)), (weighted(delta_h(x)), weighted(delta_h(y)))):
                    assert hopfops.tensor_star(dx, dy) == tensor_star_by_sums(dx, dy), (x, y)


def test_a_defect_whose_terms_cancel_passes():
    # A law's dict keeps every key that either side wrote, each summed to 0.
    t = g("((|v|)v(|o|))")
    (acc,) = hopfops._coassoc(t)
    assert acc and not any(acc.values())
    assert first_counterexample(hopfops._coassoc, [(t,)]) is None

    def cancelled(x):
        return ({x: 0, (x, x): Fraction(0)}, {LEAF: 1 - 1})

    assert first_counterexample(cancelled, [(TREE,), (ONELOOP,)]) is None


def test_a_defect_nonzero_only_in_its_second_dict_is_reported():
    def defect(x):
        return {x: 0}, {x: Fraction(1, 2) if x is ONELOOP else 0}

    assert first_counterexample(defect, [(TREE,), (ONELOOP,), (LEAF,)]) == (ONELOOP,)


def check_axiom_by_cases(axiom: str, m: int):
    """Oracle: the axiom check written out as one loop per axiom, each over
    the whole basis with its own total-order bound.  The maps are those of
    `hopfops` as bound at the call, so that a seeded fault reaches them."""
    star = hopfops.star_h
    star_sum = hopfops.star_h_sum
    delta = hopfops.delta_h
    basis = graphs_up_to_total_order(m)

    def delta_left(t2):
        return LinComb(((x, y, b), c * d) for (a, b), c in t2.items()
                       for (x, y), d in delta(a).items())

    def delta_right(t2):
        return LinComb(((a, x, y), c * d) for (a, b), c in t2.items()
                       for (x, y), d in delta(b).items())

    if axiom == "assoc":
        for x in basis:
            for y in basis:
                if x.total_order + y.total_order > m:
                    continue
                xy = star(x, y)
                for z in basis:
                    if x.total_order + y.total_order + z.total_order > m:
                        continue
                    lhs = star_sum(xy, LinComb.basis(z))
                    rhs = star_sum(LinComb.basis(x), star(y, z))
                    if lhs != rhs:
                        return (x, y, z)
        return None
    if axiom == "coassoc":
        for t in basis:
            d = delta(t)
            if delta_left(d) != delta_right(d):
                return (t,)
        return None
    if axiom == "compat":
        for x in basis:
            for y in basis:
                if x.total_order + y.total_order > m:
                    continue
                if delta_h_sum(star(x, y)) != tensor_star_by_sums(delta(x), delta(y)):
                    return (x, y)
        return None
    if axiom == "counit":
        for t in basis:
            d = delta(t)
            left = LinComb((b, c * counit(LinComb.basis(a))) for (a, b), c in d.items())
            right = LinComb((a, c * counit(LinComb.basis(b))) for (a, b), c in d.items())
            if left != LinComb.basis(t) or right != LinComb.basis(t):
                return (t,)
        return None
    assert axiom == "antipode"
    for t in basis:
        left = []
        right = []
        for (a, b), c in delta(t).items():
            left += bilinear_terms(star, hopfops._antipode(a).items(), ((b, 1),), c)
            right += bilinear_terms(star, ((a, 1),), hopfops._antipode(b).items(), c)
        expected = counit(LinComb.basis(t)) * UNIT
        if LinComb(left) != expected or LinComb(right) != expected:
            return (t,)
    return None


AXIOM_NAMES = ("assoc", "coassoc", "compat", "counit", "antipode")


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("axiom", AXIOM_NAMES)
def test_check_axiom_equals_the_case_by_case_oracle(axiom, m):
    assert check_axiom(axiom, m) == check_axiom_by_cases(axiom, m)


@pytest.fixture
def memos_warm_and_cleared_after():
    # Every memo the order-4 checks read is filled by the true maps first,
    # so a fault reaches the checks only through their own calls; the memos
    # are emptied afterwards, so nothing a faulty map left there outlives
    # the test.
    for axiom in AXIOM_NAMES:
        assert check_axiom(axiom, 4) is None
    yield
    for memo in (star_h, delta_h, _antipode):
        memo.cache_clear()


def _double_star_on(pair):
    return "star_h", lambda t, u: 2 * star_h(t, u) if (t, u) == pair else star_h(t, u)


def _double_star_on_one_pair():
    return _double_star_on((ONELOOP, g("((|v|)v|)")))


def _double_star_on_a_unit_pair():
    # A kernel that reads a product with the unit off, without calling
    # star_h, would miss this fault.
    return _double_star_on((LEAF, g("((|v|)v|)")))


def _extra_coproduct_term():
    t0 = g("((|v|)v|)")
    return "delta_h", lambda t: delta_h(t) + LinComb.basis((t, t)) if t is t0 else delta_h(t)


def _wrong_antipode_on_the_loop():
    return "_antipode", lambda t: LinComb.basis(t) if t is ONELOOP else _antipode(t)


def _leaf_terms_dropped():
    # Both counit sides of t0 lose t0 alike, so they agree with each other
    # but not with t0: each side must be compared with its expected value.
    t0 = g("((|v|)v|)")

    def faulty(t):
        if t is not t0:
            return delta_h(t)
        return LinComb(((a, b), c) for (a, b), c in delta_h(t).items()
                       if not (a.is_leaf or b.is_leaf))

    return "delta_h", faulty


@pytest.mark.parametrize("fault,found", [
    (_double_star_on_one_pair, {"assoc": "(|o|), (|v|), (|v|)",
                                "compat": "(|o|), ((|v|)v|)",
                                "antipode": "(|v(|v(|o|)))"}),
    (_extra_coproduct_term, {"coassoc": "((|v|)v|)", "compat": "(|v|), (|v|)",
                             "antipode": "((|v|)v|)"}),
    (_wrong_antipode_on_the_loop, {"antipode": "(|o|)"}),
    (_double_star_on_a_unit_pair, {"assoc": "|, |, ((|v|)v|)",
                                   "compat": "|, ((|v|)v|)",
                                   "antipode": "(|v(|v|))"}),
    (_leaf_terms_dropped, {"coassoc": "((|v|)v|)", "compat": "(|v|), (|v|)",
                           "counit": "((|v|)v|)", "antipode": "((|v|)v|)"}),
])
def test_check_axiom_finds_what_the_oracle_finds_under_a_fault(
        monkeypatch, memos_warm_and_cleared_after, fault, found):
    name, faulty = fault()
    monkeypatch.setattr(hopfops, name, faulty)
    if name == "star_h":
        # The extended product closes over star_h, so it is rebuilt on the
        # faulty one for every product of the oracle to see the fault.
        monkeypatch.setattr(hopfops, "star_h_sum", bilinear_extend(faulty))
    for axiom in AXIOM_NAMES:
        bad = check_axiom(axiom, 4)
        assert bad == check_axiom_by_cases(axiom, 4), axiom
        assert (bad and ", ".join(map(str, bad))) == found.get(axiom), axiom


# Freeness and cofreeness through order 5, and the dendriform halves of the
# product (the `lrq.hopfops` docstring states the result).


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def decomposables(n: int, genus: int) -> list:
    """The products x * y of graphs of positive orders in bidegree (n, genus)."""
    return [star_h(x, y) for a in range(1, n) for h in range(genus + 1)
            for x in enumerate_graphs(a, h) for y in enumerate_graphs(n - a, genus - h)]


def test_primitives_have_the_free_count():
    # Prim is the kernel of the reduced coproduct, which drops every term
    # with a leaf factor; its dimension is the coefficient of 1 - 1/H for
    # the Hilbert series H(x, y) = sum C_n (1 + y)^n x^n.
    for n in range(1, 6):
        for genus in range(n + 1):
            basis = enumerate_graphs(n, genus)
            reduced = [LinComb((pair, c) for pair, c in delta_h(t).items()
                               if not (pair[0].is_leaf or pair[1].is_leaf))
                       for t in basis]
            assert len(basis) - matrix_rank(reduced) == catalan(n - 1) * comb(n, genus)


def test_indecomposables_have_the_free_count_and_a_free_basis():
    # The graphs (| m s), whose left subtree is a leaf, span a complement of
    # the decomposables in every bidegree.
    for n in range(1, 6):
        for genus in range(n + 1):
            basis = enumerate_graphs(n, genus)
            products = decomposables(n, genus)
            rank = matrix_rank(products)
            assert len(basis) - rank == catalan(n - 1) * comb(n, genus)
            generators = [LoopGraph(LEAF, s, looped)
                          for looped in (False, True) if looped <= genus
                          for s in enumerate_graphs(n - 1, genus - looped)]
            assert len(generators) == len(basis) - rank
            assert matrix_rank(products + [LinComb.basis(t) for t in generators]) == len(basis)


def prec(x, y) -> LinComb:
    """x < y = x.left v (x.right * y), under x's root."""
    return star_h(x.right, y).map_basis(lambda s: LoopGraph(x.left, s, x.looped))


def succ(x, y) -> LinComb:
    """x > y = (x * y.left) v y.right, under y's root."""
    return star_h(x, y.left).map_basis(lambda s: LoopGraph(s, y.right, y.looped))


def test_product_is_dendriform():
    # Loday's axioms on the non-leaf graphs: (x < y) < z = x < (y * z),
    # (x > y) < z = x > (y < z), and (x * y) > z = x > (y > z).
    prec_sum, succ_sum = bilinear_extend(prec), bilinear_extend(succ)
    basis = [t for t in graphs_up_to_total_order(7) if not t.is_leaf]
    for x, y in bounded_tuples(basis, 2, 7):
        assert prec(x, y) + succ(x, y) == star_h(x, y), (x, y)
    triples = 0
    for x, y, z in bounded_tuples(basis, 3, 7):
        bx, bz = LinComb.basis(x), LinComb.basis(z)
        assert prec_sum(prec(x, y), bz) == prec_sum(bx, star_h(y, z)), (x, y, z)
        assert prec_sum(succ(x, y), bz) == succ_sum(bx, prec(y, z)), (x, y, z)
        assert succ_sum(star_h(x, y), bz) == succ_sum(bx, succ(y, z)), (x, y, z)
        triples += 1
    assert triples == 1729
