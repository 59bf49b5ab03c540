"""Products, coproducts, counit, antipode: worked values and axiom sweeps."""

from fractions import Fraction
from functools import lru_cache

import pytest

from lrq import trees
from lrq.exprs import parse
from lrq.freemodule import LinComb, bilinear_extend
from lrq.hopfops import (
    UNIT,
    antipode,
    check_axiom,
    counit,
    delta_h,
    delta_h_sum,
    graphs_up_to_total_order,
    star_h,
    star_h_sum,
)
from lrq.loopgraphs import LEAF, ONELOOP, TREE


def g(s: str):
    return parse(s, "graph-sum").single_basis()


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum").value


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
    t1, t2 = trees.ungraft(t)
    u1, u2 = trees.ungraft(u)
    left = star_tree(t2, u).map_basis(lambda s: trees.graft(t1, s))
    right = star_tree(t, u1).map_basis(lambda s: trees.graft(s, u2))
    return left + right


TV = trees.graft(trees.LEAF, trees.LEAF)


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


def test_counit_examples():
    assert counit(UNIT) == 1
    assert counit(LinComb.basis(ONELOOP)) == 0
    assert counit(LinComb([(LEAF, 2), (TREE, 3)])) == 2
    assert counit(LinComb.zero()) == 0


def test_antipode_on_primitives():
    assert antipode(LinComb.basis(TREE)) == LinComb.basis(TREE, -1)
    assert antipode(LinComb.basis(ONELOOP)) == LinComb.basis(ONELOOP, -1)


def test_antipode_defining_property_instance():
    x = g("(|o(|v|))")
    acc = LinComb.zero()
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


def test_delta_h_sum_is_linear():
    x = gsum("2*(|o|) + 1/3*(|v|)")
    expected = 2 * delta_h(ONELOOP) + Fraction(1, 3) * delta_h(TREE)
    assert delta_h_sum(x) == expected
