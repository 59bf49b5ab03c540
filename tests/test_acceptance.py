"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a PASS line when its criterion holds; a failing assertion
surfaces as the usual pytest FAILED line for that criterion.
"""

from fractions import Fraction
from itertools import permutations as iter_perms
from math import comb

from lrq import trees
from lrq.airy import airy_correlator
from lrq.cli import run
from lrq.complexes import (
    border_tree,
    cohomology_dim,
    d_h_graph,
    d_h_sum,
)
from lrq.exprs import parse
from lrq.freemodule import LinComb
from lrq.hopfops import antipode, check_axiom, delta_h, star_h
from lrq.loopgraphs import (
    LEAF,
    ONELOOP,
    TREE,
    enumerate_graphs,
    is_regular,
)
from lrq.permutations import Permutation, star_perm
from lrq.subalgebras import (
    Word,
    delta_h_quotient_counterexample,
    project_regular,
    psi_word,
    star_reg,
)
from airy_series import _residue_recursion, default_truncation, expansion
from oracles import border_homology_dim, extra_degeneracy, single_basis, support

L = LinComb.basis(ONELOOP)
T = LinComb.basis(TREE)


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum")


def done(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_c01_tree_counts():
    sizes = [len(trees.enumerate_trees(n)) for n in range(6)]
    assert sizes == [1, 1, 2, 5, 14, 42]
    assert sizes == [comb(2 * n, n) // (n + 1) for n in range(6)]
    done(1, "tree counts are Catalan")


def test_c02_generator_products():
    one = Permutation((1,))
    power = star_perm(one, one)
    acc = LinComb()
    for sigma, c in power.items():
        acc = acc + c * star_perm(sigma, one)
    expected = LinComb(
        (Permutation(w), 1)
        for w in [(1, 2, 3), (3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 3, 1), (2, 1, 3)]
    )
    assert acc == expected
    images = {trees.perm_to_tree(sigma) for sigma, _ in acc.items()}
    assert images == set(trees.enumerate_trees(3))
    done(2, "six permutation terms, tree image covers Y^3")


def test_c03_graph_counts_order_3():
    assert len(enumerate_graphs(3, 1, regular_only=True)) == 15
    total = sum(len(enumerate_graphs(3, g, regular_only=True)) for g in (0, 1, 2))
    assert total == 25
    ltl = psi_word(Word("LTL"))
    assert len(support(ltl)) == 5
    assert all(t.genus == 2 and is_regular(t) for t in support(ltl))
    done(3, "15 one-loop and 25 regular graphs at order 3, LTL has 5")


def test_c04_product_worked_examples():
    assert star_h(ONELOOP, ONELOOP) == gsum("(|o(|o|)) + ((|o|)o|)")
    assert star_h(TREE, ONELOOP) == gsum("((|v|)o|) + (|v(|o|))")
    left_factor = single_basis("(|o(|v|))")
    example_4_2 = star_h(left_factor, ONELOOP)
    assert example_4_2 == gsum("((|o(|v|))o|) + (|o((|v|)o|)) + (|o(|v(|o|)))")
    assert len(example_4_2) == 3
    done(4, "loop product worked examples reproduced exactly")


def test_c05_coproduct_examples():
    assert delta_h(ONELOOP) == LinComb(
        [((LEAF, ONELOOP), 1), ((ONELOOP, LEAF), 1)]
    )
    bridged_tree = single_basis("(|o(|v|))")
    assert delta_h(bridged_tree).coeff((TREE, ONELOOP)) == 1
    bridged_loop = single_basis("(|o(|o|))")
    assert delta_h(bridged_loop).coeff((ONELOOP, ONELOOP)) == 1
    done(5, "coproduct examples: primitive loop, T(x)L and L(x)L terms")


def test_c06_hopf_axioms():
    assert check_axiom("assoc", 5) is None
    assert check_axiom("coassoc", 4) is None
    assert check_axiom("compat", 4) is None
    assert check_axiom("counit", 5) is None
    assert check_axiom("antipode", 4) is None
    assert antipode(T) == -1 * T
    assert antipode(L) == -1 * L
    done(6, "Hopf axioms pass exhaustively, antipode negates generators")


def test_c07_regular_quotient():
    assert star_reg(L, L).is_zero()
    witness = delta_h_quotient_counterexample(4)
    assert witness == (ONELOOP, ONELOOP)
    done(7, "loop nilpotent in the quotient, coproduct counterexample found")


def test_c08_differential():
    assert d_h_graph(TREE) == L
    assert d_h_graph(ONELOOP).is_zero()
    assert d_h_sum(star_h(TREE, TREE)) == star_h(ONELOOP, TREE) - star_h(
        TREE, ONELOOP
    )
    for n in range(6):
        for g in range(n + 1):
            for t in enumerate_graphs(n, g):
                assert d_h_sum(d_h_graph(t)).is_zero()
    assert project_regular(d_h_sum(star_h(TREE, ONELOOP))).is_zero()
    assert project_regular(d_h_sum(star_h(ONELOOP, TREE))).is_zero()
    done(8, "differential values, squares to zero, closed products")


def test_c09_cohomology():
    assert cohomology_dim(2, 1, "toprec") == 1
    assert cohomology_dim(1, 1, "toprec") == 0
    done(9, "word-complex cohomology dimensions")


def test_c10_simplicial_suite():
    for n in range(2, 5):
        for t in trees.enumerate_trees(n):
            for j in range(n + 1):
                for i in range(j):
                    assert trees.face(i, trees.face(j, t)) == trees.face(
                        j - 1, trees.face(i, t)
                    )
    for n in range(5):
        for t in trees.enumerate_trees(n):
            for j in range(n + 1):
                s = trees.degeneracy(j, t)
                for i in range(n + 2):
                    if i < j:
                        assert trees.face(i, s) == trees.degeneracy(
                            j - 1, trees.face(i, t)
                        )
                    elif i in (j, j + 1):
                        assert trees.face(i, s) == t
                    else:
                        assert trees.face(i, s) == trees.degeneracy(
                            j, trees.face(i - 1, t)
                        )
                for i in range(j):
                    assert trees.degeneracy(i, s) == trees.degeneracy(
                        j + 1, trees.degeneracy(i, t)
                    )
    for n in range(2, 7):
        for t in trees.enumerate_trees(n):
            assert border_tree(t).map_basis(border_tree).is_zero()
    for n in range(1, 6):
        for t in trees.enumerate_trees(n):
            dh = border_tree(extra_degeneracy(t))
            hd = border_tree(t).map_basis(extra_degeneracy)
            assert dh + hd == LinComb.basis(t)
    for n in range(1, 6):
        assert border_homology_dim(n) == 0
    done(10, "simplicial relations, border^2 = 0, homotopy, trivial homology")


def test_c11_airy():
    w03 = airy_correlator(0, 3)
    assert expansion(w03).coeffs == {(-2, -2, -2): Fraction(1, 2)}
    w11 = airy_correlator(1, 1)
    assert expansion(w11).coeffs == {(-4,): Fraction(1, 16)}
    for g, k in [(0, 4), (1, 2), (2, 1)]:
        poly = expansion(airy_correlator(g, k))
        for exps in poly.coeffs:
            assert sum(exps) == -(6 * g - 6 + 4 * k)
            assert all(e % 2 == 0 and e <= -2 for e in exps)
        for perm in iter_perms(range(k)):
            assert poly.permute_vars(perm) == poly
        base = default_truncation(g, k)
        assert _residue_recursion(g, k, base) == _residue_recursion(g, k, base + 4)
    done(11, "Airy values exact, higher correlators pass all invariants")


def test_c12_cli(capsys):
    goldens = [
        (["cohomology", "--order", "2", "--genus", "1", "--space", "toprec"], "1\n"),
        (["airy", "--genus", "1", "--legs", "1"], "1/16 * p^-4\n"),
        (["product", "(|o|)", "(|o|)", "--algebra", "full"], "(|o(|o|)) + ((|o|)o|)\n"),
    ]
    for argv, expected in goldens:
        assert run(argv) == 0
        assert capsys.readouterr().out == expected
    for n in range(7):
        for g in range(n + 1):
            for t in enumerate_graphs(n, g):
                text = str(LinComb.basis(t))
                assert parse(text, "graph-sum") == LinComb.basis(t)
    done(12, "CLI goldens byte-exact, parse/print round-trip through order 6")
