"""Trees: enumeration against the Catalan oracle, simplicial relations."""

import contextlib
import io
from itertools import permutations as iter_perms
from math import comb

import pytest

from lrq.cli import run
from lrq.exprs import parse
from lrq.loopgraphs import LoopGraph
from lrq.trees import (
    LEAF,
    degeneracy,
    enumerate_trees,
    extra_degeneracy,
    face,
    graft,
    perm_to_tree,
    ungraft,
)

V = graft(LEAF, LEAF)  # the one-vertex tree (|v|)


def t(s: str) -> LoopGraph:
    """Tiny tree literal helper for tests."""
    return parse(s, "graph-sum").single_basis()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def test_graft_examples():
    assert str(graft(LEAF, LEAF)) == "(|v|)"
    assert str(graft(LEAF, V)) == "(|v(|v|))"
    assert str(graft(V, V)) == "((|v|)v(|v|))"


def test_graft_order_and_roundtrip():
    for n in range(5):
        for a in enumerate_trees(n):
            for b in enumerate_trees(3 - n if n <= 3 else 0):
                g = graft(a, b)
                assert g.order == a.order + b.order + 1
                assert ungraft(g) == (a, b)


def test_ungraft_examples():
    assert ungraft(V) == (LEAF, LEAF)
    assert ungraft(graft(LEAF, V)) == (LEAF, V)
    with pytest.raises(ValueError):
        ungraft(LEAF)


def test_enumerate_counts_catalan():
    for n in range(9):
        assert len(enumerate_trees(n)) == catalan(n)


def test_enumerate_small_orders():
    assert enumerate_trees(0) == [LEAF]
    assert [str(u) for u in enumerate_trees(2)] == ["(|v(|v|))", "((|v|)v|)"]
    assert len(enumerate_trees(3)) == 5


def test_enumerate_canonical_and_distinct():
    for n in range(7):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        assert [u.sort_key() for u in ts] == sorted(u.sort_key() for u in ts)


def test_face_examples():
    assert face(0, V) == LEAF
    assert face(1, t("(|v(|v|))")) == V
    assert face(2, t("((|v|)v|)")) == V


def test_face_errors():
    with pytest.raises(ValueError):
        face(0, LEAF)
    with pytest.raises(IndexError):
        face(3, V)
    with pytest.raises(IndexError):
        face(-1, V)


def test_simplicial_operators_reject_loops():
    loop = t("(|o|)")
    with pytest.raises(ValueError):
        face(0, loop)
    with pytest.raises(ValueError):
        degeneracy(0, loop)
    with pytest.raises(ValueError):
        extra_degeneracy(loop)
    # A loop below the root is rejected too, before the index is checked.
    with pytest.raises(ValueError):
        face(5, t("(|v(|o|))"))


def test_degeneracy_examples():
    assert degeneracy(0, LEAF) == V
    assert degeneracy(0, V) == t("((|v|)v|)")
    assert degeneracy(1, V) == t("(|v(|v|))")
    with pytest.raises(IndexError):
        degeneracy(2, V)


def face_by_recursion(i: int, tree: LoopGraph) -> LoopGraph:
    """Oracle: the face as the recursion on the branch holding leaf i."""
    p = tree.left.order
    if i <= p:
        if tree.left.is_leaf:
            return tree.right
        return LoopGraph(face_by_recursion(i, tree.left), tree.right)
    if tree.right.is_leaf:
        return tree.left
    return LoopGraph(tree.left, face_by_recursion(i - p - 1, tree.right))


def degeneracy_by_recursion(i: int, tree: LoopGraph) -> LoopGraph:
    """Oracle: the degeneracy as the recursion on the branch holding leaf i."""
    if tree.is_leaf:
        return V
    p = tree.left.order
    if i <= p:
        return LoopGraph(degeneracy_by_recursion(i, tree.left), tree.right)
    return LoopGraph(tree.left, degeneracy_by_recursion(i - p - 1, tree.right))


def test_face_and_degeneracy_equal_their_recursions():
    for n in range(7):
        for tree in enumerate_trees(n):
            for i in range(n + 1):
                if n:
                    assert face(i, tree) is face_by_recursion(i, tree)
                assert degeneracy(i, tree) is degeneracy_by_recursion(i, tree)


def test_face_face_relation():
    # d_i d_j = d_{j-1} d_i for i < j, exhaustively through order 5
    # (composites leave order >= 2, the smallest order where both are defined)
    for n in range(2, 6):
        for tree in enumerate_trees(n):
            for j in range(n + 1):
                for i in range(j):
                    assert face(i, face(j, tree)) == face(j - 1, face(i, tree))


def test_face_degeneracy_relations():
    for n in range(5):
        for tree in enumerate_trees(n):
            for j in range(n + 1):
                s = degeneracy(j, tree)
                for i in range(n + 2):
                    got = face(i, s)
                    if i < j:
                        assert got == degeneracy(j - 1, face(i, tree))
                    elif i in (j, j + 1):
                        assert got == tree
                    else:
                        assert got == degeneracy(j, face(i - 1, tree))


def test_degeneracy_degeneracy_relation():
    # s_i s_j = s_{j+1} s_i for i < j only; nothing is claimed at i = j.
    for n in range(5):
        for tree in enumerate_trees(n):
            for j in range(n + 1):
                for i in range(j):
                    assert degeneracy(i, degeneracy(j, tree)) == degeneracy(
                        j + 1, degeneracy(i, tree)
                    )


def test_extra_degeneracy_examples():
    assert extra_degeneracy(LEAF) == V
    assert extra_degeneracy(V) == t("(|v(|v|))")
    assert extra_degeneracy(t("((|v|)v|)")) == t("(|v((|v|)v|))")


def test_perm_to_tree_examples():
    assert perm_to_tree([1]) == V
    assert perm_to_tree([1, 3, 2]) == t("((|v|)v(|v|))")
    assert perm_to_tree([1, 2]) != perm_to_tree([2, 1])
    assert {perm_to_tree([1, 2]), perm_to_tree([2, 1])} == set(enumerate_trees(2))


def perm_to_tree_recursive(word) -> LoopGraph:
    """Oracle: the root in the slot of the maximum, the subwords on either
    side as its subtrees."""
    if not word:
        return LEAF
    i = word.index(max(word))
    return LoopGraph(perm_to_tree_recursive(word[:i]), perm_to_tree_recursive(word[i + 1:]))


def test_perm_to_tree_is_the_recursive_cartesian_tree():
    for n in range(8):
        for word in iter_perms(range(1, n + 1)):
            assert perm_to_tree(word) is perm_to_tree_recursive(word), word


@pytest.mark.parametrize("word", [range(1, 1501), range(1500, 0, -1)])
def test_perm_to_tree_of_a_long_monotone_word_prints_and_parses(word):
    tree = perm_to_tree(word)
    assert tree.order == 1500
    text = str(tree)
    assert len(text) == 4 * 1500 + 1
    assert parse(text, "graph-sum").single_basis() is tree
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["tree-of-perm", f"[{','.join(map(str, word))}]"]) == 0
    assert out.getvalue() == text + "\n"


def test_perm_to_tree_rejects_bad_words():
    with pytest.raises(ValueError):
        perm_to_tree([1, 1])
    with pytest.raises(ValueError):
        perm_to_tree([2, 3])
