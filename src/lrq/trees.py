"""Planar binary trees as the genus-0 loop graphs: enumeration, grafting, and
the simplicial operators.

A tree is a `LoopGraph` without loop marks: the bare leaf ``|`` or an ordered
pair of subtrees under an unlooped root.  Its order is the number of internal
vertices, and the leaves of an order-n tree are numbered 0..n from left to
right.  The printed grammar is ``tree := "|" | "(" tree "v" tree ")"``.  The
simplicial operators reject graphs that carry loops.
"""

from __future__ import annotations

from functools import lru_cache

from .loopgraphs import LEAF, LoopGraph, enumerate_graphs


def _require_tree(t: LoopGraph) -> None:
    if t.genus:
        raise ValueError(f"expected an unmarked tree, got genus {t.genus}: {t}")


def graft(t1: LoopGraph, t2: LoopGraph) -> LoopGraph:
    """Join t1 (left) and t2 (right) under a new root vertex."""
    return LoopGraph(t1, t2)


def ungraft(t: LoopGraph) -> tuple[LoopGraph, LoopGraph]:
    """The unique decomposition of a non-leaf tree into its two branches."""
    if t.is_leaf:
        raise ValueError("leaf has no decomposition")
    return t.left, t.right


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple[LoopGraph, ...]:
    return tuple(enumerate_graphs(n, 0))


def enumerate_trees(n: int) -> list[LoopGraph]:
    """All trees of order n, each exactly once, in canonical order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return list(_trees(n))


def _path_to_leaf(i: int, t: LoopGraph) -> list[tuple[LoopGraph, bool]]:
    """The turns from the root of t down to its leaf i, each a vertex and
    whether the walk went right there; a walk, so any depth is fine."""
    if not 0 <= i <= t.order:
        raise IndexError(f"leaf index {i} out of range 0..{t.order}")
    path = []
    while not t.is_leaf:
        p = t.left.order
        right = i > p
        path.append((t, right))
        if right:
            i -= p + 1
            t = t.right
        else:
            t = t.left
    return path


def _regraft(path: list[tuple[LoopGraph, bool]], sub: LoopGraph) -> LoopGraph:
    """Rebuild the tree of `path` bottom-up with sub where the path ends."""
    for node, right in reversed(path):
        sub = LoopGraph(node.left, sub) if right else LoopGraph(sub, node.right)
    return sub


def face(i: int, t: LoopGraph) -> LoopGraph:
    """Erase the leaf in position i, fusing the freed edge through its parent."""
    _require_tree(t)
    if t.is_leaf:
        raise ValueError("face undefined on the bare leaf")
    path = _path_to_leaf(i, t)
    parent, right = path.pop()
    return _regraft(path, parent.left if right else parent.right)


def degeneracy(i: int, t: LoopGraph) -> LoopGraph:
    """Bifurcate the leaf in position i (replace it by a new vertex)."""
    _require_tree(t)
    return _regraft(_path_to_leaf(i, t), LoopGraph(LEAF, LEAF))


def extra_degeneracy(t: LoopGraph) -> LoopGraph:
    """Graft a bare leaf on the left; a contracting homotopy for the border."""
    _require_tree(t)
    return LoopGraph(LEAF, t)


def perm_to_tree(perm) -> LoopGraph:
    """Tree of a permutation word, forgetting levels.

    The word (one-line notation) labels the vertex slots 1..n left to right;
    the root sits in the slot holding the maximum, and the left and right
    subwords give the two subtrees: the Cartesian tree of the word by
    maximum.  It is built in O(n) without recursion.  A stack holds the
    right spine of the tree read so far, each entry a letter with its left
    subtree; a new letter pops the smaller letters, each of which closes
    with the subtree closed before it on its right, and the last one closed
    becomes the new letter's left subtree.

    Summing a tree's class, ι(t) = Σ{σ : perm_to_tree(σ) = t}, is a
    bialgebra morphism into `lrq.permutations`: `star_perm` of ι(t) and
    ι(u) is ι(star_h(t, u)), and `coproduct_perm` of ι(t) is (ι⊗ι) of
    `delta_h(t)` (Loday–Ronco; Hivert–Novelli–Thibon).  The tests check
    both for every pair of orders at most 3 and every tree of order at most
    6.
    """
    word = tuple(perm)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation word: {word!r}")
    spine: list[tuple[int, LoopGraph]] = []
    for x in word:
        closed = LEAF
        while spine and spine[-1][0] < x:
            closed = LoopGraph(spine.pop()[1], closed)
        spine.append((x, closed))
    closed = LEAF
    while spine:
        closed = LoopGraph(spine.pop()[1], closed)
    return closed
