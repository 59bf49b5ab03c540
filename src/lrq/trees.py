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


def face(i: int, t: LoopGraph) -> LoopGraph:
    """Erase the leaf in position i, fusing the freed edge through its parent."""
    _require_tree(t)
    if t.is_leaf:
        raise ValueError("face undefined on the bare leaf")
    if not 0 <= i <= t.order:
        raise IndexError(f"leaf index {i} out of range 0..{t.order}")
    p = t.left.order
    if i <= p:
        return t.right if t.left.is_leaf else LoopGraph(face(i, t.left), t.right)
    return t.left if t.right.is_leaf else LoopGraph(t.left, face(i - p - 1, t.right))


def degeneracy(i: int, t: LoopGraph) -> LoopGraph:
    """Bifurcate the leaf in position i (replace it by a new vertex)."""
    _require_tree(t)
    if not 0 <= i <= t.order:
        raise IndexError(f"leaf index {i} out of range 0..{t.order}")
    if t.is_leaf:
        return LoopGraph(LEAF, LEAF)
    p = t.left.order
    if i <= p:
        return LoopGraph(degeneracy(i, t.left), t.right)
    return LoopGraph(t.left, degeneracy(i - p - 1, t.right))


def extra_degeneracy(t: LoopGraph) -> LoopGraph:
    """Graft a bare leaf on the left; a contracting homotopy for the border."""
    _require_tree(t)
    return LoopGraph(LEAF, t)


def perm_to_tree(perm) -> LoopGraph:
    """Tree of a permutation word, forgetting levels.

    The word (one-line notation) labels the vertex slots 1..n left to right;
    the root sits in the slot holding the maximum, and the construction
    recurses on the left/right subwords.
    """
    word = tuple(perm)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation word: {word!r}")

    def build(w: tuple[int, ...]) -> LoopGraph:
        if not w:
            return LEAF
        i = w.index(max(w))
        return LoopGraph(build(w[:i]), build(w[i + 1:]))

    return build(word)
