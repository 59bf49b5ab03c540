"""Loop graphs: planar binary trees whose vertices may carry a loop mark.

This is the package's one node type: a planar binary tree is a loop graph of
genus 0 (see `lrq.trees` for the tree operators).

A loop joining the consecutive leaves (i, i+1) of the underlying tree is
stored as a mark on the unique vertex that is the lowest common ancestor of
those leaves; the index i is the vertex's slot.  Each graph carries its
looped slots as one integer, ``slots``, with bit i set when the vertex in
slot i is looped; it is built with the node from the children's masks, so
reading the loop marks never walks the graph.  Genus counts the marks, and
the total order of a graph is order + genus.  The printed grammar extends
the tree grammar: ``graph := "|" | "(" graph "v" graph ")" | "(" graph "o" graph ")"``
with "o" marking a looped root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

# Canonical order on printed strings puts "|" before "(".
_RANK = str.maketrans("|()vo@", "012345")


def rank_string(s: str) -> str:
    return s.translate(_RANK)


@dataclass(frozen=True, eq=False)
class LoopGraph:
    """An immutable loop graph (leaf when both children are None)."""

    left: "LoopGraph | None" = None
    right: "LoopGraph | None" = None
    looped: bool = False
    order: int = field(init=False, compare=False, repr=False, default=0)
    genus: int = field(init=False, compare=False, repr=False, default=0)
    slots: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a graph vertex needs both subtrees")
        if self.left is None:
            if self.looped:
                raise ValueError("a bare leaf cannot carry a loop")
            object.__setattr__(self, "_str", "|")
        else:
            p = self.left.order
            slots = self.left.slots | self.looped << p | self.right.slots << (p + 1)
            object.__setattr__(self, "order", p + self.right.order + 1)
            object.__setattr__(self, "slots", slots)
            object.__setattr__(self, "genus", slots.bit_count())
            mark = "o" if self.looped else "v"
            object.__setattr__(self, "_str", f"({self.left}{mark}{self.right})")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def total_order(self) -> int:
        return self.order + self.genus

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"LoopGraph<{self._str}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopGraph):
            return NotImplemented
        return self._str == other._str

    def __hash__(self) -> int:
        return hash(self._str)

    def __lt__(self, other: "LoopGraph") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> str:
        return rank_string(self._str)


LEAF = LoopGraph()
TREE = LoopGraph(LEAF, LEAF)            # the elementary tree (|v|)
ONELOOP = LoopGraph(LEAF, LEAF, True)   # the elementary one-loop graph (|o|)


def vee(a: LoopGraph, b: LoopGraph) -> LoopGraph:
    """Graft under an unlooped root; genus adds."""
    return LoopGraph(a, b, False)


def bridge(a: LoopGraph, b: LoopGraph) -> LoopGraph:
    """Graft under a looped root; genus is the sum plus one."""
    return LoopGraph(a, b, True)


def decompose(t: LoopGraph) -> tuple[LoopGraph, LoopGraph, bool]:
    """The unique (left, right, root looped) decomposition of a non-leaf graph."""
    if t.is_leaf:
        raise ValueError("leaf has no decomposition")
    return t.left, t.right, t.looped


def underlying_tree(t: LoopGraph) -> LoopGraph:
    """Forget the loop marks: the genus-0 graph of the same shape."""
    if t.genus == 0:
        return t
    return LoopGraph(underlying_tree(t.left), underlying_tree(t.right), False)


def loop_slots(t: LoopGraph) -> frozenset[int]:
    """Slots (in underlying-tree leaf numbering) whose vertex is looped.

    The vertex in slot i is the lowest common ancestor of leaves i and i+1,
    so its loop joins exactly that pair of leaves.
    """
    return frozenset(i for i in range(t.order) if t.slots >> i & 1)


def is_regular(t: LoopGraph) -> bool:
    """True iff no leaf belongs to two loops (no two adjacent looped slots)."""
    return not t.slots & (t.slots >> 1)


def contract(i: int, t: LoopGraph) -> LoopGraph | None:
    """Loop the vertex in slot i, raising the genus by one.

    Returns None (the zero element) when the slot does not exist or its
    vertex is already looped.  The result may be irregular.
    """
    if i < 0:
        raise IndexError("slot index must be nonnegative")
    if t.is_leaf:
        return None
    p = t.left.order
    if i == p:
        return None if t.looped else LoopGraph(t.left, t.right, True)
    if i < p:
        sub = contract(i, t.left)
        return None if sub is None else LoopGraph(sub, t.right, t.looped)
    sub = contract(i - p - 1, t.right)
    return None if sub is None else LoopGraph(t.left, sub, t.looped)


@lru_cache(maxsize=None)
def _graphs(n: int, g: int) -> tuple[LoopGraph, ...]:
    if g < 0 or g > n:
        return ()
    if n == 0:
        return (LEAF,)
    out = []
    for p in range(n):
        q = n - 1 - p
        for looped in (False, True):
            rest = g - (1 if looped else 0)
            for g1 in range(rest + 1):
                for a in _graphs(p, g1):
                    for b in _graphs(q, rest - g1):
                        out.append(LoopGraph(a, b, looped))
    out.sort(key=LoopGraph.sort_key)
    return tuple(out)


def enumerate_graphs(n: int, g: int, regular_only: bool = False) -> list[LoopGraph]:
    """All loop graphs of order n and genus g in canonical order.

    There are Catalan(n) * binomial(n, g) of them; the regular filter keeps
    those whose loops touch pairwise disjoint leaf pairs.
    """
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")
    graphs = _graphs(n, g)
    if regular_only:
        return [t for t in graphs if is_regular(t)]
    return list(graphs)


def count_graphs(n: int, g: int) -> int:
    """Closed-form count of unrestricted graphs: Catalan(n) * binomial(n, g)."""
    catalan = comb(2 * n, n) // (n + 1)
    return catalan * comb(n, g)


def signature(t: LoopGraph) -> tuple[int, int, int]:
    """(genus, external legs, Euler characteristic) of a regular graph.

    Legs count all external labels including the root: k = n + 2 - 2g, and
    the Euler characteristic is -n.  Irregular graphs admit no surface
    interpretation and are rejected.
    """
    if not is_regular(t):
        raise ValueError("irregular graph has no surface interpretation")
    n, g = t.order, t.genus
    return g, n + 2 - 2 * g, -n
