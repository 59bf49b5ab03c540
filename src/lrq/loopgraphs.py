"""Loop graphs: planar binary trees whose vertices may carry a loop mark.

This is the package's one node type: a planar binary tree is a loop graph of
genus 0 (see `lrq.trees` for the tree operators).

A loop joining the consecutive leaves (i, i+1) of the underlying tree is
stored as a mark on the unique vertex that is the lowest common ancestor of
those leaves; the index i is the vertex's slot.  In a graph with
p = left.order the left subtree holds slots 0..p-1, the root is slot p, and
the right subtree holds the slots from p+1 on.  A graph is its tree shape
together with the integer ``slots``, with bit i set when the vertex in slot
i is looped, and a node stores exactly that: its two subtrees, which are
trees (genus-0 nodes), and its whole mask.  Its key in the interning table
is (left tree, right tree, slots).  Genus counts the marks, and the total
order of a graph is order + genus.  Every (shape, mask) pair occurs exactly
once, and `with_slots(t, mask)` is the graph of t's shape with that mask,
found by one lookup; so adding a loop (`contract`) and forgetting the loops
(`with_slots(t, 0)`) are mask operations.  The subgraphs ``left`` and
``right`` and the root's mark ``looped`` are read from the mask, and a
subgraph is interned only when it is asked for.

The printed grammar extends the tree grammar:
``graph := "|" | "(" graph "v" graph ")" | "(" graph "o" graph ")"``
with "o" marking a looped root.  The marks of a printed graph appear in slot
order, left subtree before root before right subtree, so a graph prints as
its shape's string, made from its two subtrees' strings, with the i-th "v"
replaced by "o" for each looped slot i; no subgraph is built to print it.

Canonical order is the order of the printed strings, ranked
``| ( ) v o``, and every graph family is built in that order, so no list of
graphs is ever sorted.  Lemma: a printed graph is balanced, so no graph's
string is a proper prefix of another's; hence two strings ``(L m R)`` and
``(L' m' R')`` first differ inside L and L' unless L = L', then at the
marks, then inside R and R', and (L m R) compares as the triple (L, m, R).
Proof of the first claim: in a string (L m R) the first "(" is closed by
the last character, so every nonempty proper prefix has more "(" than ")",
while a graph string has as many of each; and the leaf "|" begins no other
graph string, as they all begin with "(".  Three consequences:

- A family in order.  The graphs of order n and genus g, of every mask or
  only the regular ones, are (L m R) with L running in canonical order over
  the graphs of order at most n-1, genus at most g and at most n-g unlooped
  vertices, the root mark running "v" before "o" ("v" skipped when no
  unlooped vertex is left, "o" when no loop is, and in the regular family
  when slot p-1 of L or slot 0 of R is looped), and R over the graphs of
  order n-1-|L| with the genus that is left.  The list of L is the same
  recursion, bounded in order, genus and unlooped vertices, with the leaf
  first (`_walk`); in the family of every mask each L in it is completed
  by some R.
- One mask sorts as its shapes.  Two graphs with the same mask print as
  their shapes' strings with the same i-th mark at each i-th "v"; at the
  first position where the shape strings differ at most one has a "v", and
  both "v" and "o" rank above ")", "(" and "|".  So `shape_keys(n, mask)`
  is the tree walk with the mask put on each shape.
- A family in blocks.  As (L m R) compares as the triple, the graphs of a
  family that share one left graph L and one root mark m are consecutive,
  and their R run, in order, over one family of order n-1-|L| (in the
  regular family under "o", the members of that family whose slot 0 is
  unlooped).  So `_walk` yields a family as blocks (L, m, run of R), and a
  printer writes a block as one join, ``pre + (")" + sep + pre).join(R
  strings) + ")"`` with ``pre = "(" + L + m``.  The list of L holds every
  graph of each order and genus it bounds, in canonical order, so cut to
  one order and genus it is that family in order, and each L is read as
  the next member of its own family.

The walk keeps three memos, all keyed (order, genus, unlooped vertices,
regular, exact).  `_lists` holds the orders and slot masks of the lists and
families, and builds no graph.  The family tables hold one entry per graph
of a family: `_pairs` the interned tree shapes, which `family_keys` and
`shape_keys` put into keys, and `_texts` the printed graphs, which
`family_text` writes.  A graph's string is built once, from its L's string,
its mark and its R's string, and every block that holds it shares that one
string.  So `lrq
correlator`, `lrq enumerate` and `str(full_correlator(n))` print their
graphs from the text tables, interning no graph and reading no node table,
while `lrq psi` writes the keys of `shape_keys` one at a time with
`key_str`.

Nodes are hash-consed: ``LoopGraph(left, right, looped)`` returns the one
node with that shape and mask, building it only the first time.  So two
graphs are equal exactly when they are the same object, and equality and
hashing are the identity ones of `object`, which the memo caches and the
sums of `lrq.freemodule` use without calling back into Python.  Order,
genus, slot mask and total order are stored when a node is built, and nodes
are immutable.  The string is built lazily, when a graph is first printed or
sorted, and kept; a tree's string is built from its subtrees' strings, with
recursion bounded by `_KEPT_STRING_ORDER`, so a graph of any depth prints.

Interned nodes live for the whole process: the table holds every node ever
built, and so do the memo caches of `_graphs`, the walk and `lrq.hopfops`.
On CPython 3.11 a node takes 88 bytes and its table entry (a 3-tuple key
and a dict slot) about 100 more.  After reading the sum of every genus of
`full_correlator(8)` (`exp[g]`) and `del` of the sums, 15.7 MiB stay held
for 79 274 nodes, tables included, and 22.2 MiB if each sum was printed, as
every graph then keeps its string.  Printing the expansion (`str`) holds
3.0 MiB, the order and text tables of orders at most 7, and builds no node;
`lrq correlator --order 9` in the same process then holds 13.8 MiB more.
The text tables then hold 8.2 MiB, one string for each of the 97 000 or so
regular graphs of orders at most 8, and the order lists 8.3 MiB (two
parallel tuples, 16 bytes an entry).  The same graphs recur across
products, coproducts, enumerations and CLI requests, so each is built and
printed once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import comb
from operator import lshift

# Canonical order on printed strings puts "|" before "(".
_RANK = str.maketrans("|()vo@", "012345")


def rank_string(s: str) -> str:
    return s.translate(_RANK)


# The interning table: the one node of each key (left tree, right tree,
# slots); the leaf's subtrees are None.  Trees hash by identity, so a key
# hashes without calling back into Python.
_NODES: dict[tuple, "LoopGraph"] = {}

# A tree keeps its string once printed.  A tree of at most this order is
# printed from its subtrees' strings, which it prints and keeps first; a
# larger one is written out piece by piece down to such subtrees, and its
# larger subtrees keep no string, so printing a tree n levels deep keeps
# O(n) characters, not O(n^2).
_KEPT_STRING_ORDER = 64

# Bit i of a mask, written in slot order, as the mark of slot i.
_MARK = str.maketrans("01", "vo")


def graph_of(key: tuple) -> "LoopGraph":
    """The interned node of a key (left tree, right tree, slots), the left
    and right trees None for the leaf, such as the keys that `family_keys`
    and `shape_keys` yield; `LoopGraph.__init__` runs only for a key not
    seen before."""
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = type.__call__(LoopGraph, *key)
    return node


class _Interned(type):
    """Calling the class with (left graph, right graph, looped) returns the
    interned node of that shape and mask; a rejected node is not kept."""

    def __call__(cls, left=None, right=None, looped=False):
        if (left is None) != (right is None):
            raise ValueError("a graph vertex needs both subtrees")
        if left is None:
            if looped:
                raise ValueError("a bare leaf cannot carry a loop")
            return graph_of((None, None, 0))
        p = left.order
        slots = left.slots | bool(looped) << p | right.slots << (p + 1)
        return graph_of((with_slots(left, 0), with_slots(right, 0), slots))


class LoopGraph(metaclass=_Interned):
    """An immutable, interned loop graph (the leaf when it has no subtrees).

    Equal graphs are the same object, so equality and hashing are by
    identity.
    """

    __slots__ = ("_ltree", "_rtree", "order", "genus", "slots",
                 "total_order", "_str")

    def __init__(self, ltree: "LoopGraph | None", rtree: "LoopGraph | None",
                 slots: int):
        order = 0 if ltree is None else ltree.order + rtree.order + 1
        genus = slots.bit_count()
        _set_ltree(self, ltree)
        _set_rtree(self, rtree)
        _set_order(self, order)
        _set_genus(self, genus)
        _set_slots(self, slots)
        _set_total_order(self, order + genus)
        _set_str(self, "|" if ltree is None else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"LoopGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LoopGraph is immutable: cannot delete {name!r}")

    @property
    def is_leaf(self) -> bool:
        return self._ltree is None

    @property
    def left(self) -> "LoopGraph | None":
        """The left subgraph: the left subtree with the slots below the root."""
        t = self._ltree
        return t if t is None else with_slots(t, self.slots & ~(-1 << t.order))

    @property
    def right(self) -> "LoopGraph | None":
        """The right subgraph: the right subtree with the slots above the root."""
        t = self._rtree
        return t if t is None else with_slots(t, self.slots >> (self.order - t.order))

    @property
    def looped(self) -> bool:
        """Whether the root (slot left.order) carries a loop."""
        return self._ltree is not None and bool(self.slots >> self._ltree.order & 1)

    def __str__(self) -> str:
        text = self._str
        if text is None:
            if self.order > _KEPT_STRING_ORDER and not self.slots:
                text = _print_tree(self)
            else:
                text = key_str((self._ltree, self._rtree, self.slots))
            _set_str(self, text)
        return text

    def __repr__(self) -> str:
        return f"LoopGraph<{self}>"

    def sort_key(self) -> str:
        return rank_string(str(self))


# The setters of the slots, bound once: a node sets its slots through them,
# past the __setattr__ that refuses every assignment.
(_set_ltree, _set_rtree, _set_order, _set_genus, _set_slots, _set_total_order,
 _set_str) = (LoopGraph.__dict__[name].__set__ for name in LoopGraph.__slots__)


def key_str(key: tuple) -> str:
    """The printed graph of a key (left tree, right tree, slots), without
    interning it: the shape's string, made from the two subtrees' strings,
    with the i-th "v" replaced by "o" for each looped slot i."""
    ltree, rtree, slots = key
    if ltree is None:
        return "|"
    # The subtrees are trees: a subtree printed before is read without a
    # call, and a call recurses at most _KEPT_STRING_ORDER levels.
    text = f"({ltree._str or str(ltree)}v{rtree._str or str(rtree)})"
    if slots:
        text = text.replace("v", "%s") % _marks(ltree.order + rtree.order + 1, slots)
    return text


def graph_terms(keys):
    """(printed graph, 1) for each graph key, interning no graph: the terms
    that `freemodule.sum_text` and the CLI's --json writer print."""
    return zip(map(key_str, keys), repeat(1))


@lru_cache(maxsize=None)
def _marks(n: int, slots: int) -> tuple[str, ...]:
    """The marks of slots 0..n-1 in order: "o" for each bit of slots, else
    "v".  One entry per mask printed, no larger than the strings kept."""
    return tuple(format(slots, f"0{n}b")[::-1].translate(_MARK))


def _print_tree(t: LoopGraph) -> str:
    """The string of a tree of order above _KEPT_STRING_ORDER, without
    recursion: its larger subtrees are written out piece by piece from a
    stack, down to subtrees of order at most _KEPT_STRING_ORDER."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.order <= _KEPT_STRING_ORDER or item._str is not None:
            out.append(str(item))
        else:
            todo += (")", item._rtree, "v", item._ltree, "(")
    return "".join(out)


def with_slots(t: LoopGraph, mask: int) -> LoopGraph:
    """The graph of t's tree shape whose looped slots are the bits of mask.

    Raises ValueError, interning nothing, when mask has a bit at or above
    t.order (or is negative).
    """
    if mask == t.slots:
        return t
    if mask >> t.order:
        raise ValueError(f"slot mask {mask} does not fit order {t.order}")
    return graph_of((t._ltree, t._rtree, mask))


LEAF = LoopGraph()
TREE = LoopGraph(LEAF, LEAF)            # the elementary tree (|v|)
ONELOOP = LoopGraph(LEAF, LEAF, True)   # the elementary one-loop graph (|o|)


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
    """Loop the vertex in slot i, raising the genus by one: the same shape
    with bit i added to the mask.

    Returns None (the zero element) when the slot does not exist or its
    vertex is already looped.  The result may be irregular.
    """
    if i < 0:
        raise IndexError("slot index must be nonnegative")
    if i >= t.order or t.slots >> i & 1:
        return None
    return with_slots(t, t.slots | 1 << i)


def slot_masks(n: int, g: int, regular: bool) -> list[int]:
    """The n-bit masks with g set bits, in the regular case only those with
    no two adjacent set bits; in the order of `itertools.combinations`.

    The regular masks are built directly: adding i to the i-th of g slots
    taken from n - g + 1 is an increasing bijection onto the g-subsets of n
    slots with no two adjacent, so they come in the same order.  Each mask
    is one sum over a combination of the powers 2^b, the i-th shifted by i
    in the regular case."""
    if regular:
        steps = range(g)
        return [sum(map(lshift, powers, steps))
                for powers in combinations([1 << b for b in range(n - g + 1)], g)]
    return list(map(sum, combinations([1 << b for b in range(n)], g)))


def _walk(n: int, g: int, c: int, regular: bool, exact: bool, table):
    """The graphs of order n and genus g, so with c = n - g unlooped
    vertices (exact), or of order at most n, genus at most g and at most c
    unlooped vertices (not exact), of every mask or only the regular ones,
    in canonical order, as blocks: None for the leaf, which comes first,
    then (L, slots, p, mark, Rs, rslots) for the graphs (L m R) with one
    left graph L of order p and one root mark m, whose slots are `slots |
    r << (p + 1)` for the slots r of each right graph.  The run Rs is never
    empty.  L and Rs are entries of `table`: the node table `_pairs`, the
    text table `_texts`, or `_orders`.

    The left graphs L run over the list of `_lists` one order lower.  That
    list, cut to one order and genus, is the family of that order and genus
    in order (`_lists`), so each L is the next entry of its family's table.
    """
    if c < 0:
        return
    if not exact or n == g == 0:
        yield None
    if n == 0:
        return
    # The entries of each (order, genus) of L, and its runs of right
    # graphs under an unlooped and a looped root, found once per walk.
    runs = {}
    for p, lslots in zip(*_lists(n - 1, g, c, regular, False)):
        gl = lslots.bit_count()
        run = runs.get((p, gl))
        if run is None:
            run = runs[p, gl] = _runs(n, g, c, regular, exact, table, p, gl)
        lefts, unlooped, looped = run
        left = next(lefts)
        if unlooped:
            yield left, lslots, p, "v", *unlooped
        # In the regular family a looped root needs slot p - 1 unlooped.
        if looped and not (regular and lslots << 1 >> p & 1):
            yield left, lslots | 1 << p, p, "o", *looped


def _runs(n: int, g: int, c: int, regular: bool, exact: bool, table, p: int, gl: int):
    """For the walk of `_walk(n, g, c, regular, exact, table)`, over its
    left graphs L of order p and genus gl: an iterator over the entries of
    those L in order, and the runs (Rs, rslots) of right graphs under an
    unlooped and a looped root, each None when empty.  An unlooped root
    needs an unlooped vertex left, a looped one a loop left and, in the
    regular family, no looped slot next to it: slot p + 1 is slot 0 of R."""
    rest, crest = g - gl, c - p + gl
    unlooped = looped = None
    if crest:
        key = n - 1 - p, rest, crest - 1, regular, exact
        rights = table(*key)
        if rights:
            unlooped = rights, _lists(*key)[1]
    if rest:
        key = n - 1 - p, rest - 1, crest, regular, exact
        rights, rslots = table(*key), _lists(*key)[1]
        if regular:
            free = [(r, s) for r, s in zip(rights, rslots) if not s & 1]
            rights, rslots = [r for r, _ in free], [s for _, s in free]
        if rights:
            looped = rights, rslots
    return iter(table(p, gl, p - gl, regular, True)), unlooped, looped


@lru_cache(maxsize=None)
def _lists(n: int, g: int, c: int, regular: bool, exact: bool) -> tuple[tuple, tuple]:
    """The graphs of `_walk` as two parallel tuples, orders and slot masks,
    kept for the smaller orders that the walk of a larger one reads again
    and again; no graph is built.  A family of one order and genus is, in
    order, the graphs of the list of order and genus at most its own that
    have exactly that order and genus."""
    cap = (n + 1) // 2 if regular else n
    if exact:
        pairs = zip(*_lists(n, g, c, regular, False))
        pairs = [(m, s) for m, s in pairs if m == n and s.bit_count() == g]
        return tuple(m for m, _ in pairs), tuple(s for _, s in pairs)
    if g > cap or c > n or n > g + c:
        # No graph of order at most n has a larger genus, and none of genus
        # at most g with at most c unlooped vertices has an order above g + c.
        return _lists(min(n, g + c), min(g, cap), min(c, n), regular, False)
    orders, slots = [], []
    for block in _walk(n, g, c, regular, False, _orders):
        if block is None:
            orders.append(0)
            slots.append(0)
            continue
        _, lslots, p, _, rights, rslots = block
        orders += [p + 1 + m for m in rights]
        slots += [lslots | s << (p + 1) for s in rslots]
    return tuple(orders), tuple(slots)


def _orders(n: int, g: int, c: int, regular: bool, exact: bool) -> tuple:
    """The orders of the graphs of `_lists`, as a table of `_walk`."""
    return _lists(n, g, c, regular, exact)[0]


def _family_table(leaf, join):
    """A memo of the families of `_walk`, one entry per graph in canonical
    order: `leaf` for the leaf, and `join(L, mark, Rs)` the entries of a
    block.  Only families (exact) are kept; the lists of every order up to
    a bound are `_lists`."""

    @lru_cache(maxsize=None)
    def table(n: int, g: int, c: int, regular: bool, exact: bool) -> tuple:
        entries = []
        for block in _walk(n, g, c, regular, exact, table):
            if block is None:
                entries.append(leaf)
            else:
                left, _, _, mark, rights, _ = block
                entries += join(left, mark, rights)
        return tuple(entries)

    return table


# The node tables: the tree shapes of each family's graphs, interned.
_pairs = _family_table(LEAF, lambda left, mark, rights: [graph_of((left, r, 0)) for r in rights])


def _join_texts(left: str, mark: str, rights) -> list[str]:
    pre = f"({left}{mark}"
    return [f"{pre}{r})" for r in rights]


# The text tables: each family's printed graphs, each built once from its
# left graph's string, its root mark and its right graph's string.
_texts = _family_table("|", _join_texts)


def family_keys(n: int, g: int, regular: bool = False):
    """The keys (left tree, right tree, slots) of every graph of order n and
    genus g, over every mask or only the regular ones, in canonical order.
    A caller interns a graph with `graph_of`, or prints it with `key_str`,
    only when it needs to."""
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")
    return _block_keys(_walk(n, g, n - g, regular, True, _pairs))


def _block_keys(blocks):
    for block in blocks:
        if block is None:
            yield None, None, 0
            continue
        ltree, lslots, p, _, rtrees, rslots = block
        shift = p + 1
        for rtree, rs in zip(rtrees, rslots):
            yield ltree, rtree, lslots | rs << shift


def family_text(n: int, g: int, regular: bool = False, head: str = "",
                tail: str = "", between: str = " + "):
    """Every graph of order n and genus g, over every mask or only the
    regular ones, printed in canonical order as head + graph + tail, with
    `between` between two graphs: one chunk of text per block of `_walk`,
    written with one join over its right graphs, and no chunk for an empty
    family.  No graph is interned and no node table is read."""
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")
    return _block_texts(_walk(n, g, n - g, regular, True, _texts),
                        head, tail, between)


def _block_texts(blocks, head, tail, between):
    close = f"){tail}"
    sep = ""
    for block in blocks:
        if block is None:
            yield f"{head}|{tail}"
        else:
            left, _, _, mark, rights, _ = block
            pre = f"{head}({left}{mark}"
            yield sep + pre + f"{close}{between}{pre}".join(rights) + close
        sep = between


def shape_keys(n: int, mask: int):
    """The keys of every tree shape of order n carrying the slot mask, in
    canonical order: with one mask, graphs sort as their shapes."""
    if n < 0 or mask >> n:
        raise ValueError(f"slot mask {mask} does not fit order {n}")
    return ((lt, rt, mask) for lt, rt, _ in family_keys(n, 0))


@lru_cache(maxsize=None)
def _graphs(n: int, mask: int) -> tuple[LoopGraph, ...]:
    """Every graph of order n whose looped slots are the bits of mask, one
    per tree shape, in canonical order."""
    return tuple(map(graph_of, shape_keys(n, mask)))


def enumerate_graphs(n: int, g: int, regular_only: bool = False) -> list[LoopGraph]:
    """All loop graphs of order n and genus g in canonical order.

    These are the graphs of every tree shape with every n-bit mask of g
    looped slots: Catalan(n) * binomial(n, g) of them.  The regular family
    keeps the masks with no two adjacent bits, and an irregular graph is
    never built.
    """
    return list(map(graph_of, family_keys(n, g, regular_only)))


def count_graphs(n: int, g: int) -> int:
    """Closed-form count of unrestricted graphs: Catalan(n) * binomial(n, g)."""
    catalan = comb(2 * n, n) // (n + 1)
    return catalan * comb(n, g)
