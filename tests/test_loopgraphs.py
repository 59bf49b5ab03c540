"""Loop graphs: interning, printing, slots, regularity, contraction,
enumeration, signatures."""

import random
import runpy
import sys
from math import comb
from pathlib import Path

import pytest

from lrq import loopgraphs
from lrq.loopgraphs import (
    _KEPT_STRING_ORDER,
    _NODES,
    LEAF,
    ONELOOP,
    TREE,
    LoopGraph,
    _graphs,
    contract,
    count_graphs,
    enumerate_graphs,
    family_text,
    graph_of,
    is_regular,
    loop_slots,
    rank_string,
    slot_masks,
    with_slots,
)
from lrq.trees import enumerate_trees
from lrq.cli import _JSON_GRAPH, MAX_ENUMERATE_ORDER
from oracles import family_by_terms, single_basis, slot_masks_by_bits


def g(s: str) -> LoopGraph:
    return single_basis(s)


def all_graphs(max_order: int):
    for n in range(max_order + 1):
        for gg in range(n + 1):
            yield from enumerate_graphs(n, gg)


def test_vee_examples():
    assert LoopGraph(LEAF, LEAF) == TREE
    two = LoopGraph(LEAF, ONELOOP)
    assert (two.order, two.genus) == (2, 1)
    reg = LoopGraph(ONELOOP, ONELOOP, False)
    assert reg.genus == 2 and is_regular(reg)


def test_bridge_examples():
    assert LoopGraph(LEAF, LEAF, True) == ONELOOP
    ex = LoopGraph(LEAF, TREE, True)
    assert (ex.order, ex.genus) == (2, 1) and str(ex) == "(|o(|v|))"
    irr = LoopGraph(LEAF, ONELOOP, True)
    assert not is_regular(irr)


def test_leaf_cannot_be_looped():
    with pytest.raises(ValueError):
        LoopGraph(looped=True)


def parts(t: LoopGraph) -> tuple:
    return t.left, t.right, t.looped


def test_decompose_examples_and_roundtrip():
    assert parts(ONELOOP) == (LEAF, LEAF, True)
    assert parts(TREE) == (LEAF, LEAF, False)
    assert parts(g("(|o(|v|))")) == (LEAF, TREE, True)
    assert parts(LEAF) == (None, None, False)
    for a in all_graphs(2):
        for b in all_graphs(2):
            for looped in (False, True):
                assert parts(LoopGraph(a, b, looped)) == (a, b, looped)


def test_loop_slots_examples():
    assert loop_slots(ONELOOP) == {0}
    assert loop_slots(g("((|v|)o|)")) == {1}
    assert loop_slots(g("((|o|)v(|o|))")) == {0, 2}
    assert loop_slots(TREE) == frozenset()


def _slots_by_leaf_paths(graph: LoopGraph) -> set[int]:
    # Independent oracle: compute each leaf's root path, then find, for each
    # consecutive pair of leaves, the vertex at their longest common prefix
    # and read off its mark by walking the path again.
    paths = []

    def collect(node, path):
        if node.is_leaf:
            paths.append(path)
            return
        collect(node.left, path + "L")
        collect(node.right, path + "R")

    collect(graph, "")

    def looped_at(path: str) -> bool:
        node = graph
        for step in path:
            node = node.left if step == "L" else node.right
        return node.looped

    out = set()
    for i in range(len(paths) - 1):
        a, b = paths[i], paths[i + 1]
        common = 0
        while common < min(len(a), len(b)) and a[common] == b[common]:
            common += 1
        if looped_at(a[:common]):
            out.add(i)
    return out


def test_loop_slots_against_path_oracle():
    for graph in all_graphs(4):
        assert set(loop_slots(graph)) == _slots_by_leaf_paths(graph)


def test_genus_counts_slots():
    for graph in all_graphs(4):
        assert graph.genus == len(loop_slots(graph))
        assert graph.total_order == graph.order + graph.genus


def test_is_regular_examples():
    assert not is_regular(g("(|o(|o|))"))
    assert is_regular(g("((|o|)v(|o|))"))
    for t in enumerate_graphs(3, 0):
        assert is_regular(t)


def test_is_regular_against_leaf_pair_oracle():
    # A graph is regular iff the loop leaf pairs {i, i+1} are pairwise disjoint.
    for graph in all_graphs(4):
        pairs = [{i, i + 1} for i in loop_slots(graph)]
        disjoint = all(
            not (p & q) for ii, p in enumerate(pairs) for q in pairs[ii + 1:]
        )
        assert is_regular(graph) == disjoint


def test_contract_examples():
    assert contract(0, TREE) == ONELOOP
    assert contract(0, ONELOOP) is None
    assert contract(1, g("(|v(|v|))")) == g("(|v(|o|))")
    assert contract(5, TREE) is None  # missing slot is zero, not an error
    with pytest.raises(IndexError):
        contract(-1, TREE)


def test_contract_raises_genus_keeps_tree():
    for graph in all_graphs(4):
        for i in range(graph.order):
            got = contract(i, graph)
            if i in loop_slots(graph):
                assert got is None
            else:
                assert got is not None
                assert got.genus == graph.genus + 1
                assert with_slots(got, 0) == with_slots(graph, 0)


def test_contract_regularity():
    # Contracting a slot whose leaves touch no loop preserves regularity;
    # contracting right next to a loop breaks it.
    for graph in all_graphs(4):
        if not is_regular(graph):
            continue
        slots = loop_slots(graph)
        for i in range(graph.order):
            got = contract(i, graph)
            if got is None:
                continue
            neighbours_free = not ({i - 1, i, i + 1} & slots)
            assert is_regular(got) == neighbours_free
    # the worked instance: a second loop adjacent to an existing one
    assert contract(1, g("(|o(|v|))")) == g("(|o(|o|))")
    assert not is_regular(g("(|o(|o|))"))


def test_enumerate_counts():
    for n in range(6):
        for gg in range(n + 1):
            assert len(enumerate_graphs(n, gg)) == count_graphs(n, gg)
            assert count_graphs(n, gg) == (comb(2 * n, n) // (n + 1)) * comb(n, gg)


def test_a_repeated_enumeration_copies_the_node_table(monkeypatch):
    families = [(n, gg, regular) for n in range(7) for gg in range(n + 2)
                for regular in (False, True)]
    first = {family: enumerate_graphs(*family) for family in families}

    def interned(key):
        raise AssertionError(f"interned {key} again")

    monkeypatch.setattr(loopgraphs, "graph_of", interned)
    before = len(_NODES)
    for family in families:
        got = enumerate_graphs(*family)
        assert got == first[family], family
        # The list is the caller's own: changing it leaves the table as it was.
        got.reverse()
        got.append(LEAF)
        assert enumerate_graphs(*family) == first[family], family
    assert len(_NODES) == before


def graph_census_main():
    script = Path(__file__).resolve().parents[1] / "scripts" / "graph_census.py"
    return runpy.run_path(str(script))["main"]


def test_graph_census_refuses_an_order_beyond_the_bound(monkeypatch, capsys):
    main = graph_census_main()

    def enumerated(*args):
        raise AssertionError(f"enumerated {args} before checking the bound")

    monkeypatch.setitem(main.__globals__, "enumerate_graphs", enumerated)
    monkeypatch.setitem(main.__globals__, "enumerate_words", enumerated)
    for too_far in (MAX_ENUMERATE_ORDER + 1, 10**6):
        monkeypatch.setattr(sys, "argv", ["graph_census.py", "--max-order", str(too_far)])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: --max-order {too_far} is beyond the enumerate "
                       f"bound n <= {MAX_ENUMERATE_ORDER}\n")


def graphs_by_genus(n: int, gg: int) -> list[LoopGraph]:
    """The graphs of order n and genus gg, by splitting the genus between
    the two subtrees under each root (oracle)."""
    if gg < 0 or gg > n:
        return []
    if n == 0:
        return [LEAF]
    out = []
    for p in range(n):
        for looped in (False, True):
            rest = gg - looped
            for g1 in range(rest + 1):
                for a in graphs_by_genus(p, g1):
                    for b in graphs_by_genus(n - 1 - p, rest - g1):
                        out.append(LoopGraph(a, b, looped))
    return sorted(out, key=LoopGraph.sort_key)


def test_enumerate_matches_the_genus_recursion():
    for n in range(7):
        for gg in range(n + 2):
            assert enumerate_graphs(n, gg) == graphs_by_genus(n, gg), (n, gg)


def test_graphs_of_a_mask_are_every_shape_once():
    for n in range(8):
        shapes = enumerate_trees(n)
        for m in range(1 << n):
            graphs = _graphs(n, m)
            assert len(graphs) == comb(2 * n, n) // (n + 1)
            assert all(t.slots == m for t in graphs)
            assert sorted((with_slots(t, 0) for t in graphs), key=LoopGraph.sort_key) == shapes


def shape_strings(n: int) -> list[str]:
    """Every tree of order n printed, from the splits of the order (oracle)."""
    if n == 0:
        return ["|"]
    return [f"({a}v{b})" for p in range(n)
            for a in shape_strings(p) for b in shape_strings(n - 1 - p)]


def with_marks(text: str, mask: int) -> str:
    """A tree string with its i-th "v" made "o" for each bit i of mask."""
    parts = text.split("v")
    return parts[0] + "".join(("o" if mask >> i & 1 else "v") + part
                              for i, part in enumerate(parts[1:]))


def test_walk_is_the_sorted_union_over_masks():
    for n in range(9):
        shapes = sorted(shape_strings(n), key=rank_string)
        marked = {m: [with_marks(s, m) for s in shapes] for m in range(1 << n)}
        for m, want in marked.items():
            # One mask sorts as its shapes.
            assert [str(t) for t in _graphs(n, m)] == want, (n, m)
            assert want == sorted(want, key=rank_string)
        for gg in range(n + 2):
            for regular in (False, True):
                union = [s for m in slot_masks(n, gg, regular) for s in marked[m]]
                got = [str(t) for t in enumerate_graphs(n, gg, regular)]
                assert got == sorted(union, key=rank_string), (n, gg, regular)


def test_blocks_print_as_the_terms_one_at_a_time():
    # Oracle: each interned graph printed by `str`, one term at a time.  A
    # sum with no term prints as "0"; the blocks of an empty family are none.
    for n in range(9):
        for gg in range(n + 2):
            for regular in (False, True):
                text, terms, lines = family_by_terms(n, gg, regular)
                assert ("".join(family_text(n, gg, regular)) or "0") == text, (n, gg)
                got = "".join(family_text(n, gg, regular, _JSON_GRAPH, '"}', ", "))
                assert f"[{got}]" == terms, (n, gg, regular)
                assert "".join(family_text(n, gg, regular, "", "\n", "")) == lines


def test_order_lists_are_the_sorted_union_over_orders_and_masks():
    # Oracle: every printed tree of order k <= n with each k-bit mask of at
    # most g bits (no two adjacent when regular), sorted as strings.
    for n in range(8):
        for gg in range(n + 2):
            for regular in (False, True):
                union = sorted(
                    (rank_string(with_marks(s, m)), k, m)
                    for k in range(n + 1) for s in shape_strings(k)
                    for m in range(1 << k)
                    if m.bit_count() <= gg and not (regular and m & m >> 1))
                got = list(zip(*loopgraphs._lists(n, gg, regular)))
                assert got == [(k, m) for _, k, m in union], (n, gg, regular)
        # A genus above the largest of order n reads that genus's list.
        for regular, top in ((False, n), (True, (n + 1) // 2)):
            lists = loopgraphs._lists(n, top, regular)
            assert loopgraphs._lists(n, top + 1, regular) is lists
            assert loopgraphs._lists(n, n + 1, regular) is lists


def test_an_empty_family_reads_no_order_list():
    keys = loopgraphs._lists.cache_info().currsize
    assert enumerate_graphs(9, 10) == []
    assert list(family_text(9, 6, True)) == []
    assert loopgraphs._lists.cache_info().currsize == keys


def test_a_full_family_reads_no_family_masks(monkeypatch):
    # Only the regular family's looped roots filter their right graphs by
    # the family masks; a full family reads none, from empty memos on.
    for memo in loopgraphs.WALK_MEMOS:
        memo.cache_clear()
    masks = loopgraphs._masks
    regular_reads = []

    def regular_only(n, g, regular):
        if not regular:
            raise AssertionError(f"a full family read the masks of {(n, g)}")
        regular_reads.append((n, g))
        return masks(n, g, regular)

    monkeypatch.setattr(loopgraphs, "_masks", regular_only)
    for regular in (False, True):
        for n in range(8):
            for gg in range(n + 1):
                count = len(slot_masks(n, gg, regular)) * comb(2 * n, n) // (n + 1)
                assert len(enumerate_graphs(n, gg, regular)) == count, (n, gg)
                text = "".join(family_text(n, gg, regular))
                assert text.count(" + ") == max(count - 1, 0), (n, gg)
    assert regular_reads


def test_regular_masks_are_the_filtered_combinations():
    # Oracles: every g-subset of n slots summed bit by bit, dropping those
    # with two adjacent; and the regular masks summed bit by bit from their
    # direct construction.
    for n in range(17):
        for gg in range(n + 2):
            every = slot_masks_by_bits(n, gg, False)
            assert slot_masks(n, gg, False) == every, (n, gg)
            assert slot_masks(n, gg, True) == [m for m in every if not m & m >> 1], (n, gg)
            assert slot_masks(n, gg, True) == slot_masks_by_bits(n, gg, True), (n, gg)


def test_keys_print_as_their_interned_graphs():
    for n in range(6):
        for gg in range(n + 1):
            for graph in enumerate_graphs(n, gg):
                key = graph._ltree, graph._rtree, graph.slots
                assert _NODES[key] is graph_of(key) is graph
                assert (graph.order, graph.genus) == (n, gg)
                assert str(graph) == printed(graph)


def test_regular_filter_matches_filtering_graphs():
    for n in range(8):
        for gg in range(n + 2):
            want = [t for t in enumerate_graphs(n, gg) if is_regular(t)]
            assert enumerate_graphs(n, gg, regular_only=True) == want, (n, gg)


def test_enumerate_regular_counts_order_3():
    assert len(enumerate_graphs(3, 0, regular_only=True)) == 5
    assert len(enumerate_graphs(3, 1, regular_only=True)) == 15
    assert len(enumerate_graphs(3, 2, regular_only=True)) == 5
    assert len(enumerate_graphs(3, 3, regular_only=True)) == 0


def test_regular_count_closed_form():
    # Choosing g pairwise non-adjacent slots among n: Catalan(n) * C(n-g+1, g).
    for n in range(8):
        catalan = comb(2 * n, n) // (n + 1)
        for gg in range(n + 1):
            expected = catalan * comb(n - gg + 1, gg)
            assert len(enumerate_graphs(n, gg, regular_only=True)) == expected


def test_enumerate_singleton():
    assert enumerate_graphs(1, 1) == [ONELOOP]


def test_enumerate_distinct_and_sorted():
    for n in range(5):
        for gg in range(n + 1):
            graphs = enumerate_graphs(n, gg)
            assert len(set(graphs)) == len(graphs)
            keys = [t.sort_key() for t in graphs]
            assert keys == sorted(keys)


def test_underlying_tree_forgets_loops():
    for t in all_graphs(4):
        tree = with_slots(t, 0)
        assert tree.genus == 0
        assert str(tree) == str(t).replace("o", "v")
        if t.genus == 0:
            assert tree is t


def test_slot_readers_take_any_depth():
    # Far deeper than the recursion limit: the readers use the slot mask.
    comb_tree = g("(" * 5000 + "|" + "v|)" * 5000)
    assert loop_slots(comb_tree) == frozenset()
    assert is_regular(comb_tree)
    all_looped = g("(|o" * 5000 + "|" + ")" * 5000)
    assert loop_slots(all_looped) == frozenset(range(5000))
    assert not is_regular(all_looped)


def printed(t: LoopGraph) -> str:
    """Recursive printer (oracle for the lazy, iterative one)."""
    if t.left is None:
        return "|"
    mark = "o" if t.looped else "v"
    return "(" + printed(t.left) + mark + printed(t.right) + ")"


def test_construction_returns_the_interned_node():
    for t in all_graphs(6):
        assert LoopGraph(t.left, t.right, t.looped) is t
        assert g(str(t)) is t
    assert LoopGraph() is LEAF
    assert LoopGraph(LEAF, LEAF, 1) is LoopGraph(LEAF, LEAF, True) is ONELOOP


def test_canonical_order_is_the_rank_of_the_printed_string():
    for n in range(7):
        for gg in range(n + 2):
            graphs = enumerate_graphs(n, gg)
            assert [str(t) for t in graphs] == [printed(t) for t in graphs]
            assert graphs == sorted(graphs, key=lambda t: rank_string(printed(t)))


def _random_graph(rng: random.Random, n: int) -> LoopGraph:
    # Built bottom-up from a random split of the order, without recursion.
    pending = [n]
    sizes = []
    while pending:
        m = pending.pop()
        sizes.append(m)
        if m:
            p = rng.randrange(m)
            pending += (p, m - 1 - p)
    built = []
    for m in reversed(sizes):
        if m == 0:
            built.append(LEAF)
        else:
            left, right = built.pop(), built.pop()
            built.append(LoopGraph(left, right, rng.random() < 0.3))
    return built[0]


def test_large_graphs_print_like_the_recursive_printer():
    # Orders on both sides of the size below which subgraphs keep strings.
    rng = random.Random(7)
    for n in (_KEPT_STRING_ORDER - 1, _KEPT_STRING_ORDER, _KEPT_STRING_ORDER + 1, 300):
        for _ in range(5):
            t = _random_graph(rng, n)
            assert t.order == n
            assert str(t) == printed(t)
            assert g(str(t)) is t


def test_deep_graph_built_by_construction_prints_and_round_trips():
    depth = 10_000
    comb_tree = LEAF
    looped_spine = LEAF
    for _ in range(depth):
        comb_tree = LoopGraph(comb_tree, LEAF)
        looped_spine = LoopGraph(LEAF, looped_spine, True)
    assert str(comb_tree) == "(" * depth + "|" + "v|)" * depth
    assert str(looped_spine) == "(|o" * depth + "|" + ")" * depth
    assert (comb_tree.order, comb_tree.genus) == (depth, 0)
    assert (looped_spine.order, looped_spine.total_order) == (depth, 2 * depth)
    assert g(str(comb_tree)) is comb_tree
    assert g(str(looped_spine)) is looped_spine


@pytest.mark.parametrize(
    "args",
    [(TREE, None), (None, ONELOOP), (None, None, True), (TREE, None, True)],
)
def test_rejected_construction_interns_nothing(args):
    before = len(_NODES)
    with pytest.raises(ValueError):
        LoopGraph(*args)
    assert len(_NODES) == before


@pytest.mark.parametrize(
    "name", ["left", "right", "looped", "order", "genus", "slots", "total_order", "_str"]
)
def test_nodes_are_immutable(name):
    t = g("((|o|)v|)")
    value = getattr(t, name)
    with pytest.raises(AttributeError):
        setattr(t, name, LEAF)
    with pytest.raises(AttributeError):
        delattr(t, name)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert getattr(t, name) is value
    assert str(t) == "((|o|)v|)"


def contract_by_path(i: int, t: LoopGraph) -> LoopGraph | None:
    """Oracle: follow the slot numbering down to slot i and rebuild the path
    to it with that vertex looped."""
    if t.is_leaf:
        return None
    p = t.left.order
    if i == p:
        return None if t.looped else LoopGraph(t.left, t.right, True)
    if i < p:
        sub = contract_by_path(i, t.left)
        return None if sub is None else LoopGraph(sub, t.right, t.looped)
    sub = contract_by_path(i - p - 1, t.right)
    return None if sub is None else LoopGraph(t.left, sub, t.looped)


def test_contract_equals_the_path_rebuilding_oracle():
    for graph in all_graphs(5):
        for i in range(graph.order + 2):
            assert contract(i, graph) is contract_by_path(i, graph), (i, graph)


def test_with_slots_puts_every_mask_on_the_shape():
    for graph in all_graphs(4):
        tree = with_slots(graph, 0)
        for mask in range(1 << graph.order):
            got = with_slots(graph, mask)
            assert (got.slots, with_slots(got, 0)) == (mask, tree)
            assert with_slots(tree, graph.slots) is graph
            marks = [c for c in str(got) if c in "vo"]
            assert marks == ["o" if mask >> i & 1 else "v" for i in range(graph.order)]
            assert g(str(got)) is got


@pytest.mark.parametrize(
    "shape, mask", [("|", 1), ("(|v|)", 2), ("((|v|)o|)", 4), ("((|v|)o|)", 5),
                    ("(|v|)", -1), ("((|v|)v(|v|))", 1 << 40)]
)
def test_with_slots_rejects_a_mask_beyond_the_order(shape, mask):
    t = g(shape)
    before = len(_NODES)
    with pytest.raises(ValueError, match="does not fit"):
        with_slots(t, mask)
    assert len(_NODES) == before


def test_graphs_of_a_fresh_mask_intern_one_node_per_shape():
    # An irregular mask of order 10 that no other computation here builds.
    n, mask = 10, 0b1001110011
    for p in range(n):
        _graphs(p, 0)
    misses = _graphs.cache_info().misses
    before = len(_NODES)
    graphs = _graphs(n, mask)
    assert _graphs.cache_info().misses == misses + 1
    assert len(_NODES) - before == len(graphs) == comb(2 * n, n) // (n + 1)
    assert {t.slots for t in graphs} == {mask}
