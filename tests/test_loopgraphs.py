"""Loop graphs: slots, regularity, contraction, enumeration, signatures."""

from math import comb

import pytest

from lrq.exprs import parse
from lrq.loopgraphs import (
    LEAF,
    ONELOOP,
    TREE,
    LoopGraph,
    _graphs,
    bridge,
    contract,
    count_graphs,
    decompose,
    enumerate_graphs,
    is_regular,
    loop_slots,
    signature,
    underlying_tree,
    vee,
)
from lrq.trees import enumerate_trees


def g(s: str) -> LoopGraph:
    return parse(s, "graph-sum").single_basis()


def all_graphs(max_order: int):
    for n in range(max_order + 1):
        for gg in range(n + 1):
            yield from enumerate_graphs(n, gg)


def test_vee_examples():
    assert vee(LEAF, LEAF) == TREE
    two = vee(LEAF, ONELOOP)
    assert (two.order, two.genus) == (2, 1)
    reg = vee(ONELOOP, ONELOOP)
    assert reg.genus == 2 and is_regular(reg)


def test_bridge_examples():
    assert bridge(LEAF, LEAF) == ONELOOP
    ex = bridge(LEAF, TREE)
    assert (ex.order, ex.genus) == (2, 1) and str(ex) == "(|o(|v|))"
    irr = bridge(LEAF, ONELOOP)
    assert not is_regular(irr)


def test_leaf_cannot_be_looped():
    with pytest.raises(ValueError):
        LoopGraph(looped=True)


def test_decompose_examples_and_roundtrip():
    assert decompose(ONELOOP) == (LEAF, LEAF, True)
    assert decompose(TREE) == (LEAF, LEAF, False)
    assert decompose(g("(|o(|v|))")) == (LEAF, TREE, True)
    with pytest.raises(ValueError):
        decompose(LEAF)
    for a in all_graphs(2):
        for b in all_graphs(2):
            assert decompose(vee(a, b)) == (a, b, False)
            assert decompose(bridge(a, b)) == (a, b, True)


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
                assert underlying_tree(got) == underlying_tree(graph)


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
            assert sorted(map(underlying_tree, graphs), key=LoopGraph.sort_key) == shapes


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
        tree = underlying_tree(t)
        assert tree.genus == 0
        assert str(tree) == str(t).replace("o", "v")
        if t.genus == 0:
            assert tree is t


def test_signature_examples():
    assert signature(ONELOOP) == (1, 1, -1)
    for t in enumerate_graphs(3, 0):
        assert signature(t) == (0, 5, -3)
    for t in enumerate_graphs(3, 2, regular_only=True):
        assert signature(t) == (2, 1, -3)


def test_signature_rejects_irregular():
    with pytest.raises(ValueError):
        signature(g("(|o(|o|))"))


def test_slot_readers_take_any_depth():
    # Far deeper than the recursion limit: the readers use the slot mask.
    comb_tree = g("(" * 5000 + "|" + "v|)" * 5000)
    assert loop_slots(comb_tree) == frozenset()
    assert is_regular(comb_tree)
    assert signature(comb_tree) == (0, 5002, -5000)
    all_looped = g("(|o" * 5000 + "|" + ")" * 5000)
    assert loop_slots(all_looped) == frozenset(range(5000))
    assert not is_regular(all_looped)
    with pytest.raises(ValueError, match="irregular"):
        signature(all_looped)
