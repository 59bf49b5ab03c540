"""Border and loop-raising differentials, exact ranks, cohomology dimensions."""

import runpy
import sys
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lrq import complexes, loopgraphs, trees
from lrq.complexes import (
    MAX_COHOMOLOGY_ORDER,
    border,
    border_tree,
    cohomology_dim,
    d_h_graph,
    d_h_sum,
    d_mask,
    matrix_rank,
)
from lrq.exprs import parse
from lrq.freemodule import LinComb
from lrq.hopfops import bounded_tuples, graphs_up_to_total_order, star_h, star_h_sum
from lrq.loopgraphs import (
    LEAF,
    ONELOOP,
    TREE,
    LoopGraph,
    contract,
    enumerate_graphs,
    is_regular,
    slot_masks,
)
from lrq.subalgebras import Word, enumerate_words, project_regular, psi_word
from oracles import (
    border_homology_dim,
    d_mask_regular,
    extra_degeneracy,
    is_exact_regular,
    regular_cohomology_dim,
    single_basis,
    slot_masks_by_bits,
    support,
)
from test_subalgebras import psi_fold

T = LinComb.basis(TREE)
L = LinComb.basis(ONELOOP)


def g(s: str):
    return single_basis(s)


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum")


def all_graphs(max_order: int):
    for n in range(max_order + 1):
        for gg in range(n + 1):
            yield from enumerate_graphs(n, gg)


def test_border_examples():
    v = LoopGraph(LEAF, LEAF)
    assert border_tree(v).is_zero()
    assert border(gsum("(|v(|v|))")) == gsum("(|v|)")


def test_border_squares_to_zero():
    for n in range(2, 7):
        for t in trees.enumerate_trees(n):
            assert border(border_tree(t)).is_zero()


def test_border_input_validation():
    with pytest.raises(ValueError):
        border(gsum("(|v|) + (|v(|v|))"))
    with pytest.raises(ValueError):
        border(LinComb.basis(trees.LEAF))
    assert border(LinComb()).is_zero()


def test_contracting_homotopy():
    # d h + h d = Id on every basis tree of order 1..5
    for n in range(1, 6):
        for t in trees.enumerate_trees(n):
            dh = border_tree(extra_degeneracy(t))
            hd = border_tree(t).map_basis(extra_degeneracy)
            assert dh + hd == LinComb.basis(t)


def test_homotopy_worked_example():
    v = LoopGraph(LEAF, LEAF)
    assert border_tree(v).is_zero()
    assert border_tree(extra_degeneracy(v)) == LinComb.basis(v)


def test_tree_homology_vanishes():
    for n in range(1, 6):
        assert border_homology_dim(n) == 0


def test_d_h_generators():
    assert d_h_graph(TREE) == L
    assert d_h_graph(ONELOOP).is_zero()


def test_d_h_order_two_signs():
    assert d_h_graph(g("(|v(|v|))")) == gsum("(|o(|v|)) - (|v(|o|))")
    assert d_h_graph(g("((|v|)v|)")) == gsum("((|o|)v|) - ((|v|)o|)")


def test_d_h_bracket_identity():
    lhs = d_h_sum(star_h(TREE, TREE))
    bracket = star_h(ONELOOP, TREE) - star_h(TREE, ONELOOP)
    assert lhs == bracket


def test_d_h_cochain_wrappers():
    # d_h takes the (2, 0) cochain T*T to the (2, 1) cochain L*T - T*L.
    x = star_h(TREE, TREE)
    assert {(t.order, t.genus) for t in support(x)} == {(2, 0)}
    y = d_h_sum(x)
    assert {(t.order, t.genus) for t in support(y)} == {(2, 1)}
    assert y == star_h(ONELOOP, TREE) - star_h(TREE, ONELOOP)


def test_d_h_raises_the_genus_by_one():
    for graph in all_graphs(5):
        image = d_h_graph(graph)
        assert {(t.order, t.genus) for t in support(image)} <= {
            (graph.order, graph.genus + 1)}


def test_d_h_not_closed_in_full_algebra():
    assert d_h_graph(g("(|o(|v|))")) == gsum("(|o(|o|))")


def test_d_h_squares_to_zero():
    for graph in all_graphs(5):
        assert d_h_sum(d_h_graph(graph)).is_zero()


def loops_before(i: int, t: LoopGraph) -> int:
    """Number of looped slots strictly below slot i."""
    return (t.slots & ((1 << i) - 1)).bit_count()


def signed_slot(i: int, t: LoopGraph) -> LinComb:
    """The single-slot operator D_i = (-1)^(loops before i) contract(i, .)."""
    c = contract(i, t)
    if c is None:
        return LinComb()
    return LinComb.basis(c, (-1) ** loops_before(i, t))


def test_signed_slot_relations():
    # D_i D_j = -D_j D_i for i < j, and D_i D_i = 0, through order 4.
    for graph in all_graphs(4):
        n = graph.order
        for i in range(n):
            assert signed_slot(i, graph).map_basis(
                lambda s, i=i: signed_slot(i, s)
            ).is_zero()
            for j in range(i + 1, n):
                ij = signed_slot(j, graph).map_basis(lambda s, i=i: signed_slot(i, s))
                ji = signed_slot(i, graph).map_basis(lambda s, j=j: signed_slot(j, s))
                assert ij == -1 * ji


def test_loops_before():
    graph = g("((|o|)v(|o|))")
    assert [loops_before(i, graph) for i in range(4)] == [0, 1, 1, 2]
    # The differential is the alternating sum of the single-slot operators.
    for graph in all_graphs(5):
        slots = LinComb()
        for i in range(graph.order):
            slots += (-1) ** i * signed_slot(i, graph)
        assert d_h_graph(graph) == slots, graph


def test_d_h_reg_closedness():
    for closed in (star_h(TREE, ONELOOP), star_h(ONELOOP, TREE)):
        assert project_regular(d_h_sum(closed)).is_zero()


def test_d_h_reg_drops_irregular_images():
    x = gsum("(|o(|v|))")
    assert project_regular(d_h_sum(x)).is_zero()
    assert d_h_sum(x) == gsum("(|o(|o|))")


def test_d_h_reg_squares_to_zero_on_regular():
    for graph in all_graphs(5):
        if not is_regular(graph):
            continue
        once = project_regular(d_h_graph(graph))
        twice = project_regular(d_h_sum(once))
        assert twice.is_zero()


def test_word_span_preserved_at_2_1():
    image = project_regular(d_h_sum(psi_word(Word("TT"))))
    assert image == psi_word(Word("LT")) - psi_word(Word("TL"))


def plain_rank(rows) -> int:
    """Independent oracle: ordinary Gaussian elimination on dense Fraction rows."""
    work = [[Fraction(x) for x in r] for r in rows]
    width = len(work[0]) if work else 0
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            for c in range(col, width):
                work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank


def dense(vectors, basis):
    """Coordinates of graph sums over an explicit basis, as dense Fraction rows."""
    index = {b: i for i, b in enumerate(basis)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(basis)
        for t, c in v.items():
            row[index[t]] = c
        rows.append(row)
    return rows


def toprec_dim_dense(n: int, gg: int) -> int:
    """Word-complex cohomology over dense coordinates in the regular graphs."""

    def d(v):
        return project_regular(d_h_sum(v))

    ambient = enumerate_graphs(n, gg, regular_only=True)
    span = [psi_word(w) for w in enumerate_words(n, gg)]
    above = enumerate_graphs(n, gg + 1, regular_only=True)
    dim_span = plain_rank(dense(span, ambient))
    cocycles = dim_span - plain_rank(dense([d(v) for v in span], above))
    if gg == 0:
        return cocycles
    images = dense([d(psi_word(w)) for w in enumerate_words(n, gg - 1)], ambient)
    span_rows = dense(span, ambient)
    coboundaries = plain_rank(images) + dim_span - plain_rank(images + span_rows)
    return cocycles - coboundaries


def test_cohomology_dims_toprec():
    assert cohomology_dim(2, 1, "toprec") == 1
    assert cohomology_dim(1, 1, "toprec") == 0
    assert cohomology_dim(2, 0, "toprec") == 0


def test_cohomology_dims_full_small():
    # ker over span{L} is everything, and T hits L: nothing survives.
    assert cohomology_dim(1, 1, "full") == 0
    assert cohomology_dim(1, 1, "reg") == 0
    assert cohomology_dim(1, 0, "full") == 0


def test_full_complex_is_acyclic():
    # Per tree the full complex is the Koszul complex of exterior
    # multiplication by a nonzero vector, so only the empty graph survives.
    for n in range(MAX_COHOMOLOGY_ORDER + 1):
        for gg in range(n + 1):
            assert cohomology_dim(n, gg, "full") == (1 if (n, gg) == (0, 0) else 0)


def test_regular_complex_matches_kozlov():
    # Per tree the regular complex is the independence complex of a path
    # (Kozlov, "Complexes of directed trees", JCTA 88, 1999); the closed form
    # is checked against an elimination of K_n^reg.
    for n in range(MAX_COHOMOLOGY_ORDER + 1):
        catalan = comb(2 * n, n) // (n + 1)
        top = ceil(n / 3)
        for gg in range(n + 2):
            expected = catalan if n % 3 != 1 and gg == top else 0
            assert catalan * regular_cohomology_dim(n, gg) == expected, (n, gg)
            assert cohomology_dim(n, gg, "reg") == expected, (n, gg)


def test_toprec_matches_dense_elimination():
    for n in range(6):
        for gg in range(n + 1):
            assert cohomology_dim(n, gg, "toprec") == toprec_dim_dense(n, gg), (n, gg)


def cohomology_dim_graphs(n: int, gg: int, space: str) -> int:
    """Oracle: the cohomology computed on graphs, word sums and their images.

    With W the span of the degree-g cochains and V that of the degree-(g-1)
    cochains, dim H = dim W - rank d(W) - dim(d(V) meet W), where
    dim(d(V) meet W) = rank d(V) + dim W - rank(d(V) + W).
    """

    def cochains(genus: int) -> list:
        if space == "toprec":
            return [psi_word(w) for w in enumerate_words(n, genus)]
        return [LinComb.basis(t) for t in enumerate_graphs(n, genus, space == "reg")]

    def d(x):
        return d_h_sum(x) if space == "full" else project_regular(d_h_sum(x))

    here = cochains(gg)
    image_below = [d(x) for x in cochains(gg - 1)] if gg else []
    dim_here = matrix_rank(here)
    cocycles = dim_here - matrix_rank([d(x) for x in here])
    coboundaries = matrix_rank(image_below) + dim_here - matrix_rank(image_below + here)
    return cocycles - coboundaries


@pytest.mark.parametrize("space, top", [("full", 5), ("reg", 6), ("toprec", 6)])
def test_slot_mask_complex_matches_graph_oracle(space, top):
    for n in range(top + 1):
        for gg in range(n + 2):
            want = cohomology_dim_graphs(n, gg, space)
            assert cohomology_dim(n, gg, space) == want, (n, gg, space)


@lru_cache(maxsize=None)
def with_slots(shape: LoopGraph, mask: int) -> LoopGraph:
    """The graph of the given shape whose looped slots are the bits of mask."""
    if shape.is_leaf:
        return shape
    p = shape.left.order
    return LoopGraph(
        with_slots(shape.left, mask & ((1 << p) - 1)),
        with_slots(shape.right, mask >> (p + 1)),
        bool(mask >> p & 1),
    )


def test_with_slots_rebuilds_every_graph():
    for graph in all_graphs(4):
        assert with_slots(loopgraphs.with_slots(graph, 0), graph.slots) == graph


def test_product_is_tree_product_with_concatenated_masks():
    by_order = {n: [t for gg in range(n + 1) for t in enumerate_graphs(n, gg)]
                for n in range(5)}
    for n in range(5):
        for m in range(min(4, 6 - n) + 1):
            for x in by_order[n]:
                shape = loopgraphs.with_slots(x, 0)
                for y in by_order[m]:
                    mask = x.slots | y.slots << x.order
                    tree_product = star_h(shape, loopgraphs.with_slots(y, 0))
                    assert star_h(x, y) == tree_product.map_basis(
                        lambda s, mask=mask: with_slots(s, mask)
                    ), (x, y)


def test_psi_word_is_every_tree_with_the_word_mask():
    for n in range(9):
        shapes = trees.enumerate_trees(n)
        for gg in range(n + 1):
            for w in enumerate_words(n, gg):
                mask = sum(1 << i for i, x in enumerate(w.letters) if x == "L")
                want = LinComb((with_slots(s, mask), 1) for s in shapes)
                assert psi_word(w) == want, w
                assert psi_fold(w) == want, w


def test_slot_mask_differential_squares_to_zero():
    for n in range(11):
        for regular, d in ((False, d_mask), (True, d_mask_regular)):
            for gg in range(n + 1):
                for m in slot_masks(n, gg, regular):
                    twice = LinComb()
                    for image, sign in d(m, n).items():
                        twice += sign * LinComb(d(image, n))
                    assert twice.is_zero(), (n, regular, m)


def test_slot_masks_count_and_differential_degree():
    for n in range(9):
        for gg in range(n + 2):
            assert len(slot_masks(n, gg, False)) == comb(n, gg)
            # Sets of gg pairwise non-adjacent points on a path of n points.
            assert len(slot_masks(n, gg, True)) == comb(n - gg + 1, gg)
            for m in slot_masks(n, gg, True):
                assert all(img.bit_count() == gg + 1 for img in d_mask_regular(m, n))


def test_reg_is_catalan_copies_of_toprec():
    for n in range(8):
        catalan = comb(2 * n, n) // (n + 1)
        for gg in range(n + 2):
            toprec = cohomology_dim(n, gg, "toprec")
            assert cohomology_dim(n, gg, "reg") == catalan * toprec, (n, gg)


def test_toprec_matches_kozlov():
    # The word complex is the independence complex of a path of n vertices
    # (Kozlov, "Complexes of directed trees", JCTA 88, 1999); the closed form
    # is checked against an elimination of K_n^reg.
    for n in range(MAX_COHOMOLOGY_ORDER + 1):
        for gg in range(n + 2):
            expected = 1 if n % 3 != 1 and gg == ceil(n / 3) else 0
            assert regular_cohomology_dim(n, gg) == expected, (n, gg)
            assert cohomology_dim(n, gg, "toprec") == expected, (n, gg)


def word_cochain(*words: tuple[str, int]) -> tuple[int, int, dict[int, int]]:
    """A sum of words of one length n and one number g of L letters, as the
    cochain (n, g, {mask: coefficient}) of K_n^reg: bit i of a word's mask
    is set when its letter i is L."""
    (n, g), = {(len(w), w.count("L")) for w, _ in words}
    masks = {}
    for w, c in words:
        assert "LL" not in w, w
        mask = sum(1 << i for i, x in enumerate(w) if x == "L")
        masks[mask] = masks.get(mask, 0) + c
    return n, g, masks


def d_regular(cochain: dict[int, int], n: int) -> dict[int, int]:
    """d of a cochain {mask: coefficient} of K_n^reg, with no zero entries."""
    out = {}
    for m, c in cochain.items():
        for image, sign in d_mask_regular(m, n).items():
            out[image] = out.get(image, 0) + c * sign
    return {image: c for image, c in out.items() if c}


# The words a = LT at (2, 1) and b = TLT at (3, 1); words multiply by
# concatenation, and none of the products below has an L next to an L.
A, B = "LT", "TLT"


def test_toprec_ring_relations_are_exact_cocycles():
    for words in ([(A + A, 1)], [(A + B, 1), (B + A, -1)]):
        n, gg, cochain = word_cochain(*words)
        assert d_regular(cochain, n) == {}, words
        assert is_exact_regular(cochain, n, gg), words


def test_toprec_ring_generators_are_not_exact():
    # b^k spans H at (3k, k) and a b^k at (3k + 2, k + 1): the nonzero
    # bidegrees of the closed form, through n <= 14.
    for k in range(5):
        for word in (B * k, A + B * k):
            n, gg, cochain = word_cochain((word, 1))
            assert n <= MAX_COHOMOLOGY_ORDER
            assert d_regular(cochain, n) == {}, word
            assert not is_exact_regular(cochain, n, gg), word


def fresh_rank_d(n: int, gg: int) -> int:
    """Rank of d(gg) on K_n by a new elimination, no memo."""
    return matrix_rank([d_mask(m, n) for m in slot_masks_by_bits(n, gg, False)])


def complement(m: int, n: int) -> int:
    return m ^ ((1 << n) - 1)


def test_complement_turns_d_into_its_signed_transpose():
    # D_{n-1-g}[c(m), c(m')] = (-1)^i D_g[m', m] for m' = m | 2^i.
    for n in range(9):
        for gg in range(n):
            for m in slot_masks_by_bits(n, gg, False):
                for image, sign in d_mask(m, n).items():
                    i = (image ^ m).bit_length() - 1
                    dual = d_mask(complement(image, n), n)
                    assert dual[complement(m, n)] == (-1) ** i * sign, (n, m, image)
            # And d(n-1-g) has no other entries.
            entries = sum(len(d_mask(m, n)) for m in slot_masks_by_bits(n, gg, False))
            dual_entries = sum(len(d_mask(m, n))
                               for m in slot_masks_by_bits(n, n - 1 - gg, False))
            assert entries == dual_entries == comb(n, gg) * (n - gg)


def test_full_rank_is_symmetric_under_complement_duality():
    # K_n (n >= 1) is acyclic, so rank d(g) = C(n-1, g).
    for n in range(11):
        for gg in range(n):
            rank = fresh_rank_d(n, gg)
            assert rank == fresh_rank_d(n, n - 1 - gg) == comb(n - 1, gg), (n, gg)
            assert complexes.rank_d(n, gg) == rank, (n, gg)


def canonical_rank_keys(max_order: int) -> set:
    """The memo keys a sweep over every (n <= max_order, g <= n + 1, space)
    needs: d(g) and d(g - 1) of K_n for `full` alone, g read as
    min(g, n - 1 - g), and none where d(g) is zero (g < 0 or g >= n)."""
    keys = set()
    for n in range(max_order + 1):
        for gg in range(n + 2):
            for degree in (gg, gg - 1):
                k = min(degree, n - 1 - degree)
                if 0 <= k < n:
                    keys.add((n, k))
    return keys


def test_rank_memo_misses_once_per_canonical_key():
    complexes._rank_d.cache_clear()
    try:
        for n in range(9):
            for gg in range(n + 2):
                for space in ("full", "reg", "toprec"):
                    cohomology_dim(n, gg, space)
        keys = canonical_rank_keys(8)
        info = complexes._rank_d.cache_info()
        assert info.misses == info.currsize == len(keys)
        # Every cached value is a hit now, and equals a fresh elimination.
        for n, gg in keys:
            assert complexes._rank_d(n, gg) == fresh_rank_d(n, gg)
        assert complexes._rank_d.cache_info().misses == len(keys)
    finally:
        complexes._rank_d.cache_clear()


def test_rank_d_is_zero_where_d_is_zero():
    complexes._rank_d.cache_clear()
    for n in range(6):
        for gg in (-2, -1, n, n + 1, n + 5):
            assert complexes.rank_d(n, gg) == 0
    assert complexes._rank_d.cache_info().currsize == 0


def test_reg_and_toprec_eliminate_nothing():
    complexes._rank_d.cache_clear()
    for n in range(MAX_COHOMOLOGY_ORDER + 1):
        for gg in range(n + 2):
            for space in ("reg", "toprec"):
                cohomology_dim(n, gg, space)
    assert complexes._rank_d.cache_info().currsize == 0


@pytest.mark.parametrize("space", ["full", "reg", "toprec"])
def test_cohomology_refuses_an_order_beyond_the_bound(monkeypatch, space):
    def enumerated(*args):
        raise AssertionError(f"enumerated {args} before checking the bound")

    monkeypatch.setattr(complexes, "slot_masks", enumerated)
    bound = f"cohomology bound n <= {MAX_COHOMOLOGY_ORDER}"
    with pytest.raises(ValueError, match=bound):
        cohomology_dim(MAX_COHOMOLOGY_ORDER + 1, 0, space)
    with pytest.raises(ValueError, match="beyond the cohomology bound"):
        cohomology_dim(10**6, 3, space)


def cohomology_table_main():
    script = Path(__file__).resolve().parents[1] / "scripts" / "cohomology_table.py"
    return runpy.run_path(str(script))["main"]


def test_cohomology_table_lists_every_bidegree(monkeypatch, capsys):
    main = cohomology_table_main()
    monkeypatch.setattr(sys, "argv", ["cohomology_table.py", "--max-order", "3"])
    main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "g", "full", "reg", "toprec"]
    assert [line.split() for line in lines[1:]] == [
        ["0", "0", "1", "1", "1"],
        ["1", "0", "0", "0", "0"], ["1", "1", "0", "0", "0"],
        ["2", "0", "0", "0", "0"], ["2", "1", "0", "2", "1"], ["2", "2", "0", "0", "0"],
        ["3", "0", "0", "0", "0"], ["3", "1", "0", "5", "1"],
        ["3", "2", "0", "0", "0"], ["3", "3", "0", "0", "0"],
    ]


def test_cohomology_table_refuses_an_order_beyond_the_bound(monkeypatch, capsys):
    main = cohomology_table_main()
    too_far = MAX_COHOMOLOGY_ORDER + 1
    argv = ["cohomology_table.py", "--max-order", str(too_far)]
    monkeypatch.setattr(sys, "argv", argv)

    def computed(n, gg, space):
        raise AssertionError(f"computed ({n}, {gg}, {space}) before checking the bound")

    monkeypatch.setitem(main.__globals__, "cohomology_dim", computed)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --max-order {too_far} is beyond the cohomology bound "
        f"n <= {MAX_COHOMOLOGY_ORDER}\n"
    )


def test_cohomology_rejects_unknown_space():
    with pytest.raises(ValueError):
        cohomology_dim(1, 1, "everything")


def test_matrix_rank_exact():
    def rank(rows):
        return matrix_rank([LinComb(enumerate(row)) for row in rows])

    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [2, 5]]) == 2
    assert (
        rank(
            [
                [Fraction(1, 2), Fraction(1, 3), 0],
                [Fraction(1, 4), Fraction(1, 6), 0],
                [0, 0, 1],
            ]
        )
        == 2
    )


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@given(
    st.lists(
        st.lists(FRACTIONS, min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_matrix_rank_matches_plain_elimination(rows):
    assert matrix_rank([LinComb(enumerate(r)) for r in rows]) == plain_rank(rows)


BLOCK_COLUMNS = [enumerate_graphs(3, 1)[i::3] for i in range(3)]


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.lists(FRACTIONS, min_size=5, max_size=5)),
        max_size=12,
    )
)
def test_matrix_rank_adds_over_blocks(tagged_rows):
    # Rows of block k live on the graph columns BLOCK_COLUMNS[k] only.
    blocks = [[row for k, row in tagged_rows if k == b] for b in range(3)]
    sparse = [LinComb(zip(BLOCK_COLUMNS[k], row)) for k, row in tagged_rows]
    assert matrix_rank(sparse) == sum(plain_rank(block) for block in blocks)


SPARSE_ROWS = st.lists(
    st.dictionaries(st.integers(0, 5), FRACTIONS, max_size=4), max_size=6
)


@given(SPARSE_ROWS)
def test_matrix_rank_ignores_zero_coefficients_and_empty_rows(rows):
    padded = [{**row, ("fresh", i): 0} for i, row in enumerate(rows)]
    padded += [{}, LinComb(), {("fresh", -1): Fraction(0)}]
    assert matrix_rank(padded) == matrix_rank(rows)


@given(SPARSE_ROWS, st.randoms(use_true_random=False), st.lists(FRACTIONS, max_size=6))
def test_matrix_rank_invariant_under_row_operations(rows, rng, multipliers):
    rank = matrix_rank(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert matrix_rank(shuffled) == rank
    assert matrix_rank(rows + rows) == rank
    assert matrix_rank([{col: -c for col, c in row.items()} for row in rows]) == rank
    combination = LinComb()
    for row, c in zip(rows, multipliers):
        combination += c * LinComb(row)
    assert matrix_rank(rows + [combination]) == rank


def leibniz_sides(x: LinComb, y: LinComb) -> tuple[LinComb, LinComb, LinComb]:
    """d(x*y), d(x)*y and x*d(y): the product rule d(x*y) = d(x)*y +/- x*d(y)
    holds with the sign s when the first is the second plus s times the third."""
    return (d_h_sum(star_h_sum(x, y)), star_h_sum(d_h_sum(x), y),
            star_h_sum(x, d_h_sum(y)))


def test_leibniz_probe_generator_instance():
    # d(T*T) = d(T)*T - T*d(T), and not with the sign +1.
    lhs, first, second = leibniz_sides(T, T)
    assert lhs == first - second
    assert lhs != first + second


def test_leibniz_probe_unit():
    lhs, first, second = leibniz_sides(LinComb.basis(LEAF), T)
    assert lhs == first + second


def test_leibniz_probe_tree_loop_recorded():
    # d(L) = 0, so both signs hold on this instance.
    lhs, first, second = leibniz_sides(T, L)
    assert second.is_zero()
    assert lhs == first + second
    assert lhs == first - second


def leibniz_failures(sign) -> list[tuple[str, str]]:
    """The pairs (x, y) of basis graphs of total order at most 6, in the
    order `bounded_tuples` walks them, on which d(x*y) = d(x)*y +
    sign(x) x*d(y) fails, printed."""
    failures = []
    for x, y in bounded_tuples(graphs_up_to_total_order(6), 2, 6):
        lhs, first, second = leibniz_sides(LinComb.basis(x), LinComb.basis(y))
        if lhs != first + sign(x) * second:
            failures.append((str(x), str(y)))
    return failures


def test_d_is_a_derivation_with_the_koszul_sign():
    # Graded by total order, "v" is odd and "o" even, so passing d across x
    # costs -1 to the power of its unlooped slots, x.order - x.genus.
    assert sum(1 for _ in bounded_tuples(graphs_up_to_total_order(6), 2, 6)) == 1820
    assert leibniz_failures(lambda x: (-1) ** (x.order + x.genus)) == []


@pytest.mark.parametrize("sign, count, first", [
    (lambda x: 1, 375, ("(|v|)", "(|v|)")),
    (lambda x: (-1) ** x.genus, 357, ("(|v|)", "(|v|)")),
    (lambda x: (-1) ** x.order, 190, ("(|o|)", "(|v|)")),
], ids=["1", "genus", "order"])
def test_d_is_no_derivation_with_another_sign(sign, count, first):
    failures = leibniz_failures(sign)
    assert (len(failures), failures[0]) == (count, first)
