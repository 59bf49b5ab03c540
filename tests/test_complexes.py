"""Border and loop-raising differentials, exact ranks, cohomology dimensions."""

from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import given, strategies as st

from lrq import trees
from lrq.complexes import (
    Cochain,
    LeibnizReport,
    border,
    border_homology_dim,
    border_tree,
    cohomology_dim,
    d_h,
    d_h_graph,
    d_h_reg,
    d_h_sum,
    leibniz_probe,
    loops_before,
    matrix_rank,
    signed_slot,
)
from lrq.exprs import parse
from lrq.freemodule import LinComb
from lrq.hopfops import star_h
from lrq.loopgraphs import LEAF, ONELOOP, TREE, enumerate_graphs
from lrq.subalgebras import Word, enumerate_words, project_regular, psi_word

T = LinComb.basis(TREE)
L = LinComb.basis(ONELOOP)


def g(s: str):
    return parse(s, "graph-sum").single_basis()


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum").value


def all_graphs(max_order: int):
    for n in range(max_order + 1):
        for gg in range(n + 1):
            yield from enumerate_graphs(n, gg)


def test_border_examples():
    v = trees.graft(trees.LEAF, trees.LEAF)
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
    assert border(LinComb.zero()).is_zero()


def test_contracting_homotopy():
    # d h + h d = Id on every basis tree of order 1..5
    for n in range(1, 6):
        for t in trees.enumerate_trees(n):
            dh = border_tree(trees.extra_degeneracy(t))
            hd = border_tree(t).map_basis(trees.extra_degeneracy)
            assert dh + hd == LinComb.basis(t)


def test_homotopy_worked_example():
    v = trees.graft(trees.LEAF, trees.LEAF)
    assert border_tree(v).is_zero()
    assert border_tree(trees.extra_degeneracy(v)) == LinComb.basis(v)


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


def test_d_h_not_closed_in_full_algebra():
    assert d_h_graph(g("(|o(|v|))")) == gsum("(|o(|o|))")


def test_d_h_squares_to_zero():
    for graph in all_graphs(5):
        assert d_h_sum(d_h_graph(graph)).is_zero()


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


def test_cochain_validation():
    Cochain(1, 1, L)
    with pytest.raises(ValueError):
        Cochain(1, 0, L)
    with pytest.raises(ValueError):
        Cochain(2, 0, T + L)


def test_d_h_cochain_wrappers():
    x = Cochain(2, 0, star_h(TREE, TREE))
    y = d_h(x)
    assert (y.order, y.genus) == (2, 1)
    assert y.value == star_h(ONELOOP, TREE) - star_h(TREE, ONELOOP)


def test_d_h_reg_closedness():
    tl = Cochain(2, 1, star_h(TREE, ONELOOP))
    lt = Cochain(2, 1, star_h(ONELOOP, TREE))
    assert d_h_reg(tl).value.is_zero()
    assert d_h_reg(lt).value.is_zero()


def test_d_h_reg_drops_irregular_images():
    x = Cochain(2, 1, gsum("(|o(|v|))"))
    assert d_h_reg(x).value.is_zero()
    assert d_h(x).value == gsum("(|o(|o|))")
    with pytest.raises(ValueError):
        d_h_reg(Cochain(2, 2, gsum("(|o(|o|))")))


def test_d_h_reg_squares_to_zero_on_regular():
    for graph in all_graphs(5):
        from lrq.loopgraphs import is_regular

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
    for n in range(6):
        for gg in range(n + 1):
            assert cohomology_dim(n, gg, "full") == (1 if (n, gg) == (0, 0) else 0)


def test_regular_complex_matches_kozlov():
    # Per tree the regular complex is the independence complex of a path
    # (Kozlov, "Complexes of directed trees", JCTA 88, 1999).
    for n in range(7):
        top = ceil(n / 3)
        for gg in range(n + 1):
            expected = comb(2 * n, n) // (n + 1) if n % 3 != 1 and gg == top else 0
            assert cohomology_dim(n, gg, "reg") == expected, (n, gg)


def test_toprec_matches_dense_elimination():
    for n in range(6):
        for gg in range(n + 1):
            assert cohomology_dim(n, gg, "toprec") == toprec_dim_dense(n, gg), (n, gg)


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


def test_leibniz_probe_generator_instance():
    report = leibniz_probe(T, T)
    assert report == LeibnizReport(plus=False, minus=True)
    assert report.passed
    assert "sign -1" in str(report)


def test_leibniz_probe_unit():
    unit = LinComb.basis(LEAF)
    report = leibniz_probe(unit, T)
    assert report.plus


def test_leibniz_probe_tree_loop_recorded():
    # d(L) = 0, so both signs hold on this instance.
    report = leibniz_probe(T, L)
    assert report.passed
    assert report.plus and report.minus


def test_leibniz_probe_rejects_mixed_input():
    with pytest.raises(ValueError):
        leibniz_probe(T + L, T)
