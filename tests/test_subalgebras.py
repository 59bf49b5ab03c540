"""Regular quotient, word expansions, loop-counting expansions, generating
function coefficients."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, comb, factorial

import pytest

from lrq.cli import run
from lrq.exprs import parse
from lrq.freemodule import LinComb, bilinear_extend
from lrq import loopgraphs, subalgebras
from lrq.hopfops import (
    UNIT,
    antipode,
    delta_h,
    delta_h_sum,
    graphs_up_to_total_order,
    star_h,
    star_h_sum,
)
from lrq.loopgraphs import (
    LEAF,
    ONELOOP,
    TREE,
    enumerate_graphs,
    is_regular,
)
from lrq.subalgebras import (
    MAX_CORRELATOR_ORDER,
    MAX_GENFUN_DEGREE,
    MAX_PSI_LENGTH,
    Word,
    correlator_genera,
    delta_h_quotient_counterexample,
    enumerate_words,
    full_correlator,
    generating_function,
    project_regular,
    psi_word,
    star_reg,
)
from lrq.trees import enumerate_trees
from oracles import correlator_sums, genfun_table, single_basis, support
from test_hopfops import star_tree

L = LinComb.basis(ONELOOP)
T = LinComb.basis(TREE)


def psi_genus0(n: int) -> LinComb:
    """The n-fold classical star power of the elementary tree (oracle)."""
    acc = LinComb.basis(LEAF)
    prod = bilinear_extend(star_tree)
    for _ in range(n):
        acc = prod(acc, T)
    return acc


def psi_fold(w: Word) -> LinComb:
    """The expansion of a word as the left fold of the loop-graph product
    over its letters, T = (|v|) and L = (|o|), then the regular projection
    (oracle)."""
    acc = UNIT
    for letter in w.letters:
        acc = star_h_sum(acc, T if letter == "T" else L)
    return project_regular(acc)


def words_by_combinations(n: int, g: int) -> list[Word]:
    """The valid words of length n with g loops, from the g-subsets of
    positions with no two adjacent (oracle)."""
    out = []
    for spots in combinations(range(n), g):
        if any(b - a == 1 for a, b in zip(spots, spots[1:])):
            continue
        out.append(Word("".join("L" if i in spots else "T" for i in range(n))))
    return sorted(out, key=Word.sort_key)


def gsum(s: str) -> LinComb:
    return parse(s, "graph-sum")


def test_word_validation():
    with pytest.raises(ValueError):
        Word("LL")
    with pytest.raises(ValueError):
        Word("TX")
    assert str(Word("")) == "1"


def test_project_examples():
    assert project_regular(gsum("(|o(|o|)) + ((|o|)o|)")).is_zero()
    x = gsum("(|v|) + 2*((|o|)v(|o|))")
    assert project_regular(x) == x
    assert project_regular(star_h(ONELOOP, ONELOOP)).is_zero()


def test_loop_generator_nilpotent():
    assert star_reg(L, L).is_zero()


def test_star_reg_examples():
    assert star_reg(T, L) == gsum("((|v|)o|) + (|v(|o|))")
    lhs = star_reg(star_reg(T, L), T)
    rhs = star_reg(T, star_reg(L, T))
    assert lhs == rhs


def test_irregular_graphs_span_a_two_sided_ideal():
    # The product concatenates the masks, so two adjacent loops of either
    # factor stay adjacent in every term: an irregular graph is the zero
    # class, and the quotient product may take any representatives.
    graphs = [t for n in range(6) for gg in range(n + 1) for t in enumerate_graphs(n, gg)]
    pairs = 0
    for x in graphs:
        for y in graphs:
            if x.order + y.order > 5:
                continue
            if not (is_regular(x) and is_regular(y)):
                pairs += 1
                assert not any(is_regular(s) for s in support(star_h(x, y)))
            xs, ys = LinComb.basis(x), LinComb.basis(y)
            assert star_reg(xs, ys) == project_regular(
                star_h_sum(project_regular(xs), project_regular(ys)))
    assert pairs > 0


def test_psi_word_generators():
    assert psi_word(Word("T")) == T
    assert psi_word(Word("L")) == L
    assert psi_word(Word("")) == LinComb.basis(LEAF)


def test_psi_word_ltl_matches_genus2_graphs():
    got = psi_word(Word("LTL"))
    assert len(got) == 5
    assert {t.genus for t, _ in got.items()} == {2}
    assert support(got) == enumerate_graphs(3, 2, regular_only=True)
    assert all(c == 1 for _, c in got.items())


def test_psi_word_ttt_equals_genus0():
    assert psi_word(Word("TTT")) == psi_genus0(3)


def test_psi_genus0_small():
    assert psi_genus0(0) == LinComb.basis(LEAF)
    assert psi_genus0(1) == T
    assert psi_genus0(3) == LinComb((t, 1) for t in enumerate_trees(3))


def test_psi_word_summands_regular_with_word_bidegree():
    for n in range(6):
        for g in range(n + 1):
            for w in enumerate_words(n, g):
                val = psi_word(w)
                for t, _ in val.items():
                    assert t.order == n and t.genus == g
                    assert is_regular(t)


def test_enumerate_words_matches_combinations():
    for n in range(11):
        for g in range(n + 2):
            assert enumerate_words(n, g) == words_by_combinations(n, g), (n, g)


def test_psi_word_refuses_a_word_beyond_the_bound(monkeypatch):
    built = []
    monkeypatch.setattr(subalgebras, "_graphs", lambda n, m: built.append((n, m)) or ())
    bound = f"beyond the psi bound length <= {MAX_PSI_LENGTH}"
    for letters in ("T" * (MAX_PSI_LENGTH + 1), "LT" * MAX_PSI_LENGTH):
        with pytest.raises(ValueError, match=bound):
            psi_word(Word(letters))
    assert built == []
    # The bound itself is accepted.
    assert psi_word(Word("L" + "T" * (MAX_PSI_LENGTH - 1))).is_zero()
    assert built == [(MAX_PSI_LENGTH, 1)]


# Every word over {T, L} of length at most 6, adjacent L letters allowed: 127
# words, shortest first.
FREE_WORDS = ["".join(w) for n in range(7) for w in product("TL", repeat=n)]


def free_graphs(w: str) -> tuple:
    """Every tree of order |w| carrying w's mask, bit i set when letter i is
    L, adjacent L letters or not."""
    return loopgraphs._graphs(len(w), sum(1 << i for i, x in enumerate(w) if x == "L"))


def free_word(w: str) -> LinComb:
    return LinComb.sum_of(free_graphs(w))


def test_a_free_word_is_the_product_of_its_letters():
    # Oracle: the letters multiplied from the unit, T = (|v|), L = (|o|).
    products = {"": UNIT}
    for w in FREE_WORDS:
        if w:
            products[w] = star_h_sum(products[w[:-1]], T if w[-1] == "T" else L)
        assert products[w] == free_word(w), w


# Sum-level oracles at and above the total order to which the Hopf laws are
# checked graph by graph (`hopfops.MAX_AXIOM_ORDER`, 8): T^8, all 1430 trees
# of order 8, whose unshuffle coproduct is the sum over k of
# C(8, k) T^k (x) T^(8-k), and two words of total order 10.
HOPF_WORDS = FREE_WORDS + ["T" * 8, "LTTLTLT", "TLLTTLT"]


def test_a_free_word_has_the_unshuffle_coproduct():
    # The sum over the subsets S of positions of w_S (x) w_(S^c): T and L
    # are primitive, and distinct words have disjoint supports.
    for w in HOPF_WORDS:
        acc = {}
        for s in range(1 << len(w)):
            inside = "".join(x for i, x in enumerate(w) if s >> i & 1)
            outside = "".join(x for i, x in enumerate(w) if not s >> i & 1)
            for ab in product(free_graphs(inside), free_graphs(outside)):
                acc[ab] = acc.get(ab, 0) + 1
        assert delta_h_sum(free_word(w)) == LinComb.of_dict(acc), w


def test_a_free_word_has_the_reversal_antipode():
    for w in HOPF_WORDS:
        assert antipode(free_word(w)) == (-1) ** len(w) * free_word(w[::-1]), w


def test_enumerate_words_examples():
    assert [str(w) for w in enumerate_words(3, 1)] == ["LTT", "TLT", "TTL"]
    assert enumerate_words(2, 2) == []
    assert [str(w) for w in enumerate_words(3, 2)] == ["LTL"]
    assert enumerate_words(0, 0) == [Word("")]


def test_full_correlator_order_1():
    exp = correlator_sums(1)
    assert list(exp) == [0, 1]
    assert exp[0] == T
    assert exp[1] == L


def test_full_correlator_order_3_counts():
    exp = correlator_sums(3)
    assert list(exp) == [0, 1, 2]
    assert len(support(exp[1])) == 15
    assert sum(len(support(x)) for x in exp.values()) == 25


def test_full_correlator_uniform_bidegrees():
    for n in range(5):
        exp = correlator_sums(n)
        assert list(exp) == list(range(-(-n // 2) + 1))
        for g, x in exp.items():
            for t, _ in x.items():
                assert t.genus == g and t.order == n


def test_full_correlator_is_the_sum_of_the_word_folds():
    for n in range(8):
        for g, x in correlator_sums(n).items():
            want = LinComb()
            for w in enumerate_words(n, g):
                want += psi_fold(w)
            assert x == want, (n, g)


def test_full_correlator_has_no_genus_outside_its_range():
    for n in range(7):
        # Each line of the text is one genus, "h^g: " and its sum.
        printed = [int(line[2:line.index(":")]) for line in full_correlator(n).split("\n")]
        assert printed == list(correlator_genera(n)) == list(range(ceil(n / 2) + 1)), n
        # A regular graph of order n has at most ceil(n/2) loops.
        assert enumerate_graphs(n, ceil(n / 2) + 1, True) == [], n


def test_full_correlator_refuses_an_order_beyond_the_bound(monkeypatch):
    def enumerated(*args):
        raise AssertionError(f"enumerated {args} before checking the bound")

    monkeypatch.setattr(subalgebras, "family_text", enumerated)
    monkeypatch.setattr(loopgraphs, "_walk", enumerated)
    bound = f"beyond the correlator bound n <= {MAX_CORRELATOR_ORDER}"
    for n in (MAX_CORRELATOR_ORDER + 1, 10**6):
        with pytest.raises(ValueError, match=bound):
            full_correlator(n)


@lru_cache(maxsize=None)
def recursion_terms(g: int, k: int) -> int:
    """The number of terms of W^g_k, the recursion expanded down to W^0_2:
    one term for W^{g-1}_{k+1}, and for each splitting (h, A) of the genus
    and of the legs 1..k-1 with no W^0_1 factor, the products of the terms
    of W^h_{1+|A|} and W^{g-h}_{k-|A|}."""
    if (g, k) == (0, 2):
        return 1
    if g < 0 or 2 * g - 2 + k <= 0:
        return 0
    out = recursion_terms(g - 1, k + 1)
    for h in range(g + 1):
        for a in range(k):
            if (h, a) != (0, 0) and (h, a) != (g, k - 1):
                out += comb(k - 1, a) * recursion_terms(h, 1 + a) * recursion_terms(g - h, k - a)
    return out


def labelled_correlator_graphs(g: int, k: int) -> int:
    # Regular graphs of order 2g-2+k and genus g, with the k-1 legs labelled.
    return len(correlator_sums(2 * g - 2 + k)[g]) * factorial(k - 1)


@pytest.mark.parametrize("g,k", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)])
def test_correlator_graphs_count_the_recursion_terms_in_low_genus(g, k):
    assert recursion_terms(g, k) == labelled_correlator_graphs(g, k)


@pytest.mark.parametrize("g,k,terms,graphs", [
    (1, 3, 32, 30), (2, 2, 50, 42), (3, 1, 60, 42), (1, 4, 384, 336), (4, 1, 1105, 429),
])
def test_correlator_graphs_are_not_the_recursion_terms(g, k, terms, graphs):
    # So for g >= 1 `full_correlator` is no term-by-term expansion of W^g_k.
    assert recursion_terms(g, k) == terms
    assert labelled_correlator_graphs(g, k) == graphs


def test_quotient_counterexample_first_appears_at_total_order_4():
    witnesses = [delta_h_quotient_counterexample(m) for m in range(6)]
    assert witnesses == [None] * 4 + [(ONELOOP, ONELOOP)] * 2


def test_quotient_counterexample_refuses_a_negative_bound(monkeypatch):
    def built(*args):
        raise AssertionError(f"built {args} before checking the bound")

    monkeypatch.setattr(subalgebras, "graphs_up_to_total_order", built)
    for m in (-1, -10**6):
        with pytest.raises(ValueError, match="^total order must be nonnegative$"):
            delta_h_quotient_counterexample(m)


def test_generating_function_examples():
    cells = list(generating_function(3))
    table = {(i, j): LinComb((w, c) for w in words) for i, j, c, words in cells}
    assert table[(1, 0)] == LinComb.basis(Word("T"))
    assert table[(1, 1)] == LinComb(
        [(Word("TL"), Fraction(1, 2)), (Word("LT"), Fraction(1, 2))]
    )
    assert table[(0, 2)].is_zero()
    assert table[(0, 0)] == LinComb.basis(Word(""))
    assert table[(3, 0)] == LinComb.basis(Word("TTT"), Fraction(1, 6))
    assert set(table) == {(i, j) for m in range(4) for j in range(m + 1) for i in [m - j]}
    # Every cell against the words over {L, T} without "LL", in print order.
    assert table == genfun_table(3)
    assert list(table) == sorted(table, key=lambda ij: (sum(ij), ij[1]))


def test_generating_function_checks_its_bound_before_building(monkeypatch):
    def built(*args):
        raise AssertionError(f"enumerated words {args} before checking the bound")

    monkeypatch.setattr(subalgebras, "enumerate_words", built)
    with pytest.raises(ValueError, match=f"max degree <= {MAX_GENFUN_DEGREE}"):
        generating_function(MAX_GENFUN_DEGREE + 1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        generating_function(-1)
    # Within the bound a cell's words are built only when it is reached.
    cells = generating_function(MAX_GENFUN_DEGREE)
    with pytest.raises(AssertionError, match=r"\(0, 0\)"):
        next(cells)


def test_regular_projection_is_an_ideal():
    # pi(x * y) = pi(pi(x) * pi(y)) on basis graphs, so the quotient multiplies.
    basis = graphs_up_to_total_order(5)
    for x in basis:
        for y in basis:
            if x.total_order + y.total_order > 5:
                continue
            full = star_h(x, y)
            lhs = project_regular(full)
            rhs = project_regular(
                star_h_sum(
                    project_regular(LinComb.basis(x)),
                    project_regular(LinComb.basis(y)),
                )
            )
            assert lhs == rhs


def test_coproduct_fails_on_regular_quotient():
    # The structural reason: the coproduct of an irregular graph contains a
    # regular (x) regular term, so projecting does not commute with it.
    double = single_basis("(|o(|o|))")
    assert delta_h(double).coeff((ONELOOP, ONELOOP)) == 1

    # Concrete failure: delta(L *_reg L) = 0 but (pi x pi) delta(L)*delta(L) != 0.
    lhs = delta_h_sum(star_reg(L, L))
    assert lhs.is_zero()

    def tensor_star(x, y):
        out = []
        for (a, b), c in x.items():
            for (d, e), f in y.items():
                coeff = c * f
                for s1, c1 in star_h(a, d).items():
                    for s2, c2 in star_h(b, e).items():
                        out.append(((s1, s2), coeff * c1 * c2))
        return LinComb(out)

    rhs = tensor_star(delta_h(ONELOOP), delta_h(ONELOOP))
    rhs_projected = LinComb(
        ((a, b), c)
        for (a, b), c in rhs.items()
        if project_regular(LinComb.basis(a)) and project_regular(LinComb.basis(b))
    )
    assert not rhs_projected.is_zero()
    assert lhs != rhs_projected


def test_full_correlator_text_order_1():
    assert full_correlator(1) == "h^0: (|v|)\nh^1: (|o|)"


def sorted_print(n: int) -> str:
    """The order-n expansion printed through the LinComb of each genus,
    which sorts its graphs by sort_key (oracle)."""
    return "\n".join(f"h^{g}: {x}" for g, x in correlator_sums(n).items())


def test_full_correlator_prints_as_its_sorted_graph_sums():
    for n in range(8):
        assert full_correlator(n) == sorted_print(n), n


def test_full_correlator_prints_without_interning_a_graph(monkeypatch, capsys):
    def interned(key):
        raise AssertionError(f"interned {key} to print it")

    want = sorted_print(7)
    lines = "".join(f"{t}\n" for t in enumerate_graphs(7, 3))
    monkeypatch.setattr(loopgraphs, "graph_of", interned)
    loopgraphs._nodes.cache_clear()
    before = set(loopgraphs._NODES)
    assert full_correlator(7) == want
    assert run(["enumerate", "graphs", "--order", "7", "--genus", "3"]) == 0
    assert capsys.readouterr().out == lines
    # Printing reads no node table and builds no node, as by the CLI.
    assert loopgraphs._nodes.cache_info().currsize == 0
    assert set(loopgraphs._NODES) == before
