"""Expression grammar: parsing, canonical printing, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lrq.cli import run
from lrq.exprs import ParseError, parse
from lrq.freemodule import LinComb
from lrq.loopgraphs import ONELOOP, TREE, enumerate_graphs
from lrq.permutations import Permutation
from lrq.subalgebras import Word
from oracles import all_permutations, single_basis


def test_parse_single_graph():
    graph = single_basis("(|v(|o|))")
    assert (graph.order, graph.genus) == (2, 1)


def test_parse_two_term_sum():
    expr = parse("1/2*(|v|) + -1*(|o|)", "graph-sum")
    assert expr == LinComb([(TREE, Fraction(1, 2)), (ONELOOP, -1)])


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("(|v|", "graph-sum")
    assert err.value.offset == 4
    assert "syntax error at offset 4" in str(err.value)


def test_parse_error_positions():
    for text, offset in [("(x", 1), ("", 0), ("(|v|) + ", 8), ("[1,", 3)]:
        kind = "permutation" if text.startswith("[") else "graph-sum"
        with pytest.raises(ParseError) as err:
            parse(text, kind)
        assert err.value.offset == offset


def test_whitespace_ignored():
    assert parse(" ( | v | ) ", "graph-sum") == LinComb.basis(TREE)
    assert parse("1/2 * (|v|)", "graph-sum") == LinComb.basis(
        TREE, Fraction(1, 2)
    )


def test_zero_and_coefficient_forms():
    assert parse("0", "graph-sum").is_zero()
    assert parse("0*(|v|)", "graph-sum").is_zero()
    assert parse("(|v|) - (|v|)", "graph-sum").is_zero()
    assert parse("-(|v|)", "graph-sum") == LinComb.basis(TREE, -1)
    assert parse("3*(|v|)", "graph-sum") == LinComb.basis(TREE, 3)


def test_parse_tensor_terms():
    expr = parse("(|v|)@(|o|)", "graph-sum")
    assert expr == LinComb.basis((TREE, ONELOOP))
    nested = parse("(|v|)@(|o|)@|", "graph-sum")
    ((factors, _),) = nested.items()
    assert len(factors) == 3


def test_parse_permutations():
    assert single_basis("[3,1,2]", "permutation") == Permutation((3, 1, 2))
    assert single_basis("[]", "permutation") == Permutation()
    with pytest.raises(ParseError):
        parse("[1,1]", "permutation")


def test_parse_words():
    assert single_basis("LTL", "word") == Word("LTL")
    assert single_basis("1", "word") == Word("")
    with pytest.raises(ParseError):
        parse("LL", "word")
    with pytest.raises(ParseError):
        parse("xyz", "word")


PARSE_ERRORS = [
    ("(|v|", "graph-sum", 4, "expected ')'"),
    ("1/*|", "graph-sum", 2, "expected digits"),
    ("1/0*|", "graph-sum", 3, "zero denominator"),
    ("3|", "graph-sum", 0, "expected '|' or '('"),
    ("(|x|)", "graph-sum", 2, "expected 'v' or 'o'"),
    ("012", "graph-sum", 3, "expected '*' after a coefficient"),
    ("| |", "graph-sum", 2, "unexpected trailing input"),
    ("[1,1]", "permutation", 5, "not a permutation word: (1, 1)"),
    ("X", "word", 0, "expected a word over {T, L}"),
    ("TLL", "word", 0, "invalid word (adjacent loops): 'TLL'"),
    # Errors in a later term of a sum.
    ("- - |", "graph-sum", 2, "expected '|' or '('"),
    ("| + 2/0*|", "graph-sum", 7, "zero denominator"),
    ("| + 0 + 7", "graph-sum", 8, "expected '|' or '('"),
    # A superscript digit is a digit to str.isdigit but not to int.
    ("²*|", "graph-sum", 0, "expected '|' or '('"),
    ("[1,²]", "permutation", 3, "expected digits"),
]


@pytest.mark.parametrize("text, kind, offset, message", PARSE_ERRORS)
def test_parse_error_messages(text, kind, offset, message):
    with pytest.raises(ParseError) as err:
        parse(text, kind)
    assert (err.value.offset, err.value.reason) == (offset, message)
    assert str(err.value) == f"syntax error at offset {offset}: {message}"


def test_parse_check_reports_the_syntax_error(capsys):
    assert run(["parse-check", "1/0*|"]) == 1
    assert capsys.readouterr() == ("", "syntax error at offset 3: zero denominator\n")


def test_a_non_decimal_digit_is_a_syntax_error(capsys):
    assert run(["product", "(|v|)", "²*(|v|)"]) == 1
    assert capsys.readouterr() == ("", "syntax error at offset 0: expected '|' or '('\n")
    # A decimal digit of another script is one that int reads.
    assert parse("١*(|v|)", "graph-sum") == parse("(|v|)", "graph-sum")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        parse("(|v|)", "graphs")


def test_single_basis_rejects_sums(capsys):
    # A command that takes one graph or permutation refuses any other sum.
    for argv, got in [(["face", "(|v|) + (|o|)", "--index", "0"], "(|v|) + (|o|)"),
                      (["face", "2*(|v|)", "--index", "0"], "2*(|v|)"),
                      (["tree-of-perm", "0"], "0")]:
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: expected a single basis element, got {got}\n")


GRAPH_POOL = [
    t
    for n in range(5)
    for g in range(n + 1)
    for t in enumerate_graphs(n, g)
]

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
graph_sums = st.lists(
    st.tuples(st.sampled_from(GRAPH_POOL), fractions), max_size=5
).map(LinComb)


@given(graph_sums)
def test_graph_sum_roundtrip(x):
    # parse . print is the identity on every value
    text = str(x)
    again = parse(text, "graph-sum")
    assert again == x
    # print . parse is the identity on canonical text
    assert str(again) == text


perm_sums = st.lists(
    st.tuples(
        st.sampled_from([p for n in range(4) for p in all_permutations(n)]),
        fractions,
    ),
    max_size=4,
).map(LinComb)


@given(perm_sums)
def test_perm_sum_roundtrip(x):
    text = str(x)
    assert parse(text, "permutation") == x


word_sums = st.lists(
    st.tuples(
        st.sampled_from([Word(""), Word("T"), Word("L"), Word("TT"), Word("LT"),
                         Word("TL"), Word("LTL"), Word("TTT")]),
        fractions,
    ),
    max_size=4,
).map(LinComb)


@given(word_sums)
def test_word_sum_roundtrip(x):
    text = str(x)
    assert parse(text, "word") == x


def test_mixed_plain_and_tensor_terms_roundtrip():
    # The grammar allows sums mixing atoms with tensor terms of any arity.
    x = LinComb([(TREE, 2), ((TREE, ONELOOP), 1), ((TREE, TREE, TREE), -1)])
    assert parse(str(x), "graph-sum") == x


def test_tensor_roundtrip_through_coproduct():
    from lrq.hopfops import delta_h

    d = delta_h(single_basis("(|o(|v|))"))
    text = str(d)
    assert parse(text, "graph-sum") == d
