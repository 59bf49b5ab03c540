"""CLI: golden outputs, exit codes, JSON forms, round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from unittest import mock
from hypothesis import given, settings, strategies as st

import lrq
from lrq import airy, complexes, hopfops, loopgraphs, permutations, subalgebras, trees
from lrq.airy import MAX_NEG_EULER
from lrq.cli import MAX_ENUMERATE_ORDER, _build_parser, _json_terms, _sum_chunks, run
from lrq.complexes import MAX_COHOMOLOGY_ORDER
from lrq.exprs import parse
from lrq.freemodule import LinComb, sum_text
from lrq.hopfops import MAX_AXIOM_ORDER
from lrq.loopgraphs import enumerate_graphs
from lrq.subalgebras import MAX_CORRELATOR_ORDER, MAX_GENFUN_DEGREE, MAX_PSI_LENGTH
from airy_series import expansion, laurent_json
from oracles import correlator_sums, genfun_table, run_two_level, single_basis, support
from test_airy import assert_same_text, walk_pairs


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_cohomology(capsys):
    code, out, _ = invoke(
        capsys, "cohomology", "--order", "2", "--genus", "1", "--space", "toprec"
    )
    assert code == 0
    assert out == "1\n"


def test_golden_airy(capsys):
    code, out, _ = invoke(capsys, "airy", "--genus", "1", "--legs", "1")
    assert code == 0
    assert out == "1/16 * p^-4\n"


def test_golden_product(capsys):
    code, out, _ = invoke(
        capsys, "product", "(|o|)", "(|o|)", "--algebra", "full"
    )
    assert code == 0
    assert out == "(|o(|o|)) + ((|o|)o|)\n"


def test_output_is_reproducible(capsys):
    first = invoke(capsys, "correlator", "--order", "3")
    second = invoke(capsys, "correlator", "--order", "3")
    assert first == second


def test_parse_error_exit_code(capsys):
    code, out, err = invoke(capsys, "product", "(|v|", "(|v|)")
    assert code == 1
    assert out == ""
    assert "syntax error at offset 4" in err


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "airy", "--genus", "0", "--legs", "2")
    assert code == 2
    assert "unstable" in err
    code, _, err = invoke(capsys, "face", "(|v|)", "--index", "7")
    assert code == 2


@pytest.mark.parametrize("space", ["full", "reg", "toprec"])
@pytest.mark.parametrize("order, genus", [("3", "-1"), ("-1", "0")])
def test_cohomology_rejects_negative_bidegree(capsys, space, order, genus):
    code, out, err = invoke(
        capsys, "cohomology", "--order", order, "--genus", genus, "--space", space
    )
    assert (code, out) == (2, "")
    assert err == "error: order and genus must be nonnegative\n"


@pytest.mark.parametrize("space", ["full", "reg", "toprec"])
def test_cohomology_refuses_an_order_beyond_the_bound(capsys, space):
    code, out, err = invoke(
        capsys, "cohomology", "--order", "1000000", "--genus", "3", "--space", space
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: order 1000000 is beyond the cohomology bound "
        f"n <= {MAX_COHOMOLOGY_ORDER}\n"
    )


@pytest.mark.parametrize(
    "genus, legs", [(0, MAX_NEG_EULER + 3), (1, MAX_NEG_EULER + 1), (0, 1000000)]
)
def test_airy_refuses_a_pair_beyond_the_bound(capsys, monkeypatch, genus, legs):
    def computed(g, key):
        raise AssertionError(f"computed a coefficient of ({g}, {len(key)})")

    monkeypatch.setattr(airy, "_numerator", computed)
    code, out, err = invoke(capsys, "airy", "--genus", str(genus), "--legs", str(legs))
    assert (code, out) == (2, "")
    assert err == (
        f"error: correlator (genus {genus}, {legs} legs) beyond configured bound "
        f"2g-2+k <= {MAX_NEG_EULER}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "(|v|)@|", "(|o|)"),
        ("product", "(|v|)", "|@(|o|)", "--algebra", "reg"),
        ("coproduct", "(|v|)@|"),
        ("antipode", "|@|"),
        ("counit", "|@|"),
        ("dh", "(|v|)@|"),
        ("psi", "TLT@T"),
        ("perm-product", "[1]@[1]", "[1]"),
        ("perm-coproduct", "[1,2]@[1]"),
        ("tree-of-perm", "[1,2]@[1]"),
    ],
)
def test_tensor_input_is_a_domain_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def test_tensor_input_where_it_was_already_handled(capsys):
    assert invoke(capsys, "counit", "(|v|)@|") == (
        2, "", "error: expected a graph sum without tensors, got (|v|)@|\n"
    )
    assert invoke(capsys, "face", "(|v|)@|", "--index", "0") == (
        2, "", "error: expected a single graph, not a tensor\n"
    )
    assert invoke(capsys, "border", "(|v|)@|") == (
        2, "", "error: expected an unmarked tree sum, got (|v|)@|\n"
    )


def test_enumerate_commands(capsys):
    code, out, _ = invoke(capsys, "enumerate", "trees", "--order", "2")
    assert code == 0
    assert out == "(|v(|v|))\n((|v|)v|)\n"
    code, out, _ = invoke(
        capsys, "enumerate", "graphs", "--order", "3", "--genus", "1", "--regular"
    )
    assert len(out.splitlines()) == 15
    code, out, _ = invoke(capsys, "enumerate", "words", "--order", "3", "--genus", "1")
    assert out == "LTT\nTLT\nTTL\n"


@pytest.mark.parametrize("family, empty_genus", [("trees", 1), ("graphs", 3), ("words", 2)])
def test_enumerate_by_genus(capsys, family, empty_genus):
    # A genus with no members lists nothing, and a negative genus is refused;
    # trees are the graphs of genus 0 and refuse it with the graphs' message.
    base = ("enumerate", family, "--order", "2", "--genus")
    assert invoke(capsys, *base, str(empty_genus)) == (0, "", "")
    assert invoke(capsys, *base, str(empty_genus), "--json") == (0, "[]\n", "")
    message = {"words": "error: length and loop count must be nonnegative\n"}.get(
        family, "error: order and genus must be nonnegative\n")
    assert invoke(capsys, *base, "-1") == (2, "", message)


def test_product_algebras(capsys):
    _, reg, _ = invoke(capsys, "product", "(|o|)", "(|o|)", "--algebra", "reg")
    assert reg == "0\n"
    _, classical, _ = invoke(
        capsys, "product", "(|v|)", "(|v|)", "--algebra", "classical"
    )
    assert classical == "(|v(|v|)) + ((|v|)v|)\n"
    code, _, err = invoke(capsys, "product", "(|o|)", "(|v|)", "--algebra", "classical")
    assert code == 2


def test_coproduct_counit_antipode(capsys):
    _, out, _ = invoke(capsys, "coproduct", "(|o|)")
    assert out == "|@(|o|) + (|o|)@|\n"
    _, out, _ = invoke(capsys, "counit", "2*| + 3*(|v|)")
    assert out == "2\n"
    _, out, _ = invoke(capsys, "antipode", "(|o|)")
    assert out == "-(|o|)\n"


def test_perm_commands(capsys):
    _, out, _ = invoke(capsys, "perm-product", "[1]", "[1]")
    assert out == "[1,2] + [2,1]\n"
    _, out, _ = invoke(capsys, "perm-coproduct", "[1,2]")
    assert out == "[]@[1,2] + [1]@[1] + [1,2]@[]\n"
    _, out, _ = invoke(capsys, "tree-of-perm", "[1,3,2]")
    assert out == "((|v|)v(|v|))\n"


def test_tree_operator_commands(capsys):
    _, out, _ = invoke(capsys, "face", "(|v(|v|))", "--index", "1")
    assert out == "(|v|)\n"
    _, out, _ = invoke(capsys, "degeneracy", "(|v|)", "--index", "0")
    assert out == "((|v|)v|)\n"
    _, out, _ = invoke(capsys, "border", "(|v(|v|))")
    assert out == "(|v|)\n"


def test_dh_command(capsys):
    _, out, _ = invoke(capsys, "dh", "(|v|)")
    assert out == "(|o|)\n"
    _, out, _ = invoke(capsys, "dh", "(|o(|v|))", "--space", "reg")
    assert out == "0\n"
    _, out, _ = invoke(capsys, "dh", "(|o(|v|))", "--space", "full")
    assert out == "(|o(|o|))\n"
    # The regular differential takes irregular input too: adding a loop keeps
    # two adjacent loops, so every term is dropped.
    for irregular in ("(|o(|o|))", "((|o|)o(|v|))"):
        assert invoke(capsys, "dh", irregular, "--space", "reg") == (0, "0\n", "")
    # So does the regular product: an irregular factor is the zero class.
    argv = ("product", "(|o(|o|))", "(|v|)", "--algebra", "reg")
    assert invoke(capsys, *argv) == (0, "0\n", "")


def test_psi_command(capsys):
    _, out, _ = invoke(capsys, "psi", "LTL")
    assert len(out.strip().split(" + ")) == 5
    _, out, _ = invoke(capsys, "psi", "1")
    assert out == "|\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("correlator", "--order", str(MAX_CORRELATOR_ORDER + 1)),
         f"order {MAX_CORRELATOR_ORDER + 1} is beyond the correlator bound "
         f"n <= {MAX_CORRELATOR_ORDER}"),
        (("correlator", "--order", str(10**6)),
         f"order {10**6} is beyond the correlator bound n <= {MAX_CORRELATOR_ORDER}"),
        (("psi", "T" * MAX_PSI_LENGTH + "L"),
         f"word of length {MAX_PSI_LENGTH + 1} is beyond the psi bound "
         f"length <= {MAX_PSI_LENGTH}"),
    ],
)
def test_correlator_and_psi_refuse_sizes_beyond_the_bound(capsys, monkeypatch, argv, message):
    def built(*args):
        raise AssertionError(f"built graphs {args} before checking the bound")

    monkeypatch.setattr(loopgraphs, "_walk", built)
    assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")
    assert invoke(capsys, *argv, "--json") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("degree", [MAX_GENFUN_DEGREE + 1, 10**6])
def test_genfun_refuses_a_degree_beyond_the_bound(capsys, monkeypatch, degree):
    def built(*args):
        raise AssertionError(f"enumerated words {args} before checking the bound")

    monkeypatch.setattr(subalgebras, "enumerate_words", built)
    message = (f"error: degree {degree} is beyond the genfun bound "
               f"max degree <= {MAX_GENFUN_DEGREE}\n")
    assert invoke(capsys, "genfun", "--max-degree", str(degree)) == (2, "", message)


# Words are bounded by the genfun bound, trees and graphs by the enumerate one.
ENUMERATE_BOUNDS = {"trees": MAX_ENUMERATE_ORDER, "graphs": MAX_ENUMERATE_ORDER,
                    "words": MAX_GENFUN_DEGREE}


@pytest.mark.parametrize(("order", "family"),
                         [(bound + 1, family) for family, bound in ENUMERATE_BOUNDS.items()]
                         + [(10**6, family) for family in ENUMERATE_BOUNDS])
def test_enumerate_refuses_an_order_beyond_the_bound(capsys, monkeypatch, family, order):
    def built(*args):
        raise AssertionError(f"enumerated {args} before checking the bound")

    monkeypatch.setattr(loopgraphs, "_walk", built)
    monkeypatch.setattr(trees, "enumerate_trees", built)
    monkeypatch.setattr(loopgraphs, "enumerate_graphs", built)
    monkeypatch.setattr(subalgebras, "enumerate_words", built)
    bound = ENUMERATE_BOUNDS[family]
    message = f"error: order {order} is beyond the enumerate bound n <= {bound}\n"
    assert invoke(capsys, "enumerate", family, "--order", str(order), "--genus", "1") == (
        2, "", message)


@pytest.mark.parametrize("genus", range(7))
def test_enumerate_words_beyond_the_graph_bound(capsys, genus):
    # The words of order MAX_ENUMERATE_ORDER + 1 with g letters L are the
    # g-subsets of positions with no two adjacent: C(n - g + 1, g) of them.
    n = MAX_ENUMERATE_ORDER + 1
    argv = ("enumerate", "words", "--order", str(n), "--genus", str(genus))
    code, out, err = invoke(capsys, *argv)
    words = out.splitlines()
    assert (code, err) == (0, "")
    assert len(words) == comb(n - genus + 1, genus)
    assert words == sorted(set(words))
    assert all(len(w) == n and w.count("L") == genus and "LL" not in w for w in words)
    assert invoke(capsys, *argv, "--json") == (0, json.dumps(words) + "\n", "")


def test_correlator_command(capsys):
    _, out, _ = invoke(capsys, "correlator", "--order", "1")
    assert out == "h^0: (|v|)\nh^1: (|o|)\n"


def test_genfun_command(capsys):
    _, out, _ = invoke(capsys, "genfun", "--max-degree", "2")
    lines = out.splitlines()
    assert "a1^1*a2^1: 1/2*LT + 1/2*TL" in lines
    assert "a1^0*a2^2: 0" in lines


def test_axioms_command(capsys):
    code, out, _ = invoke(capsys, "axioms", "--axiom", "counit", "--max-order", "3")
    assert code == 0
    assert out == "pass\n"



def test_axioms_command_prints_a_counterexample(capsys, monkeypatch):
    bad = (single_basis("(|o|)"), loopgraphs.LEAF)
    monkeypatch.setattr(hopfops, "check_axiom", lambda axiom, order: bad)
    argv = ("axioms", "--axiom", "assoc", "--max-order", "2")
    assert invoke(capsys, *argv) == (0, "counterexample: (|o|), |\n", "")
    assert invoke(capsys, *argv, "--json") == (0, '["(|o|)", "|"]\n', "")


@pytest.mark.parametrize("axiom", ["assoc", "coassoc", "compat", "counit", "antipode"])
@pytest.mark.parametrize("order", [MAX_AXIOM_ORDER + 1, 10**6])
def test_axioms_refuse_an_order_beyond_the_bound(capsys, monkeypatch, axiom, order):
    def built(*args):
        raise AssertionError(f"built the basis {args} before checking the bound")

    monkeypatch.setattr(hopfops, "graphs_up_to_total_order", built)
    message = f"error: total order {order} is beyond the axiom bound m <= {MAX_AXIOM_ORDER}\n"
    assert invoke(capsys, "axioms", "--axiom", axiom, "--max-order", str(order)) == (
        2, "", message)


def test_parse_check_kinds(capsys):
    code, out, _ = invoke(capsys, "parse-check", "1/2*(|v|) + -1*(|o|)")
    assert code == 0
    assert out == "1/2*(|v|) - (|o|)\n"
    code, out, _ = invoke(capsys, "parse-check", "LTL", "--kind", "word")
    assert out == "LTL\n"
    code, out, _ = invoke(capsys, "parse-check", "[2,1]", "--kind", "permutation")
    assert out == "[2,1]\n"


def test_json_outputs(capsys):
    _, out, _ = invoke(capsys, "airy", "--genus", "1", "--legs", "1", "--json")
    assert json.loads(out) == [[[-4], 1, 16]]
    _, out, _ = invoke(capsys, "product", "(|o|)", "(|o|)", "--json")
    assert json.loads(out) == [
        {"coeff": [1, 1], "basis": "(|o(|o|))"},
        {"coeff": [1, 1], "basis": "((|o|)o|)"},
    ]
    _, out, _ = invoke(capsys, "coproduct", "(|o|)", "--json")
    assert json.loads(out) == [
        {"coeff": [1, 1], "basis": ["|", "(|o|)"]},
        {"coeff": [1, 1], "basis": ["(|o|)", "|"]},
    ]
    _, out, _ = invoke(capsys, "enumerate", "trees", "--order", "2", "--json")
    assert json.loads(out) == ["(|v(|v|))", "((|v|)v|)"]
    _, out, _ = invoke(
        capsys, "cohomology", "--order", "2", "--genus", "1", "--json"
    )
    assert json.loads(out) == 1


# One small command line for each subcommand.
JSON_EXAMPLES = {
    "enumerate": ("enumerate", "words", "--order", "3", "--genus", "1"),
    "product": ("product", "(|o|)", "(|v|)"),
    "coproduct": ("coproduct", "(|o|)"),
    "antipode": ("antipode", "(|o|)"),
    "counit": ("counit", "2*| + (|v|)"),
    "perm-product": ("perm-product", "[1]", "[2,1]"),
    "perm-coproduct": ("perm-coproduct", "[2,1]"),
    "tree-of-perm": ("tree-of-perm", "[1,3,2]"),
    "face": ("face", "(|v(|v|))", "--index", "1"),
    "degeneracy": ("degeneracy", "(|v|)", "--index", "0"),
    "border": ("border", "(|v(|v|))"),
    "dh": ("dh", "(|v(|v|))"),
    "cohomology": ("cohomology", "--order", "2", "--genus", "1"),
    "psi": ("psi", "LTL"),
    "correlator": ("correlator", "--order", "3"),
    "genfun": ("genfun", "--max-degree", "2"),
    "airy": ("airy", "--genus", "0", "--legs", "3"),
    "axioms": ("axioms", "--axiom", "counit", "--max-order", "2"),
    "parse-check": ("parse-check", "LTL", "--kind", "word"),
}


def subcommands() -> list[str]:
    return list(next(a.choices for a in _build_parser()._actions if a.dest == "command"))


@pytest.mark.parametrize("command", subcommands())
def test_every_subcommand_writes_json(capsys, command):
    argv = JSON_EXAMPLES[command]
    code, out, err = invoke(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    if isinstance(got, str):
        # A tree, or "pass": the text output as a JSON string.
        assert out == json.dumps(invoke(capsys, *argv)[1].rstrip("\n")) + "\n"


@pytest.mark.parametrize("genus, legs", walk_pairs(8))
def test_airy_output_is_streamed_in_canonical_order(capsys, genus, legs):
    # The oracle expands the orbit table to every ordering of each key and
    # sorts the whole expansion, without the walk or its orbit codes.
    poly = expansion(airy.airy_correlator(genus, legs))
    argv = ("airy", "--genus", str(genus), "--legs", str(legs))
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert_same_text(out, airy.format_laurent(sorted(poly.coeffs.items())) + "\n")
    code, out, err = invoke(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert_same_text(out, json.dumps(laurent_json(poly)) + "\n")


# SHA-256 of the stdout of `lrq airy`, pinned from the writer that printed
# one monomial at a time, before the per-orbit text table.
AIRY_DIGESTS = {
    "0 12": "c147cf47416516fd513591ad4b8cf80232261ef2239d3b8409cf374c9c73875c",
    "0 12 --json": "7703166091ae3b949331f0b904fe0aed222d49a4c7dfabef8220e135c56df5ba",
    "3 7": "802b0733c58823294857bc35ccf1257e2a596114ba5e1a3f81db5450d79874f7",
    "3 7 --json": "4523a7f91db547c5d96c97cf997f9e6080ae9b9a2cdb9987b5642b3077b6b4b2",
}


@pytest.mark.parametrize("args", AIRY_DIGESTS)
def test_airy_output_digests(capsys, args):
    genus, legs, *flags = args.split()
    code, out, err = invoke(capsys, "airy", "--genus", genus, "--legs", legs, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == AIRY_DIGESTS[args]


# SHA-256 of the stdout of `lrq correlator`, pinned from the writer of the
# walk's keys before `full_correlator` printed through it.
CORRELATOR_DIGESTS = {
    "8": "c794d40cb0c1170a75de81a329ac0099b76e79699e766f1065a1a5cf9d24a38b",
    "8 --json": "5a2e118e2b5be661045efcffad086de76230e6832e52e80cba8c665c40f60e1f",
    "9": "19aad29049a0484b4ba7651f3bca52f8318c60cfd77584ab9d370e2289241521",
    "9 --json": "d286595ee57285c1bfa74eeaeca2e8a654e9ced9e9415c8d80ea21a0a09a7025",
}


# SHA-256 of the stdout of `lrq enumerate graphs --order 9 --genus g`, keyed
# by g and the flags.  Genus 4, the worst genus at the enumerate bound, was
# pinned from the writer of one graph at a time before the graphs were
# printed in blocks; genus 8, whose left graphs are almost all skipped, and
# the regular genus 3, whose looped roots filter their right graphs, before
# the blocks of the walk dropped their slot masks.
ENUMERATE_DIGESTS = {
    "4": "1f7b5dbc382056495d5810ac942b9e0f9c8dabf6b0c186bc966e1c4f7e702058",
    "4 --json": "06aca51967af462edfcfc5d5fe7923090bf1150e959a9657fd117282f8c5509d",
    "8": "af58f611eee250678bc2e1e2fbcd0184e11c00706fe755136d8390ff94a23d45",
    "8 --json": "effc7d4567c1989794bd9d63518e64159d15e4968106734a13741f6f466e90c3",
    "3 --regular": "f22e2e16558c668ed07ec5228e86dc8d11ef12675837bbb847be384af873a517",
    "3 --regular --json": "d9b9c8cf9db3d152132e34817f822ec05cc25a4e39666e62bfbcf2e87671a73e",
}


@pytest.mark.parametrize("args", ENUMERATE_DIGESTS)
def test_enumerate_output_digests(capsys, args):
    genus, *flags = args.split()
    code, out, err = invoke(capsys, "enumerate", "graphs", "--order", "9", "--genus", genus, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[args]


@pytest.mark.parametrize("args", CORRELATOR_DIGESTS)
def test_correlator_output_digests(capsys, args):
    order, *flags = args.split()
    code, out, err = invoke(capsys, "correlator", "--order", order, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CORRELATOR_DIGESTS[args]


# SHA-256 of the stdout of `lrq psi`, pinned from the writer of one graph at a
# time before a word's sum was printed from the walk's text tables.
PSI_DIGESTS = {
    "LTTLTTTLTLTT": "05338b94cebd1b6eb3d302bd244e520c3d2c7e6acb5c97e34aae5cc69ab083b6",
    "LTTLTTTLTLTT --json": "db20a4a61b0ac3125823ba20069664ab7d6bb0c17d42878bf948d3cb2dd1eab8",
    "TTTTTTTTTTTT": "d681a041bb8c8320fce9b19814aa285c90ea5d96b5a443bbe5cd97d0d430dcb3",
    "TTTTTTTTTTTT --json": "258011557ca42d28368d62c8741ffdf63854fbce458ccc1988b51dc35b9d4727",
}


@pytest.mark.parametrize("args", PSI_DIGESTS)
def test_psi_output_digests(capsys, args):
    code, out, err = invoke(capsys, "psi", *args.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PSI_DIGESTS[args]


def test_psi_prints_the_terms_of_psi_word(capsys):
    # Oracle: the sum that `psi_word` builds, written one term at a time.
    for n in range(9):
        for gg in range(n + 1):
            for w in subalgebras.enumerate_words(n, gg):
                terms = list(subalgebras.psi_word(w).terms())
                text = "".join(sum_text(terms))
                assert invoke(capsys, "psi", str(w)) == (0, f"{text}\n", ""), w
                items = ", ".join(_json_terms(terms))
                assert invoke(capsys, "psi", str(w), "--json") == (0, f"[{items}]\n", ""), w


def test_psi_interns_no_node(capsys):
    loopgraphs._nodes.cache_clear()
    before = len(loopgraphs._NODES)
    for flags in ((), ("--json",)):
        code, out, err = invoke(capsys, "psi", "TLTTLTTTL", *flags)
        # Each of the 4862 trees of order 9 with six of its slots unlooped.
        assert (code, err, out.count("v")) == (0, "", 6 * 4862)
    assert len(loopgraphs._NODES) == before
    assert loopgraphs._nodes.cache_info().currsize == 0


def test_graph_sums_are_streamed_in_canonical_order(capsys):
    # The oracle prints each sum through a LinComb, sorted by sort_key.
    for n in range(7):
        for w in subalgebras.enumerate_words(n, n // 3):
            x = subalgebras.psi_word(w)
            assert invoke(capsys, "psi", str(w)) == (0, f"{x}\n", "")
            assert invoke(capsys, "psi", str(w), "--json") == (0, json.dumps(sum_json(x)) + "\n", "")
        text = "\n".join(f"h^{gg}: {x}" for gg, x in correlator_sums(n).items())
        assert invoke(capsys, "correlator", "--order", str(n)) == (0, f"{text}\n", "")
        for regular in ((), ("--regular",)):
            for gg in range(n + 2):
                graphs = LinComb((loopgraphs.with_slots(t, m), 1)
                                 for m in loopgraphs.slot_masks(n, gg, bool(regular))
                                 for t in trees.enumerate_trees(n))
                want = [str(t) for t in support(graphs)]
                argv = ("enumerate", "graphs", "--order", str(n), "--genus", str(gg), *regular)
                assert invoke(capsys, *argv) == (0, "".join(f"{t}\n" for t in want), "")
                assert invoke(capsys, *argv, "--json") == (0, json.dumps(want) + "\n", "")


def test_trees_are_the_graphs_of_genus_zero(capsys):
    # Oracle: the tree nodes of `enumerate_trees`, printed one at a time; a
    # tree has genus 0, so every other genus lists nothing.
    for n in range(10):
        want = [str(t) for t in trees.enumerate_trees(n)]
        for gg in range(3):
            found = want if gg == 0 else []
            argv = ("enumerate", "trees", "--order", str(n), "--genus", str(gg))
            assert invoke(capsys, *argv) == (0, "".join(f"{t}\n" for t in found), "")
            assert invoke(capsys, *argv, "--json") == (0, json.dumps(found) + "\n", "")


def test_genfun_is_streamed_in_canonical_order(capsys):
    # The oracle prints each cell through a LinComb, sorted by sort_key.
    for d in range(13):
        cells = sorted(genfun_table(d).items(), key=lambda kv: (sum(kv[0]), kv[0][1]))
        text = "".join(f"a1^{i}*a2^{j}: {x}\n" for (i, j), x in cells)
        structure = [{"a1": i, "a2": j, "value": sum_json(x)} for (i, j), x in cells]
        assert invoke(capsys, "genfun", "--max-degree", str(d)) == (0, text, "")
        assert invoke(capsys, "genfun", "--max-degree", str(d), "--json") == (
            0, json.dumps(structure) + "\n", "")


GRAPH_POOL = [
    t for n in range(7) for g in range(n + 1) for t in enumerate_graphs(n, g)
]


@given(st.sampled_from(GRAPH_POOL))
def test_roundtrip_property_graphs_up_to_order_6(graph):
    assert single_basis(str(graph)) == graph


def test_missing_command_is_usage_error(capsys):
    code = run([])
    capsys.readouterr()
    assert code == 2


def test_help_text_renders(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("product", "cohomology", "airy", "parse-check"):
        assert name in out
    assert run(["airy", "--help"]) == 0
    capsys.readouterr()


def test_reused_parser_answers_as_a_fresh_one(capsys):
    calls = [
        ("airy", "--genus", "x", "--legs", "1"),
        ("airy", "--genus", "1", "--legs", "1"),
        ("--help",),
        ("--help",),
        ("cohomology", "--order", "2"),
        ("airy", "--help"),
        ("cohomology", "--order", "2", "--genus", "1", "--space", "toprec"),
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    reused = [invoke(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 0, 0]
    assert _build_parser.cache_info().misses == 1


def test_parser_is_not_built_at_import():
    probe = "import lrq.cli; print(lrq.cli._build_parser.cache_info().currsize)"
    src = str(Path(lrq.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "0\n"


def test_only_airy_loads_the_airy_engine():
    # The Airy engine shares no code with the graph engine, so only `lrq airy` loads it.
    lines = [list(JSON_EXAMPLES[c]) for c in subcommands() if c != "airy"]
    probe = f"""if True:
        import contextlib, io, sys
        from lrq.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [run(line) for line in {lines!r}]
        print(codes, "lrq.airy" in sys.modules)
        code = run(["airy", "--genus", "1", "--legs", "1"])
        print(code, "lrq.airy" in sys.modules)
    """
    src = str(Path(lrq.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == f"{[0] * len(lines)} False\n1/16 * p^-4\n0 True\n"
    assert done.stderr == ""


def test_parse_check_deeply_nested_graph(capsys):
    deep = "(" * 5000 + "|" + "v|)" * 5000
    code, out, err = invoke(capsys, "parse-check", deep)
    assert code == 0
    assert out == deep + "\n"
    assert err == ""
    looped = "(|o" * 5000 + "|" + ")" * 5000
    code, out, _ = invoke(capsys, "parse-check", looped)
    assert (code, out) == (0, looped + "\n")


def right_comb(n: int) -> str:
    return "(|v" * n + "|" + ")" * n


def left_comb(n: int) -> str:
    return "(" * n + "|" + "v|)" * n


def reversed_perm(n: int) -> str:
    return "[" + ",".join(map(str, range(n, 0, -1))) + "]"


@pytest.mark.parametrize("argv, computed", [
    (("product", right_comb(10), left_comb(10)), True),
    (("product", right_comb(10), left_comb(11)), False),
    (("product", right_comb(11), left_comb(10), "--algebra", "reg"), False),
    (("product", left_comb(11), right_comb(10), "--algebra", "classical"), False),
    # Each pair of input terms counts: two trees of order 9 times a tree of
    # order 10 are within the bound, three are not.
    (("product", f"{right_comb(9)} + {left_comb(9)}", left_comb(10)), True),
    (("product", f"{right_comb(9)} + {left_comb(9)} - ({right_comb(8)}v|)",
      left_comb(10)), False),
    (("perm-product", reversed_perm(10), reversed_perm(10)), True),
    (("perm-product", reversed_perm(10), reversed_perm(11)), False),
    (("perm-product", reversed_perm(11), reversed_perm(10)), False),
])
def test_products_beyond_the_bound_are_refused_before_computing(
        capsys, monkeypatch, argv, computed):
    # The right comb times the left comb forms every term the bound allows
    # (tests/test_hopfops.py), so orders 10 and 10 are the largest combs
    # within MAX_PRODUCT_TERMS and 10 and 11 the first beyond it.
    from lrq.cli import MAX_PRODUCT_TERMS

    calls = []

    def multiply(x, y):
        calls.append((x, y))
        return LinComb()

    monkeypatch.setattr(hopfops, "star_h_sum", multiply)
    monkeypatch.setattr(subalgebras, "star_h_sum", multiply)
    monkeypatch.setattr(permutations, "star_perm", multiply)
    if computed:
        assert invoke(capsys, *argv) == (0, "0\n", "")
        assert len(calls) == 1
    else:
        assert invoke(capsys, *argv) == (
            2, "", f"error: product is beyond the product bound of {MAX_PRODUCT_TERMS} terms\n")
        assert calls == []


def test_out_of_memory_is_a_domain_error(capsys, monkeypatch):
    _, full, _ = invoke(capsys, "psi", "TLTT")
    family_text = loopgraphs.family_text

    def exhausted(*args):
        chunks = family_text(*args)
        yield next(chunks)
        raise MemoryError

    monkeypatch.setattr(loopgraphs, "family_text", exhausted)
    assert loopgraphs._texts.cache_info().currsize
    code, out, err = invoke(capsys, "psi", "TLTT")
    assert (code, err) == (2, "error: out of memory\n")
    # What was streamed before the error stays written.
    assert out and full.startswith(out)
    # The walk's memos are freed, so the interpreter has room to exit.
    assert not any(memo.cache_info().currsize for memo in loopgraphs.WALK_MEMOS)


def test_out_of_memory_in_a_block_frees_the_tables(capsys, monkeypatch):
    _, full, _ = invoke(capsys, "correlator", "--order", "5")
    # The node tables, which no printer of the CLI reads, filled directly.
    enumerate_graphs(4, 1)
    walk = loopgraphs._walk

    def exhausted(*args):
        blocks = walk(*args)
        yield next(blocks)
        raise MemoryError

    monkeypatch.setattr(loopgraphs, "_walk", exhausted)
    tables = loopgraphs.WALK_MEMOS
    assert all(table.cache_info().currsize for table in tables)
    code, out, err = invoke(capsys, "correlator", "--order", "5")
    assert (code, err) == (2, "error: out of memory\n")
    # The first block was written before the error.
    assert out.startswith("h^0: (") and full.startswith(out)
    # The order lists, family masks, node and text tables are all freed.
    assert not any(table.cache_info().currsize for table in tables)


def test_too_deep_for_the_algebra_is_a_domain_error(capsys):
    # The coproduct still recurses through the graph, so this comb is too
    # deep for it.
    deep = "(" * 1200 + "|" + "v|)" * 1200
    code, out, err = invoke(capsys, "coproduct", deep)
    assert code == 2
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_simplicial_operators_on_a_comb_deeper_than_the_recursion_limit(capsys):
    # Face and degeneracy walk to their leaf and rebuild the path, so the
    # depth of the tree is no bound.  Every face of a left comb is the left
    # comb one smaller, so the alternating border of 1201 faces is that comb.
    def comb(n):
        return "(" * n + "|" + "v|)" * n

    deep = comb(1200)
    assert invoke(capsys, "face", deep, "--index", "0") == (0, comb(1199) + "\n", "")
    assert invoke(capsys, "face", deep, "--index", "1200") == (0, comb(1199) + "\n", "")
    assert invoke(capsys, "degeneracy", deep, "--index", "0") == (0, comb(1201) + "\n", "")
    assert invoke(capsys, "degeneracy", deep, "--index", "1200") == (
        0, "(" + comb(1199) + "v(|v|))\n", "")
    assert invoke(capsys, "border", deep) == (0, comb(1199) + "\n", "")


def test_dh_of_a_comb_deeper_than_the_recursion_limit(capsys):
    # The differential acts on the slot mask alone: one term per slot, the
    # term of slot i with sign (-1)^i, however deep the graph.
    deep = "(" * 1200 + "|" + "v|)" * 1200
    code, out, err = invoke(capsys, "dh", deep)
    assert (code, err) == (0, "")
    words = out.split()
    first = words[0].removeprefix("-")
    terms = [first] + words[2::2]
    signs = ["+" if first == words[0] else "-"] + words[1::2]
    assert len(terms) == 1200
    assert all(t.count("o") == 1 and t.replace("o", "v") == deep for t in terms)
    assert len({t.index("o") for t in terms}) == 1200
    # Slot i of the comb is its (i+1)-th "v" from the left.
    for t, sign in zip(terms, signs):
        slot = t[: t.index("o")].count("v")
        assert sign == ("+" if slot % 2 == 0 else "-"), slot


def sum_json(x) -> list:
    """Oracle: the JSON structure of a sum, built whole."""
    return [
        {"coeff": [c.numerator, c.denominator],
         "basis": [str(f) for f in b] if isinstance(b, tuple) else str(b)}
        for b, c in x.terms()
    ]


def value(text):
    return parse(text, "graph-sum")


@pytest.mark.parametrize(
    "argv, structure",
    [
        (("dh", "(|o|)"), lambda: sum_json(complexes.d_h_sum(value("(|o|)")))),
        (("coproduct", "((|o|)v|) - 1/3*(|v(|o|))"),
         lambda: sum_json(hopfops.delta_h_sum(value("((|o|)v|) - 1/3*(|v(|o|))")))),
        (("product", "1/2*(|o|)", "-3/4*(|v|) + |"),
         lambda: sum_json(hopfops.star_h_sum(value("1/2*(|o|)"), value("-3/4*(|v|) + |")))),
        (("perm-coproduct", "[3,1,2]"),
         lambda: sum_json(permutations.coproduct_perm(single_basis("[3,1,2]", "permutation")))),
        (("parse-check", "2/3*(|o|)@(|v|) - |"),
         lambda: sum_json(value("2/3*(|o|)@(|v|) - |"))),
        (("correlator", "--order", "5"),
         lambda: {str(gg): sum_json(x) for gg, x in correlator_sums(5).items()}),
        (("genfun", "--max-degree", "3"),
         lambda: [{"a1": i, "a2": j, "value": sum_json(x)}
                  for (i, j), x in sorted(genfun_table(3).items(),
                                          key=lambda kv: (sum(kv[0]), kv[0][1]))]),
    ],
)
def test_json_written_term_by_term_equals_json_dumps(capsys, argv, structure):
    code, out, err = invoke(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(structure()) + "\n"


def test_every_module_imports_only_the_standard_library():
    probe = (
        "import importlib, pkgutil, sys\n"
        "import lrq\n"
        "for m in pkgutil.iter_modules(lrq.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('lrq.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] not in\n"
        "             sys.stdlib_module_names | {'lrq', '__main__'}))\n"
        "print(len([n for n in sys.modules if n.startswith('lrq.')]))\n"
    )
    src = str(Path(lrq.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    outside, imported = done.stdout.splitlines()
    assert outside == "[]"
    # Every module file but __init__ (the package itself) and __main__.
    assert int(imported) == len(list(Path(src, "lrq").glob("*.py"))) - 2


# The shape of each subcommand's command line; "@" is a drawn argument, and
# a literal "@" after --json is one argument too many.
COMMAND_SHAPES = [
    "enumerate @ --order @ --genus @", "enumerate @ --order @ --regular", "product @ @",
    "product @ @ --algebra @", "coproduct @", "antipode @", "counit @", "perm-product @ @",
    "perm-coproduct @", "tree-of-perm @", "face @ --index @", "degeneracy @ --index @",
    "border @", "dh @ --space @", "cohomology --order @ --genus @ --space @", "psi @",
    "correlator --order @", "genfun --max-degree @", "airy --genus @ --legs @",
    "axioms --axiom @ --max-order @", "parse-check @ --kind @",
]
ARGUMENT = st.one_of(
    st.integers(-2, 3).map(str),
    st.text("|()vo@+-*/0123456789[],TL", max_size=8),
    st.sampled_from(["|", "(|v|)", "(|o|)", "((|v|)o|)", "TLT", "[2,1]", "trees", "graphs",
                     "words", "full", "reg", "toprec", "classical", "graph-sum", "word",
                     "permutation", "assoc", "coassoc", "compat", "counit", "antipode"]),
)
# Smaller bounds keep every drawn call fast while the bound checks still run.
SMALL_BOUNDS = [(airy, "MAX_NEG_EULER", 5), (complexes, "MAX_COHOMOLOGY_ORDER", 6),
                (hopfops, "MAX_AXIOM_ORDER", 4), (subalgebras, "MAX_PSI_LENGTH", 8),
                (subalgebras, "MAX_CORRELATOR_ORDER", 6), (subalgebras, "MAX_GENFUN_DEGREE", 8)]


@st.composite
def command_lines(draw):
    argv = [draw(ARGUMENT) if word == "@" else word
            for word in draw(st.sampled_from(COMMAND_SHAPES)).split()]
    return argv + draw(st.sampled_from([[], ["--json"], ["--json", "@"]]))


def answer(runner, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of runner(argv) under SMALL_BOUNDS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for module, name, value in SMALL_BOUNDS:
            stack.enter_context(mock.patch.object(module, name, value))
        stack.enter_context(mock.patch("lrq.cli.MAX_ENUMERATE_ORDER", 6))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = runner(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    code, out, err = answer(run, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # A refused line writes nothing to stdout.
    assert code == 0 or out == ""
    if code == 0 and "--json" in argv:
        json.loads(out)
    # The one-parse dispatch answers as the two-level parse.
    assert (code, out, err) == answer(run_two_level, argv)


# Lines at the edges of the one-parse dispatch: no subcommand, an unknown
# one, a missing operand, words left over, help and "--" in every place, an
# option abbreviated, a short option with its value attached, an "=" value,
# an option given twice and an operand that looks like an option.
DISPATCH_EDGES = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "x"], ["product"],
    ["product", "|", "|", "extra"], ["product", "|", "|", "-h"], ["product", "--", "|", "|"],
    ["--", "product", "|", "|"], ["product", "|", "|", "--alg", "reg"],
    ["counit", "|", "-hx"], ["face", "(|v|)", "--index=-1"],
    ["genfun", "--max-degree", "3", "--max-degree", "2"], ["parse-check", "-(|v|)"],
] + [[name, "--help"] for name in subcommands()]


@pytest.mark.parametrize("argv", DISPATCH_EDGES, ids=" ".join)
def test_one_parse_answers_as_the_two_level_parse(argv):
    assert answer(run, argv) == answer(run_two_level, argv)


SALAD = st.lists(st.one_of(
    st.sampled_from(subcommands()),
    st.sampled_from(["-h", "--json", "--", "--order", "--genus", "--max-degree", "--index",
                     "--space", "--kind", "--algebra", "--axiom", "--max-order", "--legs"]),
    ARGUMENT,
), max_size=7)


@settings(max_examples=300, deadline=None)
@given(SALAD)
def test_word_salads_answer_as_the_two_level_parse(argv):
    assert answer(run, argv) == answer(run_two_level, argv)


@pytest.mark.parametrize("argv, want", [
    *((argv, 0) for argv in JSON_EXAMPLES.values()), (("genfun", "--help"), 0),
    (("product", "|"), 2), (("product", "|", "|", "extra"), 2),
], ids=str)
def test_a_line_that_names_a_subcommand_skips_the_top_level_parse(capsys, argv, want):
    refuse = AssertionError("the top-level parser read the line")
    with mock.patch.object(_build_parser(), "parse_args", side_effect=refuse):
        code, _, _ = invoke(capsys, *argv)
    assert code == want


def test_leftover_words_are_the_top_level_error(capsys):
    code, out, err = invoke(capsys, "product", "|", "|", "extra", "--x")
    assert (code, out) == (2, "")
    assert err == (_build_parser().format_usage()
                   + "lrq: error: unrecognized arguments: extra --x\n")


JSON_GRAPHS = [g for n in range(3) for gg in range(n + 1) for g in enumerate_graphs(n, gg)]
# Shared coefficient objects, as a genfun cell passes one Fraction for all
# of its words, next to fresh equal ones.
SHARED = [Fraction(1), Fraction(-1, 3), Fraction(5, 2), 1, -2]
json_terms = st.lists(st.tuples(
    st.one_of(st.sampled_from(JSON_GRAPHS),
              st.tuples(st.sampled_from(JSON_GRAPHS), st.sampled_from(JSON_GRAPHS))),
    st.one_of(st.sampled_from(SHARED),
              st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))),
), max_size=8)


@given(json_terms)
def test_json_terms_format_each_term_by_its_coefficient(terms):
    out = "".join(_sum_chunks(argparse.Namespace(json=True), terms, ""))
    assert out == json.dumps(
        [{"coeff": [c.numerator, c.denominator],
          "basis": [str(f) for f in b] if isinstance(b, tuple) else str(b)}
         for b, c in terms])


# Lines refused before anything is written: one past each size bound, the
# comb and permutation pairs past MAX_PRODUCT_TERMS, a negative order, a
# negative axiom bound and an invalid word.
REFUSED_LINES = [
    (["psi", "T" * (MAX_PSI_LENGTH + 1)], 2),
    (["correlator", "--order", str(MAX_CORRELATOR_ORDER + 1)], 2),
    (["genfun", "--max-degree", str(MAX_GENFUN_DEGREE + 1)], 2),
    (["enumerate", "graphs", "--order", str(MAX_ENUMERATE_ORDER + 1),
      "--genus", str((MAX_ENUMERATE_ORDER + 1) // 2)], 2),
    (["enumerate", "trees", "--order", str(MAX_ENUMERATE_ORDER + 1)], 2),
    (["enumerate", "words", "--order", str(MAX_GENFUN_DEGREE + 1)], 2),
    (["product", "(|v" * 10 + "|" + ")" * 10, "(" * 11 + "|" + "v|)" * 11], 2),
    (["perm-product", "[10,9,8,7,6,5,4,3,2,1]", "[11,10,9,8,7,6,5,4,3,2,1]"], 2),
    (["cohomology", "--order", str(MAX_COHOMOLOGY_ORDER + 1), "--genus", "1"], 2),
    (["airy", "--genus", "0", "--legs", str(MAX_NEG_EULER + 3)], 2),
    (["axioms", "--axiom", "antipode", "--max-order", str(MAX_AXIOM_ORDER + 1)], 2),
    (["enumerate", "graphs", "--order", "-1"], 2),
    (["axioms", "--axiom", "assoc", "--max-order", "-1"], 2),
    (["psi", "LL"], 1),
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, want", REFUSED_LINES,
                         ids=[" ".join(argv)[:40] for argv, _ in REFUSED_LINES])
def test_a_refused_line_writes_nothing_to_stdout(capsys, argv, want, flags):
    code, out, err = invoke(capsys, *argv, *flags)
    assert (code, out) == (want, "")
    assert err


# 10^3000 - 1 and its square, written without converting an int of more
# than 4300 digits to a string in this process.
NINES = "9" * 3000
NINES_SQUARED = "9" * 2999 + "8" + "0" * 2999 + "1"


def test_integers_of_any_length_print(capsys):
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    left = right = f"{NINES}*(|v|)"
    code, out, err = invoke(capsys, "product", left, right)
    assert (code, err) == (0, "")
    assert out == f"{NINES_SQUARED}*(|v(|v|)) + {NINES_SQUARED}*((|v|)v|)\n"
    code, out, err = invoke(capsys, "product", left, right, "--json")
    assert (code, err) == (0, "")
    assert out == (f'[{{"coeff": [{NINES_SQUARED}, 1], "basis": "(|v(|v|))"}}, '
                   f'{{"coeff": [{NINES_SQUARED}, 1], "basis": "((|v|)v|)"}}]\n')
    ones = "1" * 5000
    assert invoke(capsys, "parse-check", f"{ones}*(|v|)") == (0, f"{ones}*(|v|)\n", "")
    code, out, err = invoke(capsys, "parse-check", "--kind", "permutation", f"[{ones}]")
    assert (code, out) == (1, "")
    assert err.startswith("syntax error at offset 5002: not a permutation word")
    # The cap on int-string conversion is lifted only while a command runs.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_pipe_ends_lrq_by_sigpipe():
    src = str(Path(lrq.__file__).resolve().parents[1])
    # The correlator of order 8 prints 2.8 MB, far more than a pipe holds.
    proc = subprocess.Popen([sys.executable, "-m", "lrq", "correlator", "--order", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(10) == b"h^0: (|v(|"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")
