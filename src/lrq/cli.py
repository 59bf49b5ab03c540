"""Command-line front end: one subcommand per computation.

Exit codes: 0 success, 1 expression syntax error, 2 domain error (including
input nested too deeply for the recursive algebra, a request beyond a size
bound, and running out of memory).
Output is deterministic (canonical ordering everywhere); --json switches
every command to its JSON form.  Only `lrq airy` loads `lrq.airy`: the Airy
engine shares no code with the graph engine, so no other command compiles
or imports it.

`run` is the only writer to stdout.  Each subcommand returns its output as
an iterable of str chunks, a lazy one where it streams and a one-item list
where it prints a single line, and `run` writes them with one `writelines`.
Every check a subcommand makes comes before its first chunk, so a refused
line writes nothing to stdout.  Integers print at
any length: `run` lifts Python's cap on the digits of an int-string
conversion while the command runs.  `main` restores the default SIGPIPE
action, so a reader that closes the pipe early ends `lrq` as it ends any Unix
filter (shell status 141, nothing on stderr).

Each command line is parsed once.  When its first word names a subcommand,
`run` hands the rest of the line to that subcommand's parser alone
(`parse_known_args`), and any words it leaves over go to the top-level
parser's "unrecognized arguments" error.  Every other line (empty, `-h`,
`--help`, `--`, an unknown word) goes through the top-level `parse_args`.
This answers exactly as the top-level parser would, byte for byte and exit
code for exit code: in argparse the subparsers action has `nargs=PARSER`, so
behind a subcommand name it takes the whole rest of the line, options and
`--` included (the top level knows only `-h` and `--help`, which no word
matches ambiguously).  The action calls the subparser's `parse_known_args`
on those words, so every usage line, help text and error comes from the
subparser either way, and copies its namespace over.  The top level then
only reports what the subparser left over, with its own usage line.  The
one difference is the top level's `command` attribute, which nothing reads.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from math import comb

from . import complexes, hopfops, loopgraphs, permutations, subalgebras, trees
from .exprs import ParseError, parse
from .freemodule import LinComb, sum_text

# Bound on the `--order` of `enumerate trees` and `enumerate graphs`, by the
# rule that the worst call finishes within 30 s and 1 GiB.  The worst calls at
# order n list the graphs of genus n // 2 or the next, one block at a time: at
# 9 (612 612 graphs each) genus 4 takes 0.4 s at 54 MiB and genus 5 0.5 s at
# 60 MiB, text or --json, and at 10 genus 5 (4.2 million, written through
# `loopgraphs.family_text`) 2.8 s at 341 MiB (Python 3.11.7 on a 2-core Intel
# Xeon, single cold runs in a fast phase of the host; earlier runs in slower
# phases took up to 2.4 times as long).  Order 10 was 14 to 31 s when written
# one graph at a time; the bound waits for runs in a slow phase of the host.
# `enumerate words` lists one cell of `genfun` and takes its bound,
# `subalgebras.MAX_GENFUN_DEGREE`: at 27 letters its worst genus, 7 or 8
# (125 970 words), takes under 1 s at 44 MiB, text or --json.
MAX_ENUMERATE_ORDER = 9

# Bound on the terms that `product` and `perm-product` form, checked before
# anything is multiplied, by the same rule.  A product of trees of orders p
# and q is a sum over the (p, q)-shuffles (Loday-Ronco), so it has at most
# C(p + q, p) terms, and a masked product is the shape product.  `star_h`
# recurses on the subtrees along the right spine of its left factor and the
# left spine of its right factor, whose orders are distinct, so all its
# subproducts together hold at most the sum of C(a + b, a) over a <= p and
# b <= q, which is C(p + q + 2, p + 1) - 1 terms.  That sum over the pairs of
# input terms is bounded, not the output alone: (|v(|v|)) times the left
# comb of order 200 has 20 301 terms but takes 12 s at 371 MiB.
# `perm-product` (C(p + q, p) words of p + q letters) takes the same sum.
# At the bound the worst measured calls, looped combs of orders (66, 3),
# (3, 66), (8, 13) and (2, 178), take 6 to 9.3 s at up to 486 MiB, and the
# reversed permutations of 8 and 13 letters (203 490 terms) 3.1 to 3.4 s at
# 115 MiB; the combs of orders 10 and 11 (1 352 077) take 12 to 14 s at
# 655 MiB, and of order 11 (2 704 155) 24 s at 1.1 GiB (Python 3.11.7,
# 2-core x86-64 VM, single cold runs).
MAX_PRODUCT_TERMS = 1_000_000


def _sum_chunks(args, terms, end="\n"):
    """The sum of (basis, coeff) pairs, in the order given, one term at a
    time, then end: as text, what `str` of the sum gives, or with --json the
    JSON list of {"coeff": [p, q], "basis": b} objects, where b is a string
    or, for a tensor, a list of strings."""
    if not args.json:
        return chain(sum_text(terms), [end])
    items = (f'{", " if k else ""}{item}' for k, item in enumerate(_json_terms(terms)))
    return chain(["["], items, ["]" + end])


def _json_terms(terms):
    """The JSON text of each (basis, coeff) pair.  As in `sum_text`, a
    coefficient is formatted again only when it is not the same object as
    the term's before, so terms that share one coefficient format it once."""
    prev = None
    for b, c in terms:
        if c is not prev:
            prev = c
            head = f'{{"coeff": [{c.numerator}, {c.denominator}], "basis": '
        yield f'{head}{json.dumps([str(f) for f in b] if isinstance(b, tuple) else str(b))}}}'


# What `_json_terms` writes before a graph with coefficient 1.
_JSON_GRAPH = '{"coeff": [1, 1], "basis": "'

# The (head, tail, between) with which `loopgraphs.family_text` writes a sum
# of graphs with coefficient 1, indexed by --json: what `str` of the sum
# gives, or the JSON list of its terms as `_json_terms` writes them.  No head,
# tail or separator holds a "v" or a "%", so `cmd_psi` can write a word's
# marks over the "v"s of the chunks.
_GRAPH_SUM_FORMS = (("", "", " + "), (_JSON_GRAPH, '"}', ", "))


def _line(args, value) -> list[str]:
    """The one line that prints value, with --json its JSON text."""
    return [f"{json.dumps(value) if args.json else value}\n"]


def _parse_graph_sum(text: str) -> LinComb:
    x = parse(text, "graph-sum")
    if any(isinstance(t, tuple) for t, _ in x.items()):
        raise ValueError(f"expected a graph sum without tensors, got {x}")
    return x


def _single(text: str, kind: str):
    """The lone basis element of a one-term sum with coefficient 1."""
    x = parse(text, kind)
    items = list(x.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError(f"expected a single basis element, got {x}")
    b = items[0][0]
    if isinstance(b, tuple):
        noun = kind.removesuffix("-sum")
        raise ValueError(f"expected a single {noun}, not a tensor")
    return b


def _parse_tree_sum(text: str) -> LinComb:
    x = parse(text, "graph-sum")
    for t, _ in x.items():
        if isinstance(t, tuple) or t.genus != 0:
            raise ValueError(f"expected an unmarked tree sum, got {x}")
    return x


def cmd_enumerate(args):
    # Words are what one genfun cell prints, so they share its bound.
    bound = subalgebras.MAX_GENFUN_DEGREE if args.family == "words" else MAX_ENUMERATE_ORDER
    if args.order > bound:
        raise ValueError(f"order {args.order} is beyond the enumerate bound n <= {bound}")
    # One item a line, or with --json the JSON list of the strings; no item
    # has a character that JSON escapes.
    form = head, tail, between = ('"', '"', ", ") if args.json else ("", "\n", "")
    if args.family == "words":
        words = map(str, subalgebras.enumerate_words(args.order, args.genus))
        chunks = (f"{between if k else ''}{head}{w}{tail}" for k, w in enumerate(words))
    elif args.family == "trees":
        if args.genus < 0:
            raise ValueError("order and genus must be nonnegative")
        if args.order < 0:
            raise ValueError("order must be nonnegative")
        # A tree is a graph of genus 0: no other genus has one.
        chunks = loopgraphs.family_text(args.order, 0, False, *form) if args.genus == 0 else ()
    else:
        chunks = loopgraphs.family_text(args.order, args.genus, args.regular, *form)
    return chain(["["], chunks, ["]\n"]) if args.json else chunks


def _refuse_large_product(left, right) -> None:
    """Refuse a product before it is computed when the sum of
    C(p + q + 2, p + 1) - 1 over the pairs of input term sizes p in left and
    q in right exceeds MAX_PRODUCT_TERMS."""
    bound = sum(i * j * (comb(p + q + 2, p + 1) - 1) for p, i in Counter(left).items()
                for q, j in Counter(right).items())
    if bound > MAX_PRODUCT_TERMS:
        raise ValueError(f"product is beyond the product bound of {MAX_PRODUCT_TERMS} terms")


def cmd_product(args):
    # On trees the loop-graph product is the classical one.
    parse_sum = _parse_tree_sum if args.algebra == "classical" else _parse_graph_sum
    x = parse_sum(args.left)
    y = parse_sum(args.right)
    _refuse_large_product([t.order for t, _ in x.items()], [t.order for t, _ in y.items()])
    multiply = subalgebras.star_reg if args.algebra == "reg" else hopfops.star_h_sum
    return _sum_chunks(args, multiply(x, y).terms())


def cmd_coproduct(args):
    return _sum_chunks(args, hopfops.delta_h_sum(_parse_graph_sum(args.expr)).terms())


def cmd_antipode(args):
    return _sum_chunks(args, hopfops.antipode(_parse_graph_sum(args.expr)).terms())


def cmd_counit(args):
    c = hopfops.counit(_parse_graph_sum(args.expr))
    return _line(args, [c.numerator, c.denominator] if args.json else c)


def cmd_perm_product(args):
    left = _single(args.left, "permutation")
    right = _single(args.right, "permutation")
    _refuse_large_product([len(left)], [len(right)])
    return _sum_chunks(args, permutations.star_perm(left, right).terms())


def cmd_perm_coproduct(args):
    sigma = _single(args.perm, "permutation")
    return _sum_chunks(args, permutations.coproduct_perm(sigma).terms())


def cmd_tree_of_perm(args):
    return _line(args, str(trees.perm_to_tree(_single(args.perm, "permutation"))))


def cmd_face(args):
    return _line(args, str(trees.face(args.index, _single(args.tree, "graph-sum"))))


def cmd_degeneracy(args):
    return _line(args, str(trees.degeneracy(args.index, _single(args.tree, "graph-sum"))))


def cmd_border(args):
    return _sum_chunks(args, complexes.border(_parse_tree_sum(args.expr)).terms())


def cmd_dh(args):
    x = _parse_graph_sum(args.expr)
    result = complexes.d_h_sum(x)
    if args.space == "reg":
        result = subalgebras.project_regular(result)
    return _sum_chunks(args, result.terms())


def cmd_cohomology(args):
    return _line(args, complexes.cohomology_dim(args.order, args.genus, args.space))


def cmd_psi(args):
    w = _single(args.word, "word")
    n, mask = w.length, subalgebras.word_mask(w)
    # The trees of order n with the word's marks written in: the graphs of
    # one mask sort as their shapes (`lrq.loopgraphs`), and each tree of
    # order n prints n "v"s, its slots in order.  A chunk is dropped as soon
    # as it is rewritten, so no more than two copies of it are held.
    chunks = loopgraphs.family_text(n, 0, False, *_GRAPH_SUM_FORMS[args.json])
    marks = loopgraphs._marks(n, mask)
    yield "[" if args.json else ""
    for chunk in chunks:
        if mask:
            k = chunk.count("v") // n
            chunk = chunk.replace("v", "%s")
            chunk %= marks * k
        yield chunk
    yield "]\n" if args.json else "\n"


def cmd_correlator(args):
    n = args.order
    if not args.json:
        yield from subalgebras.correlator_text(n)
        yield "\n"
        return
    # Each genus is the JSON list of its graphs' terms, all with coefficient 1.
    for k, g in enumerate(subalgebras.correlator_genera(n)):
        yield f'{", " if k else "{"}"{g}": ['
        yield from loopgraphs.family_text(n, g, True, *_GRAPH_SUM_FORMS[True])
        yield "]"
    yield "}\n"


def cmd_genfun(args):
    for k, (i, j, c, words) in enumerate(subalgebras.generating_function(args.max_degree)):
        yield (f'{", " if k else "["}{{"a1": {i}, "a2": {j}, "value": ' if args.json
               else f"a1^{i}*a2^{j}: ")
        yield from _sum_chunks(args, zip(words, repeat(c)), "}" if args.json else "\n")
    yield "]\n" if args.json else ""


def cmd_airy(args):
    from . import airy  # an independent engine that only this command runs

    corr = airy.airy_correlator(args.genus, args.legs)
    return chain(corr.json_chunks() if args.json else corr.text_chunks(), ["\n"])


def cmd_axioms(args):
    bad = hopfops.check_axiom(args.axiom, args.max_order)
    if args.json or bad is None:
        return _line(args, "pass" if bad is None else [str(t) for t in bad])
    return ["counterexample: " + ", ".join(str(t) for t in bad) + "\n"]


def cmd_parse_check(args):
    return _sum_chunks(args, parse(args.expr, args.kind).terms())


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    top = argparse.ArgumentParser(
        prog="lrq",
        description="Exact computations in the loop-graph algebra of planar "
        "binary trees and the Airy topological recursion.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        return p

    p = add("enumerate", cmd_enumerate, help="list trees, graphs, or words")
    p.add_argument("family", choices=["trees", "graphs", "words"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--regular", action="store_true", help="regular graphs only")

    p = add("product", cmd_product, help="product of two graph sums")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--algebra", choices=["full", "reg", "classical"], default="full")

    p = add("coproduct", cmd_coproduct, help="coproduct of a graph sum")
    p.add_argument("expr")

    p = add("antipode", cmd_antipode, help="antipode of a graph sum")
    p.add_argument("expr")

    p = add("counit", cmd_counit, help="counit of a graph sum")
    p.add_argument("expr")

    p = add("perm-product", cmd_perm_product, help="star product of permutations")
    p.add_argument("left")
    p.add_argument("right")

    p = add("perm-coproduct", cmd_perm_coproduct, help="coproduct of a permutation")
    p.add_argument("perm")

    p = add("tree-of-perm", cmd_tree_of_perm, help="tree image of a permutation")
    p.add_argument("perm")

    p = add("face", cmd_face, help="erase a leaf of a tree")
    p.add_argument("tree")
    p.add_argument("--index", type=int, required=True)

    p = add("degeneracy", cmd_degeneracy, help="bifurcate a leaf of a tree")
    p.add_argument("tree")
    p.add_argument("--index", type=int, required=True)

    p = add("border", cmd_border, help="alternating face sum of a tree sum")
    p.add_argument("expr")

    p = add("dh", cmd_dh, help="loop-raising differential of a graph sum")
    p.add_argument("expr")
    p.add_argument("--space", choices=["full", "reg"], default="full")

    p = add("cohomology", cmd_cohomology, help="exact cohomology dimension")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--space", choices=["full", "reg", "toprec"], default="toprec")

    p = add("psi", cmd_psi, help="expand a word in T, L into graphs")
    p.add_argument("word")

    p = add("correlator", cmd_correlator, help="full loop expansion at an order")
    p.add_argument("--order", type=int, required=True)

    p = add("genfun", cmd_genfun, help="generating function coefficients")
    p.add_argument("--max-degree", type=int, required=True)

    p = add("airy", cmd_airy, help="Airy-curve correlator, exactly")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, required=True)

    p = add("axioms", cmd_axioms, help="exhaustively check a Hopf axiom")
    p.add_argument("--axiom", choices=hopfops.AXIOMS, required=True)
    p.add_argument("--max-order", type=int, required=True)

    p = add("parse-check", cmd_parse_check, help="parse and reprint canonically")
    p.add_argument("expr")
    p.add_argument("--kind", choices=["graph-sum", "word", "permutation"],
                   default="graph-sum")

    return top


def run(argv: list[str]) -> int:
    """Dispatch a command line, parsing it once (module docstring); returns
    the process exit code."""
    top = _build_parser()
    commands = next(a.choices for a in top._actions if a.dest == "command")
    sub = commands.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = top.parse_args(argv)
        else:
            args, extra = sub.parse_known_args(argv[1:])
            if extra:
                top.error("unrecognized arguments: " + " ".join(extra))
    except SystemExit as e:
        return int(e.code or 0)
    # Integers print at any length (module docstring); a Python without
    # the cap reads as one whose cap is already lifted (0).
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        sys.stdout.writelines(args.func(args))
        return 0
    except ParseError as e:
        print(e, file=sys.stderr)
        return 1
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        # The walk's memos (`loopgraphs.WALK_MEMOS`: its order lists, its
        # family masks and its node and text tables) hold much of what was
        # built; freed, they leave the interpreter room to print this and
        # exit.  The interning table `_NODES` stays, since node identity
        # depends on it.
        for memo in loopgraphs.WALK_MEMOS:
            memo.cache_clear()
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    # A reader that closes the pipe early ends lrq as it ends any Unix filter.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))
