"""Command-line front end: one subcommand per computation.

Exit codes: 0 success, 1 expression syntax error, 2 domain error (including
input nested too deeply for the recursive algebra).
Output is deterministic (canonical ordering everywhere); --json switches the
sum/polynomial commands to their JSON forms.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import airy, complexes, hopfops, loopgraphs, permutations, subalgebras, trees
from .exprs import ParseError, parse
from .freemodule import LinComb

# Bound on `enumerate --order`.  The worst call at order n lists the graphs of
# genus n // 2: at 9 that takes 7 to 8.5 s and 265 MiB, and at 10 it runs out of
# 1 GiB (Python 3.11.7 on a 2-core Intel Xeon).
MAX_ENUMERATE_ORDER = 9


def _write_json_sum(x: LinComb) -> None:
    """Write x to stdout as the JSON list of {"coeff": [p, q], "basis": b}
    objects in canonical order, where b is a string or, for a tensor, a
    list of strings.  The text is what `json.dumps` gives for that list, but
    it is written one term at a time and the list is never built."""
    write = sys.stdout.write
    write("[")
    for k, (b, c) in enumerate(x.terms()):
        basis = [str(f) for f in b] if isinstance(b, tuple) else str(b)
        write(f'{", " if k else ""}{{"coeff": [{c.numerator}, {c.denominator}], '
              f'"basis": {json.dumps(basis)}}}')
    write("]")


def _write_json_laurent(terms) -> None:
    """Write (exponent vector, coefficient) pairs to stdout as the JSON list
    of [exponent vector, numerator, denominator] triples, in the order given:
    what `json.dumps(airy.laurent_json(...))` gives, one term at a time."""
    write = sys.stdout.write
    write("[")
    for k, (exps, c) in enumerate(terms):
        write(f'{", " if k else ""}[[{", ".join(map(str, exps))}], '
              f'{c.numerator}, {c.denominator}]')
    write("]")


def _emit_sum(args, x: LinComb) -> int:
    if args.json:
        _write_json_sum(x)
        print()
    else:
        print(x)
    return 0


def _parse_graph_sum(text: str) -> LinComb:
    x = parse(text, "graph-sum").value
    if any(isinstance(t, tuple) for t, _ in x.items()):
        raise ValueError(f"expected a graph sum without tensors, got {x}")
    return x


def _single(text: str, kind: str):
    b = parse(text, kind).single_basis()
    if isinstance(b, tuple):
        noun = kind.removesuffix("-sum")
        raise ValueError(f"expected a single {noun}, not a tensor")
    return b


def _parse_tree_sum(text: str) -> LinComb:
    x = parse(text, "graph-sum").value
    for t, _ in x.items():
        if isinstance(t, tuple) or t.genus != 0:
            raise ValueError(f"expected an unmarked tree sum, got {x}")
    return x


def cmd_enumerate(args) -> int:
    if args.order > MAX_ENUMERATE_ORDER:
        raise ValueError(
            f"order {args.order} is beyond the enumerate bound n <= {MAX_ENUMERATE_ORDER}"
        )
    if args.family == "trees":
        items = [str(t) for t in trees.enumerate_trees(args.order)]
    elif args.family == "graphs":
        items = [
            str(t)
            for t in loopgraphs.enumerate_graphs(args.order, args.genus, args.regular)
        ]
    else:
        items = [str(w) for w in subalgebras.enumerate_words(args.order, args.genus)]
    if args.json:
        print(json.dumps(items))
    else:
        for s in items:
            print(s)
    return 0


def cmd_product(args) -> int:
    if args.algebra == "classical":
        # On trees the loop-graph product is the classical one.
        x = _parse_tree_sum(args.left)
        y = _parse_tree_sum(args.right)
        result = hopfops.star_h_sum(x, y)
    else:
        x = _parse_graph_sum(args.left)
        y = _parse_graph_sum(args.right)
        if args.algebra == "reg":
            result = subalgebras.star_reg(x, y)
        else:
            result = hopfops.star_h_sum(x, y)
    return _emit_sum(args, result)


def cmd_coproduct(args) -> int:
    return _emit_sum(args, hopfops.delta_h_sum(_parse_graph_sum(args.expr)))


def cmd_antipode(args) -> int:
    return _emit_sum(args, hopfops.antipode(_parse_graph_sum(args.expr)))


def cmd_counit(args) -> int:
    c = hopfops.counit(_parse_graph_sum(args.expr))
    if args.json:
        print(json.dumps([c.numerator, c.denominator]))
    else:
        print(c)
    return 0


def cmd_perm_product(args) -> int:
    left = _single(args.left, "permutation")
    right = _single(args.right, "permutation")
    return _emit_sum(args, permutations.star_perm(left, right))


def cmd_perm_coproduct(args) -> int:
    sigma = _single(args.perm, "permutation")
    return _emit_sum(args, permutations.coproduct_perm(sigma))


def cmd_tree_of_perm(args) -> int:
    sigma = _single(args.perm, "permutation")
    print(trees.perm_to_tree(sigma))
    return 0


def cmd_face(args) -> int:
    print(trees.face(args.index, _single(args.tree, "graph-sum")))
    return 0


def cmd_degeneracy(args) -> int:
    print(trees.degeneracy(args.index, _single(args.tree, "graph-sum")))
    return 0


def cmd_border(args) -> int:
    return _emit_sum(args, complexes.border(_parse_tree_sum(args.expr)))


def cmd_dh(args) -> int:
    x = _parse_graph_sum(args.expr)
    result = complexes.d_h_sum(x)
    if args.space == "reg":
        result = subalgebras.project_regular(result)
    return _emit_sum(args, result)


def cmd_cohomology(args) -> int:
    dim = complexes.cohomology_dim(args.order, args.genus, args.space)
    print(json.dumps(dim) if args.json else dim)
    return 0


def cmd_psi(args) -> int:
    w = _single(args.word, "word")
    return _emit_sum(args, subalgebras.psi_word(w))


def cmd_correlator(args) -> int:
    expansion = subalgebras.full_correlator(args.order)
    if args.json:
        sys.stdout.write("{")
        for k, g in enumerate(expansion.genera()):
            sys.stdout.write(f'{", " if k else ""}"{g}": ')
            _write_json_sum(expansion[g])
        print("}")
    else:
        print(expansion)
    return 0


def cmd_genfun(args) -> int:
    table = subalgebras.generating_function(args.max_degree)
    keys = sorted(table, key=lambda ij: (ij[0] + ij[1], ij[1]))
    if args.json:
        sys.stdout.write("[")
        for k, (i, j) in enumerate(keys):
            sys.stdout.write(f'{", " if k else ""}{{"a1": {i}, "a2": {j}, "value": ')
            _write_json_sum(table[(i, j)])
            sys.stdout.write("}")
        print("]")
    else:
        for i, j in keys:
            print(f"a1^{i}*a2^{j}: {table[(i, j)]}")
    return 0


def cmd_airy(args) -> int:
    terms = airy.airy_correlator(args.genus, args.legs).terms()
    if args.json:
        _write_json_laurent(terms)
    else:
        sys.stdout.writelines(airy.laurent_text(terms))
    print()
    return 0


def cmd_axioms(args) -> int:
    bad = hopfops.check_axiom(args.axiom, args.max_order)
    if bad is None:
        print("pass")
        return 0
    print("counterexample: " + ", ".join(str(t) for t in bad))
    return 0


def cmd_parse_check(args) -> int:
    expr = parse(args.expr, args.kind)
    if args.json:
        return _emit_sum(args, expr.value)
    print(expr)
    return 0


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
    p.add_argument(
        "--axiom",
        choices=["assoc", "coassoc", "compat", "counit", "antipode"],
        required=True,
    )
    p.add_argument("--max-order", type=int, required=True)

    p = add("parse-check", cmd_parse_check, help="parse and reprint canonically")
    p.add_argument("expr")
    p.add_argument("--kind", choices=["graph-sum", "word", "permutation"],
                   default="graph-sum")

    return top


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ParseError as e:
        print(e, file=sys.stderr)
        return 1
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
