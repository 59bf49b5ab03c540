"""Helpers that only the tests use: the border homology of the trees, its
contracting homotopy, the symmetric groups and the definition of their star
product, tensor products of sums, the lone basis element of a parsed sum,
the support of a sum, the canonical order with a nested key per tensor
factor, the generating function of the words, the slot masks bit by bit,
the regular slot-mask complex K_n^reg and its cohomology by elimination,
the graph families written one term at a time, the command line parsed in
two levels, and the antipode by Takeuchi's formula."""

import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from lrq import hopfops, loopgraphs
from lrq.cli import _build_parser, _json_terms
from lrq.complexes import border_tree, d_mask, matrix_rank
from lrq.exprs import ParseError, parse
from lrq.freemodule import LinComb, bilinear_extend, sort_key, sum_text
from lrq.loopgraphs import LEAF, LoopGraph, enumerate_graphs
from lrq.permutations import Permutation
from lrq.subalgebras import Word
from lrq.trees import enumerate_trees


def single_basis(text: str, kind: str = "graph-sum"):
    """The lone basis element of a parsed one-term sum with coefficient 1."""
    x = parse(text, kind)
    items = list(x.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError(f"expected a single basis element, got {x}")
    return items[0][0]


def support(x: LinComb) -> list:
    """The basis elements of x in canonical order."""
    return sorted((b for b, _ in x.items()), key=sort_key)


def nested_sort_key(basis):
    """`lrq.freemodule.sort_key` with each tensor factor keyed as an atom,
    `(1, factor.sort_key())`: a tensor is `(len, tuple of factor keys)`."""
    if isinstance(basis, tuple):
        return (len(basis), tuple(nested_sort_key(b) for b in basis))
    return (1, basis.sort_key())


def extra_degeneracy(t: LoopGraph) -> LoopGraph:
    """Graft a bare leaf on the left; a contracting homotopy for the border."""
    if t.genus:
        raise ValueError(f"expected an unmarked tree, got genus {t.genus}: {t}")
    return LoopGraph(LEAF, t)


def border_homology_dim(n: int) -> int:
    """Dimension of the order-n homology of the tree complex (n >= 1)."""
    if n < 1:
        raise ValueError("homology considered in positive orders only")
    here = enumerate_trees(n)
    rank_down = matrix_rank([border_tree(t) for t in here])
    rank_in = matrix_rank([border_tree(t) for t in enumerate_trees(n + 1)])
    return len(here) - rank_down - rank_in


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n in a deterministic order."""
    return [Permutation(w) for w in permutations(range(1, n + 1))]


def compose(rho: Permutation, sigma: Permutation) -> Permutation:
    """(rho . sigma)(x) = rho(sigma(x)); both factors must have equal size."""
    if len(rho) != len(sigma):
        raise ValueError("can only compose permutations of equal size")
    return Permutation(tuple(rho.word[s - 1] for s in sigma.word))


def shuffles(p: int, q: int) -> list[Permutation]:
    """All (p, q)-shuffles: increasing on the first p and the last q positions.

    A shuffle is determined by the set of values taken on the first block,
    so there are binomial(p+q, p) of them.
    """
    n = p + q
    out = []
    for chosen in combinations(range(1, n + 1), p):
        rest = tuple(x for x in range(1, n + 1) if x not in set(chosen))
        out.append(Permutation(chosen + rest))
    return out


def times(rho: Permutation, sigma: Permutation) -> Permutation:
    """Block product: rho acts on the first p letters, sigma on the last q."""
    p = len(rho)
    return Permutation(rho.word + tuple(x + p for x in sigma.word))


def star_perm_by_shuffles(rho: Permutation, sigma: Permutation) -> LinComb:
    """The star product by its definition: the sum over the
    (p, q)-shuffles alpha of alpha . (rho x sigma)."""
    base = times(rho, sigma)
    return LinComb(
        (compose(alpha, base), 1) for alpha in shuffles(len(rho), len(sigma))
    )


def tensor(*factors: LinComb) -> LinComb:
    """Tensor product of LinCombs over atomic bases, as a LinComb over tuples."""
    out = [((), 1)]
    for f in factors:
        out = [(key + (b,), c * c2) for key, c in out for b, c2 in f.items()]
    return LinComb(out)


def genfun_table(max_degree: int) -> dict:
    """The coefficient of a1^i * a2^j in exp(a1*T + a2*L) modulo L^2 = 0, for
    every i + j <= max_degree, as a LinComb: every string over {L, T} of
    length m = i + j with j letters L and no "LL", each with coefficient
    1/m!."""
    table = {}
    for m in range(max_degree + 1):
        words = [w for w in map("".join, product("LT", repeat=m)) if "LL" not in w]
        for j in range(m + 1):
            table[(m - j, j)] = LinComb((Word(w), Fraction(1, factorial(m)))
                                        for w in words if w.count("L") == j)
    return table


def slot_masks_by_bits(n: int, g: int, regular: bool) -> list[int]:
    """`lrq.loopgraphs.slot_masks` by its definition: each mask summed bit
    by bit, the i-th of g slots taken from n - g + 1 moved up by i in the
    regular case."""
    if regular:
        return [sum(1 << (b + i) for i, b in enumerate(bits))
                for bits in combinations(range(n - g + 1), g)]
    return [sum(1 << b for b in bits) for bits in combinations(range(n), g)]


def d_mask_regular(m: int, n: int) -> dict[int, int]:
    """The differential of K_n^reg on one mask: `d_mask`'s row with the
    images that have two adjacent bits dropped."""
    return {image: sign for image, sign in d_mask(m, n).items() if not image & image >> 1}


def rank_d_regular(n: int, g: int) -> int:
    """Rank of d(g) on K_n^reg by a fresh elimination, with no memo; 0 where
    there are no degree-g cochains."""
    if g < 0:
        return 0
    return matrix_rank([d_mask_regular(m, n) for m in slot_masks_by_bits(n, g, True)])


def regular_cohomology_dim(n: int, g: int) -> int:
    """dim H^g(K_n^reg): the number of regular masks of degree g minus the
    ranks of d(g) and d(g - 1), each eliminated afresh."""
    return len(slot_masks_by_bits(n, g, True)) - rank_d_regular(n, g) - rank_d_regular(n, g - 1)


def is_exact_regular(cochain: dict[int, int], n: int, g: int) -> bool:
    """Whether a degree-g cochain {mask: coefficient} of K_n^reg is d of a
    degree-(g - 1) one: adding it to the rows of d(g - 1) keeps their rank."""
    below = [d_mask_regular(m, n) for m in slot_masks_by_bits(n, g - 1, True)] if g else []
    return matrix_rank(below + [cochain]) == matrix_rank(below)


def family_by_terms(n: int, g: int, regular: bool) -> tuple[str, str, str]:
    """The graphs of order n and genus g written one term at a time, each
    interned graph printed by `str`: as the text of their sum, as the --json
    list of its terms, and one graph a line."""
    strings = [str(t) for t in enumerate_graphs(n, g, regular)]
    terms = [(s, 1) for s in strings]
    text = "".join(sum_text(terms))
    json_terms = "[" + ", ".join(_json_terms(terms)) + "]"
    lines = "".join(f"{s}\n" for s in strings)
    return text, json_terms, lines


def run_two_level(argv: list[str]) -> int:
    """`lrq.cli.run` with the whole line parsed by the top-level parser,
    which hands the rest of the line to the subcommand's parser."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
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
        for memo in loopgraphs.WALK_MEMOS:
            memo.cache_clear()
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def antipode_by_takeuchi(t: LoopGraph) -> LinComb:
    """The antipode of a basis graph by Takeuchi's formula (J. Math. Soc.
    Japan 23, 1971), which holds in any connected graded bialgebra:

        S(t) = sum over k >= 1 of (-1)^k t_1 * t_2 * ... * t_k,

    the inner sum running over the terms t_1 (x) ... (x) t_k of the
    (k-1)-fold iterated reduced coproduct of t, which drops every term with
    a leaf factor.  Each level splits the last factor of the level before;
    no antipode is used.  The product and coproduct are `hopfops.star_h`
    and `hopfops.delta_h` as bound at the call."""
    if t.is_leaf:
        return LinComb.basis(LEAF)
    star = bilinear_extend(hopfops.star_h)
    delta = hopfops.delta_h
    out = LinComb()
    level = LinComb.basis((t,))
    sign = -1
    while level:
        for word, c in level.items():
            product = LinComb.basis(word[0])
            for factor in word[1:]:
                product = star(product, LinComb.basis(factor))
            out = out + (sign * c) * product
        level = LinComb((word[:-1] + (a, b), c * d)
                        for word, c in level.items()
                        for (a, b), d in delta(word[-1]).items()
                        if not (a.is_leaf or b.is_leaf))
        sign = -sign
    return out
