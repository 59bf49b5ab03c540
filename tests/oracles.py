"""Helpers that only the tests use: the border homology of the trees, its
contracting homotopy, the symmetric groups, tensor products of sums, the
lone basis element of a parsed sum, and the generating function of the
words."""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

from lrq.complexes import border_tree, matrix_rank
from lrq.exprs import parse
from lrq.freemodule import LinComb
from lrq.loopgraphs import LEAF, LoopGraph
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
