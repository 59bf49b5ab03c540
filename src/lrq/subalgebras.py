"""The regular quotient, the word algebra of topological recursion, and the
representation of correlation functions by graph sums.

Irregular graphs are projected to zero; what remains of the product is still
associative.  The solution space of the recursion is spanned by words in the
two generators T (the elementary tree) and L (the elementary one-loop graph)
subject to L^2 = 0: no two adjacent L letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .freemodule import LinComb
from .hopfops import (
    GraphSum,
    UNIT,
    _tensor_star,
    delta_h,
    delta_h_sum,
    graphs_up_to_total_order,
    star_h,
    star_h_sum,
)
from .loopgraphs import ONELOOP, TREE, is_regular

_GENERATOR = {"T": TREE, "L": ONELOOP}


@dataclass(frozen=True)
class Word:
    """A word over the alphabet {T, L} with no two adjacent L letters."""

    letters: str = ""

    def __post_init__(self):
        if set(self.letters) - {"T", "L"}:
            raise ValueError(f"word letters must be T or L: {self.letters!r}")
        if "LL" in self.letters:
            raise ValueError(f"invalid word (adjacent loops): {self.letters!r}")

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def loops(self) -> int:
        return self.letters.count("L")

    def __str__(self) -> str:
        return self.letters if self.letters else "1"

    def sort_key(self) -> str:
        return self.letters


def project_regular(x: GraphSum) -> GraphSum:
    """Drop every irregular basis graph."""
    return x.map_basis(lambda t: t if is_regular(t) else None)


def _require_regular(x: GraphSum, what: str) -> None:
    for t in x.support():
        if not is_regular(t):
            raise ValueError(f"{what} must be supported on regular graphs: {t}")


def star_reg(x: GraphSum, y: GraphSum) -> GraphSum:
    """Product in the regular quotient: multiply, then project."""
    _require_regular(x, "left factor")
    _require_regular(y, "right factor")
    return project_regular(star_h_sum(x, y))


def psi_word(w: Word) -> GraphSum:
    """Expand a word into its sum of regular graphs.

    Left-fold of the loop-graph product over the generator letters, then the
    regular projection; every summand has genus = #L and order = length.
    """
    acc = UNIT
    for letter in w.letters:
        acc = star_h_sum(acc, LinComb.basis(_GENERATOR[letter]))
    return project_regular(acc)


def enumerate_words(n: int, g: int) -> list[Word]:
    """All valid words of length n with g loops, in lexicographic order."""
    if n < 0 or g < 0:
        raise ValueError("length and loop count must be nonnegative")
    out = []
    for spots in combinations(range(n), g):
        if any(b - a == 1 for a, b in zip(spots, spots[1:])):
            continue
        letters = "".join("L" if i in spots else "T" for i in range(n))
        out.append(Word(letters))
    out.sort(key=Word.sort_key)
    return out


@dataclass(frozen=True)
class QuantumExpansion:
    """A formal expansion in the loop-counting parameter: genus -> graph sum.

    The parameter is purely a grading key; every graph sum stored under key g
    is homogeneous of genus g.
    """

    by_genus: dict[int, GraphSum]

    def genera(self) -> list[int]:
        return sorted(self.by_genus)

    def __getitem__(self, g: int) -> GraphSum:
        return self.by_genus[g]

    def __str__(self) -> str:
        return "\n".join(f"h^{g}: {self.by_genus[g]}" for g in self.genera())


def full_correlator(n: int) -> QuantumExpansion:
    """The order-n expansion: at key g, the sum of all length-n words with g loops."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    by_genus = {}
    for g in range(-(-n // 2) + 1):
        acc = LinComb.zero()
        for w in enumerate_words(n, g):
            acc = acc + psi_word(w)
        by_genus[g] = acc
    return QuantumExpansion(by_genus)


def delta_h_quotient_counterexample(max_total_order: int):
    """Search for a pair witnessing that the coproduct does not descend to
    the regular quotient.

    Compares (pi x pi) delta(pi(x * y)) against the componentwise product of
    the projected coproducts over regular basis pairs, and returns the first
    mismatch (or None).  The projected coproduct fails to be an algebra map,
    so a counterexample exists already at small total order.
    """

    def proj_tensor(x: LinComb) -> LinComb:
        return LinComb(
            ((a, b), c)
            for (a, b), c in x.items()
            if is_regular(a) and is_regular(b)
        )

    basis = [t for t in graphs_up_to_total_order(max_total_order) if is_regular(t)]
    for x in basis:
        for y in basis:
            if x.total_order + y.total_order > max_total_order:
                continue
            product = project_regular(star_h(x, y))
            lhs = proj_tensor(delta_h_sum(product))
            rhs = proj_tensor(_tensor_star(delta_h(x), delta_h(y)))
            if lhs != rhs:
                return x, y
    return None


def generating_function(max_degree: int) -> dict[tuple[int, int], LinComb]:
    """Coefficients of the truncated exponential of (a1*T + a2*L) in the word
    algebra modulo L^2 = 0.

    Returns the coefficient of a1^i * a2^j for all i + j <= max_degree as a
    rational combination of words: (1/(i+j)!) times the sum of the valid
    words with i T letters and j L letters.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    out: dict[tuple[int, int], LinComb] = {}
    for m in range(max_degree + 1):
        c = Fraction(1, factorial(m))
        for j in range(m + 1):
            i = m - j
            out[(i, j)] = LinComb((w, c) for w in enumerate_words(m, j))
    return out
