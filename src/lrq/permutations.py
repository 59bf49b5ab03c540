"""The algebra of permutations: star product and coproduct.

Permutations are written in one-line notation; the empty permutation is the
unit of the star product.  This is the Malvenuto-Reutenauer algebra, and
each operation writes the words it returns straight from its inputs.

The star product of rho in S_p and sigma in S_q is defined as the sum over
the (p, q)-shuffles alpha of alpha . (rho x sigma), where rho x sigma is the
block product and (alpha . beta)(x) = alpha(beta(x)); `tests/oracles.py`
keeps that definition as the oracle of `star_perm`.  A (p, q)-shuffle is
fixed by the set `chosen` of its values on the first p positions: it lists
`chosen` and then the complement `rest`, each in increasing order.  So
alpha . (rho x sigma) sends position i <= p to chosen[rho(i) - 1] and
position p + j to rest[sigma(j) - 1]; its word is rho's letters read through
`chosen`, followed by sigma's letters read through `rest`.

The tree algebra embeds here by class sums, not by images: with
ι(t) = Σ{σ : `lrq.trees.perm_to_tree`(σ) = t}, `star_perm` of ι(t) and ι(u)
is ι(star_h(t, u)), and `coproduct_perm` of ι(t) is (ι⊗ι)(delta_h(t)).  The
tests check this for all 81 pairs of trees of order at most 3 and all 197
trees of order at most 6; it is an oracle for `lrq.hopfops` that shares no
code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .freemodule import LinComb


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as the image word (one-line notation)."""

    word: tuple[int, ...] = ()

    def __post_init__(self):
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError(f"not a permutation word: {self.word!r}")

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self):
        return iter(self.word)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.word)) + "]"

    def sort_key(self):
        return (len(self.word), self.word)


def star_perm(rho: Permutation, sigma: Permutation) -> LinComb:
    """Star product: one term for each p-subset `chosen` of {1..p+q}, in
    `combinations` order, whose word is rho's letters read through `chosen`
    followed by sigma's letters read through the complement `rest`.

    That term is alpha . (rho x sigma) for the shuffle alpha that lists
    `chosen` and then `rest` (module docstring).  Distinct subsets put
    distinct value sets on rho's positions, so no two terms are equal and
    each has coefficient 1.
    """
    values = range(1, len(rho) + len(sigma) + 1)
    every = frozenset(values)

    def term(chosen: tuple[int, ...]) -> Permutation:
        rest = sorted(every.difference(chosen))
        return Permutation(tuple([chosen[r - 1] for r in rho.word]
                                 + [rest[s - 1] for s in sigma.word]))

    return LinComb.sum_of(map(term, combinations(values, len(rho))))


def split(sigma: Permutation, i: int) -> tuple[Permutation, Permutation]:
    """(head, tail): the subword of sigma's letters <= i and the subword of
    its letters > i, standardized.  O(n).

    For exactly one (i, n-i)-shuffle w, sigma . w is the block product
    head x tail: w lists the positions holding the letters <= i, then the
    other positions, each in increasing order.
    """
    n = len(sigma)
    if not 0 <= i <= n:
        raise IndexError(f"split index {i} out of range 0..{n}")
    word = sigma.word
    return (Permutation(tuple([x for x in word if x <= i])),
            Permutation(tuple([x - i for x in word if x > i])))


def coproduct_perm(sigma: Permutation) -> LinComb:
    """Deconcatenation-style coproduct: the sum of the n+1 splits
    head (x) tail, distinct because their heads have distinct lengths."""
    return LinComb.sum_of(split(sigma, i) for i in range(len(sigma) + 1))
