"""The algebra of permutations: shuffles, block product, star product, coproduct.

Permutations are written in one-line notation; the empty permutation is the
unit of the star product.  Composition is (rho . sigma)(x) = rho(sigma(x)),
a convention pinned by the order-3 product of three generators.

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

    @property
    def n(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self):
        return iter(self.word)

    def __call__(self, x: int) -> int:
        return self.word[x - 1]

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.word) + "]"

    def sort_key(self):
        return (len(self.word), self.word)


IDENTITY = Permutation()


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


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


def star_perm(rho: Permutation, sigma: Permutation) -> LinComb:
    """Star product: the sum of all shuffles composed with the block product."""
    base = times(rho, sigma)
    return LinComb(
        (compose(alpha, base), 1) for alpha in shuffles(len(rho), len(sigma))
    )


def split(sigma: Permutation, i: int) -> tuple[Permutation, Permutation, Permutation]:
    """The unique (sigma_i, sigma'_{n-i}, w) with sigma = (sigma_i x sigma') . w^{-1}.

    The (i, n-i)-shuffle w lists the positions holding the values <= i, then
    the other positions, each group in increasing order; sigma . w is then
    the block permutation of the two subwords, standardized.  O(n).
    """
    n = len(sigma)
    if not 0 <= i <= n:
        raise IndexError(f"split index {i} out of range 0..{n}")
    word = sigma.word
    low = tuple(p for p, x in enumerate(word, start=1) if x <= i)
    high = tuple(p for p, x in enumerate(word, start=1) if x > i)
    head = tuple(x for x in word if x <= i)
    tail = tuple(x - i for x in word if x > i)
    return Permutation(head), Permutation(tail), Permutation(low + high)


def coproduct_perm(sigma: Permutation) -> LinComb:
    """Deconcatenation-style coproduct: one tensor term per split index."""
    out = []
    for i in range(len(sigma) + 1):
        left, right, _ = split(sigma, i)
        out.append(((left, right), 1))
    return LinComb(out)


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n in a deterministic order."""
    from itertools import permutations as _perms

    return [Permutation(w) for w in _perms(range(1, n + 1))]
