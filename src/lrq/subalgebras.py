"""The regular quotient, the word algebra of topological recursion, and the
representation of correlation functions by graph sums.

The irregular graphs span a two-sided ideal, and the regular quotient is
the quotient algebra by it.  By (b) of `lrq.complexes`, every term of a
product x * y of graphs carries the mask x.slots | y.slots << x.order, the
two masks concatenated.  Two adjacent looped slots of x, or of y (shifted
by x.order), stay adjacent there, so if x or y is irregular then so is
every term of x * y.  An irregular graph is therefore the zero class, and
the product of two classes is the projection of the product of any of
their representatives: `star_reg` is `project_regular` after the product,
on any input, and it is associative.

The solution space of the recursion is spanned by words in the two
generators T (the elementary tree) and L (the elementary one-loop graph)
subject to L^2 = 0: no two adjacent L letters.  A word of length n is read
as the n-bit slot mask with bit i set when letter i is L, so the valid words
are the regular masks, and a word expands to every tree of order n carrying
its mask (`psi_word` proves this).  The graph sums are therefore enumerated
by mask, never by multiplying, and they are read in canonical order from the
walks of `lrq.loopgraphs`.  The CLI prints both in blocks from the walk's
text tables (`family_text`): a correlator as the regular graphs of each
genus, and a word as the trees of its length with the word's marks written
in, since the graphs of one mask sort as their shapes.

The word algebra, and why the quotient is no Hopf algebra.  Let F be the
subalgebra of k[Y∞]_h generated by T = (|v|) and L = (|o|), where words may
have adjacent L letters, and let I = (L^2) be the two-sided ideal of F
generated by L^2.

  Statement.  T and L are primitive, and F is free on them at every order.
  On a word w, Δ_h(w) is the unshuffle coproduct, the sum over the subsets
  S of the positions of w of w_S ⊗ w_(S^c), and S(w) = (-1)^|w| times w
  reversed.  A^h_TopRec is F/I, and I is not a coideal, so A^h_TopRec does
  not inherit the Hopf algebra structure.

  Proof.  With 1 the leaf |, Δ_h(x) = x⊗1 + 1⊗x for x = T and x = L
  (`lrq coproduct "(|o|)"` prints `|@(|o|) + (|o|)@|`): T and L are
  primitive.  The product of the letters of a word w is every tree of
  order |w| carrying w's mask once: the proof in `psi_word` never uses
  regularity.  Distinct words have distinct lengths or masks, so their
  products have disjoint supports and are linearly independent, and F is
  free on T and L.  Δ_h is multiplicative, so Δ_h(w) is the product of the
  letters' x⊗1 + 1⊗x, which is the unshuffle sum; S is anti-multiplicative
  and S(x) = -x on a primitive x, so S(w) is the reversed word times
  (-1)^|w|.
  These two steps rest on the Hopf laws, which `check_axiom` checks
  exhaustively only up to total order `hopfops.MAX_AXIOM_ORDER`, 8.  I is
  spanned by the words with two adjacent L letters, whose products are
  irregular graphs, while a valid word's product is regular; so the
  projection to the regular quotient kills exactly I on F, and its image,
  A^h_TopRec, is F/I.  By the unshuffle, Δ_h(L^2) = L^2⊗1 + 2 L⊗L + 1⊗L^2.
  The words are a basis of F, so I⊗F + F⊗I is spanned by the tensors of
  two words one of which has adjacent L letters, and L⊗L, with L ∉ I, is
  not in it.  So Δ_h(L^2) is not in I⊗F + F⊗I, and I is not a coideal.
  On graphs: L * L projects to 0, while the projected Δ_h(L)Δ_h(L) is
  2 L⊗L.  That is the pair (L, L) which `delta_h_quotient_counterexample`
  finds by brute-force search, first at total order 4.

The tests pin ψ of the words, their unshuffle coproduct and their reversal
antipode for the 127 words of length at most 6, the word LL among them, and
so Δ_h(L^2) above.  As sum-level oracles they also pin S and Δ_h on T^8,
the sum of all 1430 trees of order 8, whose coproduct is the sum over k of
C(8, k) T^k ⊗ T^(8-k), and on the words LTTLTLT and TLLTTLT of total order
10, above the axiom bound.

A full correlator is every regular graph of its order and genus once; it
is not an expansion of the Airy correlator W^g_k of `lrq.airy`.  Expand the
recursion of W^g_k fully, down to W^0_2, and compare its number of terms
with the regular graphs of order 2g-2+k and genus g times (k-1)!, the
labellings of the legs other than the first.  The two agree for (g, k) =
(0,3), (0,4), (0,5), (1,1), (1,2) and (2,1), but not for (1,3): 32 terms
against 30, nor (2,2) 50 against 42, (3,1) 60 against 42, (1,4) 384 against
336 or (4,1) 1105 against 429.  So for g >= 1 `full_correlator` is not a
term-by-term expansion of W^g_k; the tests pin these counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .freemodule import LinComb
from .hopfops import (
    bounded_tuples,
    delta_h,
    delta_h_sum,
    first_counterexample,
    graphs_up_to_total_order,
    star_h,
    star_h_sum,
    tensor_star,
)
from .loopgraphs import _graphs, family_text, is_regular, slot_masks

# Largest word length `psi_word` and order `full_correlator` accept, by the
# rule that the worst CLI call finishes within 30 s and 1 GiB.  The CLI
# writes both a word's sum and a correlator one block of the walk's text
# tables at a time.  On a 2-core x86-64 VM (Python 3.11.7, three cold runs
# each, in a slow phase of the host), `lrq psi` of 14 letters (2 674 440
# graphs) takes 6.1 to 7.7 s at 330 MiB, or 6.1 to 7.2 s at 371 MiB as
# --json, when it has letters L, and 2.3 to 3.0 s at 241 to 282 MiB when it
# is all T; 13 letters take 1.6 to 2.0 s at 111 MiB (1.7 to 1.8 s at
# 128 MiB as --json).  `psi_word` interns every graph it returns, so at 14
# letters it took 15 s at 952 MiB, and at 13 letters 3.3 s at 307 MiB.  In
# a fast phase `lrq correlator --order 9` takes 0.3 s at 31 to 34 MiB, and
# order 10 1.6 s at 114 to 126 MiB; order 11 (through
# `loopgraphs.family_text`) took 18 s at 798 MiB, too close to the limit.
# Slower phases of the host have taken up to twice as long.
MAX_PSI_LENGTH = 14
MAX_CORRELATOR_ORDER = 10

# Largest degree `generating_function` accepts, by the same rule.  The CLI
# writes one cell at a time, and each degree costs about 1.5 times the one
# before, as the valid words grow like the Fibonacci numbers: `lrq genfun
# --max-degree 27` takes 5.4 to 8.3 s as text and 6.7 to 8.2 s as --json at
# 65 MiB, and 28 takes 7.4 to 11.3 s at 91 MiB (Python 3.11.7, 2-core x86-64
# VM, single cold runs in a noisy phase).  The bound was set when 28 took
# 20 s in a slow phase of the host; 28 has not been measured in one since.
MAX_GENFUN_DEGREE = 27


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

    def __str__(self) -> str:
        return self.letters if self.letters else "1"

    def sort_key(self) -> str:
        return self.letters


def project_regular(x: LinComb) -> LinComb:
    """Drop every irregular basis graph."""
    return x.map_basis(lambda t: t if is_regular(t) else None)


def star_reg(x: LinComb, y: LinComb) -> LinComb:
    """Product in the regular quotient: multiply, then project.  An irregular
    term of x or y is the zero class and adds nothing (module docstring)."""
    return project_regular(star_h_sum(x, y))


def psi_word(w: Word) -> LinComb:
    """Expand a word into its sum of regular graphs: every tree of order n
    = w.length carrying mask(w), each with coefficient 1, where bit i of
    mask(w) is set when letter i of w is L.

    The expansion is the product of the letters, T = (|v|) and L = (|o|),
    from the unit.  By (b) of `lrq.complexes` the product is the tree
    product with the masks concatenated: multiplying a product of n letters
    by the next one puts that letter's bit at slot n.  So the expansion is
    the sum of c_s (s, mask(w)), where the sum of c_s s is (|v|)^{*n} in
    the tree algebra.  Every c_s is 1, by induction on n: if (|v|)^{*n} is
    every tree of order n once, (|v|)^{*(n+1)} is the sum of t * (|v|) over
    them.  The recursion of `star_h` makes t * (|v|) the sum, over the
    vertices and the last leaf on the right spine of t, of t with the
    subtree u there replaced by (u v |): the new vertex becomes the parent
    of the last leaf, the vertex in slot n.  Removing the parent of the last
    leaf of a tree of order n+1, and putting its left subtree in its place,
    inverts this, so each tree of order n+1 arises from exactly one tree t
    and one position.  A word has no two adjacent L letters, so every term
    is regular.  The graphs are read from `loopgraphs._graphs`, once
    `word_mask` has refused a word longer than MAX_PSI_LENGTH.
    """
    return LinComb.sum_of(_graphs(w.length, word_mask(w)))


def word_mask(w: Word) -> int:
    """The slot mask of w, bit i set when letter i is L.  Words longer than
    MAX_PSI_LENGTH are refused here, before anything is built or written."""
    if w.length > MAX_PSI_LENGTH:
        raise ValueError(
            f"word of length {w.length} is beyond the psi bound "
            f"length <= {MAX_PSI_LENGTH}"
        )
    return sum(1 << i for i, x in enumerate(w.letters) if x == "L")


_LETTERS = str.maketrans("01", "TL")


def enumerate_words(n: int, g: int) -> list[Word]:
    """All valid words of length n with g loops, in lexicographic order:
    the regular n-bit masks with g bits, written as letters, which
    `slot_masks` yields in that order (bit i set is letter i L, and L < T).
    Each word is written in one step: the binary digits of m | 1 << n
    after the leading 1, reversed so that bit 0 comes first."""
    if n < 0 or g < 0:
        raise ValueError("length and loop count must be nonnegative")
    return [Word(bin(m | 1 << n)[:2:-1].translate(_LETTERS))
            for m in slot_masks(n, g, regular=True)]


def correlator_text(n: int):
    """The order-n expansion in the loop-counting parameter h, as text: for
    each genus g, "h^g: " and then the sum of every regular graph of order n
    and genus g, each with coefficient 1, with a newline between genera.  By
    `psi_word` the sum at h^g is that of all length-n words with g loops.

    The parameter is purely a grading key.  The sums are written in blocks
    from the walk's text tables (`family_text`), interning no graph and
    sorting nothing, since the walk is in canonical order (the lemma of
    `lrq.loopgraphs`).  `lrq correlator` writes these chunks.  Orders above
    MAX_CORRELATOR_ORDER are refused at the first chunk, before anything is
    built.
    """
    for g in correlator_genera(n):
        yield f"\nh^{g}: " if g else "h^0: "
        yield from family_text(n, g, True)


def full_correlator(n: int) -> str:
    """The text of the order-n expansion (`correlator_text`), without a
    final newline; orders above MAX_CORRELATOR_ORDER are refused here,
    before anything is built."""
    return "".join(correlator_text(n))


def correlator_genera(n: int) -> range:
    """The genera of the order-n expansion, 0 to ceil(n/2): a regular graph
    of order n has at most that many loops, and each genus up to it has
    one.  Orders above MAX_CORRELATOR_ORDER are refused here, before
    anything is built."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > MAX_CORRELATOR_ORDER:
        raise ValueError(
            f"order {n} is beyond the correlator bound n <= {MAX_CORRELATOR_ORDER}"
        )
    return range(-(-n // 2) + 1)


def delta_h_quotient_counterexample(max_total_order: int):
    """Search for a pair witnessing that the coproduct does not descend to
    the regular quotient.

    Compares (pi x pi) delta(pi(x * y)) against the componentwise product of
    the projected coproducts over pairs of regular basis graphs, walked as
    `check_axiom` walks them, and returns the first mismatch (or None).  The
    projected coproduct fails to be an algebra map, so a counterexample
    exists already at small total order: the module docstring proves that
    the pair (L, L), of total order 4, is one.  A negative bound, which would
    search nothing, is refused before anything is built.
    """
    if max_total_order < 0:
        raise ValueError("total order must be nonnegative")

    def proj_tensor(x: LinComb) -> LinComb:
        return LinComb(
            ((a, b), c)
            for (a, b), c in x.items()
            if is_regular(a) and is_regular(b)
        )

    def defect(x, y):
        return ((proj_tensor(delta_h_sum(project_regular(star_h(x, y))))
                 - proj_tensor(tensor_star(delta_h(x), delta_h(y))))._terms,)

    m = max_total_order
    basis = [t for t in graphs_up_to_total_order(m) if is_regular(t)]
    return first_counterexample(defect, bounded_tuples(basis, 2, m))


def generating_function(max_degree: int):
    """Coefficients of the truncated exponential of (a1*T + a2*L) in the word
    algebra modulo L^2 = 0.

    The coefficient of a1^i * a2^j is (1/(i+j)!) times the sum of the valid
    words with i T letters and j L letters.  Returns an iterator over the
    cells i + j <= max_degree in print order, by degree i + j and then by j,
    each as (i, j, 1/(i+j)!, its words in canonical order); a cell's words
    are built only when the iterator reaches it.  Degrees above
    MAX_GENFUN_DEGREE are refused here, before anything is built.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    if max_degree > MAX_GENFUN_DEGREE:
        raise ValueError(
            f"degree {max_degree} is beyond the genfun bound "
            f"max degree <= {MAX_GENFUN_DEGREE}"
        )
    return ((m - j, j, Fraction(1, factorial(m)), enumerate_words(m, j))
            for m in range(max_degree + 1) for j in range(m + 1))
