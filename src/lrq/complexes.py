"""Border operator on trees, the loop-raising differential with signs, and
exact cohomology dimensions for the full, regular, and word complexes.

Cohomology is computed on slot masks, never on graphs.  A graph of order n
is a pair (s, m) of a planar binary tree s, its shape, and the n-bit mask m
of its looped slots (``LoopGraph.slots``); every pair occurs exactly once.
Let K_n be the complex whose degree-g cochains are the n-bit masks with g
set bits, with the differential

    d(m) = sum over i < n not in m of (-1)^(i + popcount(m & (2^i - 1))) (m | 2^i),

and K_n^reg the complex on the masks with no two adjacent set bits, whose
differential drops the masks with adjacent bits from d(m).  (The masks with
adjacent bits span a subcomplex of K_n, and K_n^reg is the quotient by it.)

(a) The full and regular complexes are Catalan(n) copies of K_n and
K_n^reg, by construction.  A graph is stored as its shape s and its mask m
(`with_slots(s, m)` is the graph (s, m)), and `d_h_graph` applies `d_mask`
to m and keeps s: its value on (s, m) is the sum of (s, m') over the terms
m' of d(m), with the same signs.  (`contract(i, .)`, the single-slot part, maps
(s, m) to (s, m | 2^i), or to zero when bit i is set.)  So for each shape
s, m -> (s, m) is an isomorphism of K_n onto the span of the graphs of
shape s, and the full complex is the direct sum of these Catalan(n)
blocks.  `project_regular` drops (s, m) exactly when m has two adjacent
bits, a condition on m alone, so the regular complex is the direct sum of
Catalan(n) copies of K_n^reg.

(b) The product concatenates masks.  The product of two graphs is defined
by a two-term recursion through the roots, looped or not: x * y is the sum
of the terms S of x * y.left joined with y.right under y's root, and of
x.left joined with the terms S of x.right * y under x's root, and the leaf
is the unit.  On trees this is the Loday-Ronco product.  Write tree(x) for
the shape of x and, for graphs x and y, M = x.slots | y.slots << x.order
and phi(s) = (s, M).  `star_h` computes x * y as phi(tree(x) * tree(y)),
which is the recursion's result, by induction along it.  If x is the leaf
both sides are y (M = y.slots), and likewise if y is the leaf.  Otherwise:
  - The first half joins each term S of x * y.left with y.right under y's
    root.  By induction S = (s, x.slots | y.left.slots << x.order) for a
    term s of the tree product, of order q = x.order + y.left.order.  The
    joined mask is S.slots | y.looped << q | y.right.slots << (q + 1),
    which is M, and the joined shape is the matching term of the tree
    recursion.
  - The second half joins x.left with each term S of x.right * y under x's
    root.  By induction S.slots = x.right.slots | y.slots << x.right.order,
    and with p = x.left.order the joined mask is
    x.left.slots | x.looped << p | S.slots << (p + 1), which is M again.
phi is injective, so it merges terms exactly where the tree sum does, and
the coefficients agree.  The same induction shows that every coefficient of
a product of two graphs is a positive integer and that there is at least
one term: each half is a relabelled product, and nothing cancels.

(c) The word complex is one copy of K_n^reg.  `psi_word` proves, from (b),
that psi_word(w) = iota(mask(w)), where iota(m) is the sum of (s, m) over
all trees s of order n and bit i of mask(w) is set when letter i of w is L;
w -> mask(w) is a bijection from the words of length n with g loops to the
regular n-bit masks with g bits.  iota is injective (distinct masks give
disjoint supports), and by (a) project_regular(d_h_sum(iota(m))) = iota(d(m)).
So the span of the words is a subcomplex, and iota is an isomorphism of
K_n^reg onto it.

On K_n, d maps the degree-(g-1) cochains into the degree-g ones, so
dim H = C(n, g) - rank d(g) - rank d(g-1), and `full` multiplies this by
Catalan(n).  Ranks are computed by sparse exact elimination on rows
{mask: sign}, so every dimension is exact.  K_n^reg needs no rank: (e)
gives its cohomology in closed form, and `reg` multiplies it by Catalan(n).

(d) On K_n, d(g) and d(n-1-g) have the same rank.  Write d(g) for the
matrix with entry D_g[m', m] = (-1)^(i + popcount(m & (2^i - 1))) when
m' = m | 2^i with bit i not in m, and 0 otherwise, and let c(m) be the
complement of m in n bits, so c(m') = c(m) minus bit i, and c takes the
degree-g masks onto the degree-(n-g) ones.  Bits below i are set in exactly
one of m and c(m), so popcount(c(m') & (2^i - 1)) = i - popcount(m & (2^i - 1)),
and the entry of d(n-1-g) from c(m') to c(m) is
    D_{n-1-g}[c(m), c(m')] = (-1)^(popcount(m & (2^i - 1))) = (-1)^i D_g[m', m].
With phi(m) = (-1)^(sum of the bit positions of m), phi(m') phi(m) = (-1)^i.
So, read through c, d(n-1-g) is P D_g^T Q for the diagonal +-1 matrices P
and Q of phi on the two degrees: it is the transpose of d(g) up to signs on
rows and columns, and the ranks agree.  (There is no such duality on
K_n^reg: the complement of a regular mask is not regular in general.)

(e) H^g(K_n^reg) has dimension 1 when n mod 3 != 1 and g = ceil(n/3)
(so also at n = g = 0), and 0 otherwise.  Let Ind(P_n) be the independence
complex of the path on the vertices 0, ..., n-1 (edges i ~ i+1): its faces
are the sets with no two neighbours, which are exactly the regular masks,
a face of g vertices being a (g-1)-simplex.  Its augmented simplicial
cochain complex, with the empty face in degree -1, has the coboundary
delta(m) = sum over the i not in m with m | 2^i regular of
(-1)^(popcount(m & (2^i - 1))) (m | 2^i).  The differential of K_n^reg has
the extra sign (-1)^i in each term, and with phi(m) as in (d),
phi(m) phi(m | 2^i) = (-1)^i; so m -> phi(m) m takes delta to d, and
H^g(K_n^reg) is the reduced cohomology H~^(g-1)(Ind(P_n)).  Kozlov
("Complexes of directed trees", JCTA 88, 1999) showed that Ind(P_n) is
homotopy equivalent to the sphere S^(ceil(n/3) - 1) when n mod 3 != 1 and
is contractible otherwise (Ind(P_0) is empty, the sphere S^(-1)); a sphere
S^(k-1) has reduced cohomology of dimension 1 in degree k-1 alone, and a
contractible complex has none.

So the nonzero bidegrees are (3k, k) and (3k+2, k+1), and the word product
(concatenation, zero when an L meets an L) fills them: with a = LT at
(2, 1) and b = TLT at (3, 1), b^k and a b^k are cocycles that are not
exact, so they span H(3k, k) and H(3k+2, k+1), while a^2 and ab - ba are
exact.  The tests pin this for every n <= 14 against an elimination of
K_n^reg, not against the closed form.

`rank_d` keeps each rank of K_n once: it reads d(g) under the key
min(g, n-1-g), answers 0 with no lookup where d(g) is zero (g < 0, or
g >= n, where it maps into the zero space), and otherwise looks the rank up
in a memo keyed by (n, g).  A sweep over (n, g) then eliminates each matrix
once: items g and g+1 share d(g), and d(g) serves d(n-1-g) too.
`cohomology_dim` reaches the memo only after the MAX_COHOMOLOGY_ORDER
check, and only for `full`, so it holds at most one int per (n, g) with
0 <= g < n <= MAX_COHOMOLOGY_ORDER.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, lcm

from . import trees
from .freemodule import LinComb
from .loopgraphs import LoopGraph, slot_masks, with_slots

# Largest order `cohomology_dim` accepts.  Only the full ranks cost anything:
# reg and toprec are closed forms.  Cold, on a 2-core x86-64 VM (Python
# 3.11.7), its slowest call there, full (14, 6), takes about 1.4 s, full
# (14, 7) about 0.7 s (both its ranks are d(6), by the duality (d)), and the
# whole table to n = 14, nearly all of it full, about 2.3 s; full (15, 7) and
# (15, 8) take 5.3 to 5.6 s.
MAX_COHOMOLOGY_ORDER = 14


def border_tree(t: LoopGraph) -> LinComb:
    """Alternating sum of faces of a single (genus-0) tree of order >= 1."""
    if t.is_leaf:
        raise ValueError("border undefined in order 0")
    out = []
    for i in range(t.order + 1):
        out.append((trees.face(i, t), (-1) ** i))
    return LinComb(out)


def border(x: LinComb) -> LinComb:
    """Border of a homogeneous tree sum; drops the order by one."""
    orders = {t.order for t, _ in x.items()}
    if len(orders) > 1:
        raise ValueError(f"border needs a homogeneous input, got orders {sorted(orders)}")
    return x.map_basis(border_tree)


def d_h_graph(t: LoopGraph) -> LinComb:
    """Differential of one graph: the differential of K_n on its mask, with
    the shape kept; the term of slot i has sign (-1)^(i + loops before i)."""
    return LinComb((with_slots(t, m), c)
                   for m, c in d_mask(t.slots, t.order).items())


def d_h_sum(x: LinComb) -> LinComb:
    return x.map_basis(d_h_graph)


def matrix_rank(rows: list) -> int:
    """Exact rank of a list of sparse rows.

    A row is a LinComb, or anything whose ``items()`` gives (column,
    coefficient) pairs with int or Fraction coefficients; columns may be any
    hashable value and zero coefficients are ignored.  Columns are ordered by
    first appearance.  Each row is scaled to integers and reduced at its
    first column against the pivot rows kept so far, by fraction-free integer
    updates divided by the gcd of the result, so entries stay small; what is
    left, if anything, becomes a new pivot row.  Rows whose supports share no
    column never mix, so a block-diagonal input is reduced block by block.
    """
    index: dict = {}
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        entries = [(index.setdefault(col, len(index)), c) for col, c in row.items() if c]
        scale = lcm(*(c.denominator for _, c in entries))
        work = {col: c.numerator * (scale // c.denominator) for col, c in entries}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = work
                break
            # work <- a * work - b * pivot, which clears the lead column.
            common = gcd(pivot[lead], work[lead])
            a, b = pivot[lead] // common, work[lead] // common
            work = {col: a * c for col, c in work.items()}
            for col, c in pivot.items():
                new = work.get(col, 0) - b * c
                if new:
                    work[col] = new
                else:
                    del work[col]
            content = gcd(*work.values())
            if content > 1:
                work = {col: c // content for col, c in work.items()}
    return len(pivots)


def d_mask(m: int, n: int) -> dict[int, int]:
    """The differential of K_n on one mask, as {mask: sign}: one term for
    each unset bit i, with sign (-1)^(i + set bits below i)."""
    return {m | 1 << i: (-1) ** (i + (m & ((1 << i) - 1)).bit_count())
            for i in range(n) if not m >> i & 1}


def cohomology_dim(n: int, g: int, space: str) -> int:
    """Dimension of the degree-(n, g) cohomology of the chosen complex.

    space = "full": all graphs with the plain differential;
    space = "reg": regular graphs with the projected differential;
    space = "toprec": the span of the length-n words with g loops inside the
    regular graphs.

    Computed on the slot-mask complexes, as the module docstring derives:
    full is Catalan(n) times dim H = C(n, g) - rank d(g) - rank d(g-1) on
    K_n; toprec is the closed form (e) for K_n^reg, 1 when n mod 3 != 1 and
    g = ceil(n/3) and 0 otherwise, and reg is Catalan(n) times toprec.
    Orders above MAX_COHOMOLOGY_ORDER are refused before anything is
    computed.
    """
    if space not in ("full", "reg", "toprec"):
        raise ValueError(f"unknown space {space!r}")
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")
    if n > MAX_COHOMOLOGY_ORDER:
        raise ValueError(
            f"order {n} is beyond the cohomology bound n <= {MAX_COHOMOLOGY_ORDER}"
        )
    if space == "full":
        dim = comb(n, g) - rank_d(n, g) - rank_d(n, g - 1)
    else:
        dim = int(n % 3 != 1 and g == -(-n // 3))
    return dim if space == "toprec" else comb(2 * n, n) // (n + 1) * dim


def rank_d(n: int, g: int) -> int:
    """Rank of d(g), from the degree-g cochains of K_n to the degree-(g+1)
    ones, through the memo of the module docstring: g is read as
    min(g, n-1-g) by the duality (d), and a d(g) that is zero (g < 0 or
    g >= n) is answered without a lookup."""
    g = min(g, n - 1 - g)
    return _rank_d(n, g) if 0 <= g < n else 0


@lru_cache(maxsize=None)
def _rank_d(n: int, g: int) -> int:
    return matrix_rank([d_mask(m, n) for m in slot_masks(n, g, False)])
