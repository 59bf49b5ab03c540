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
to m and keeps s: d_h(s, m) is the sum of (s, m') over the terms m' of
d(m), with the same signs.  (`contract(i, .)`, the single-slot part, maps
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
disjoint supports), and by (a) project_regular(d_h(iota(m))) = iota(d(m)).
So the span of the words is a subcomplex, and iota is an isomorphism of
K_n^reg onto it.

In all three cases d maps the degree-(g-1) cochains into the degree-g ones,
so dim H = #masks(g) - rank d(g) - rank d(g-1) on K_n or K_n^reg, and
`full`/`reg` multiply this by Catalan(n).  Ranks are computed by sparse
exact elimination on rows {mask: sign}, so every dimension is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm

from . import trees
from .freemodule import LinComb
from .hopfops import GraphSum, star_h_sum
from .loopgraphs import LoopGraph, contract, is_regular, slot_masks, with_slots
from .subalgebras import project_regular

# Largest order `cohomology_dim` accepts.  Its slowest space there, full
# (14, 7), takes 2 to 3 s on a 2-core x86-64 VM (Python 3.11.7);
# full (15, 8) takes about 7 s, and each further order roughly doubles it.
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
    if x.is_zero():
        return LinComb()
    orders = {t.order for t, _ in x.items()}
    if len(orders) > 1:
        raise ValueError(f"border needs a homogeneous input, got orders {sorted(orders)}")
    if orders == {0}:
        raise ValueError("border undefined in order 0")
    return x.map_basis(border_tree)


@dataclass(frozen=True)
class Cochain:
    """A graph sum homogeneous in (order, genus)."""

    order: int
    genus: int
    value: GraphSum

    def __post_init__(self):
        for t, _ in self.value.items():
            if (t.order, t.genus) != (self.order, self.genus):
                raise ValueError(
                    f"graph {t} has bidegree ({t.order},{t.genus}), "
                    f"expected ({self.order},{self.genus})"
                )


def loops_before(i: int, t: LoopGraph) -> int:
    """Number of looped slots strictly below slot i (original leaf numbering)."""
    return (t.slots & ((1 << i) - 1)).bit_count()


def signed_slot(i: int, t: LoopGraph) -> GraphSum:
    """The single-slot operator (-1)^{loops before i} * contract(i, .)."""
    c = contract(i, t)
    if c is None:
        return LinComb()
    return LinComb.basis(c, (-1) ** loops_before(i, t))


def d_h_graph(t: LoopGraph) -> GraphSum:
    """Differential of one graph: the differential of K_n on its mask, with
    the shape kept; the term of slot i has sign (-1)^(i + loops before i)."""
    return LinComb((with_slots(t, m), c)
                   for m, c in d_mask(t.slots, t.order, False).items())


def d_h_sum(x: GraphSum) -> GraphSum:
    return x.map_basis(d_h_graph)


def d_h(x: Cochain) -> Cochain:
    """Quantum differential; raises the genus by one."""
    return Cochain(x.order, x.genus + 1, d_h_sum(x.value))


def d_h_reg(x: Cochain) -> Cochain:
    """Differential followed by the regular projection."""
    for t, _ in x.value.items():
        if not is_regular(t):
            raise ValueError(f"regular differential needs regular input: {t}")
    return Cochain(x.order, x.genus + 1, project_regular(d_h_sum(x.value)))


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


def d_mask(m: int, n: int, regular: bool) -> dict[int, int]:
    """The differential of K_n (or K_n^reg) on one mask, as {mask: sign}."""
    row = {}
    for i in range(n):
        if m >> i & 1:
            continue
        image = m | 1 << i
        if not (regular and image & (image >> 1)):
            row[image] = (-1) ** (i + (m & ((1 << i) - 1)).bit_count())
    return row


def cohomology_dim(n: int, g: int, space: str) -> int:
    """Dimension of the degree-(n, g) cohomology of the chosen complex.

    space = "full": all graphs with the plain differential;
    space = "reg": regular graphs with the projected differential;
    space = "toprec": the span of the length-n words with g loops inside the
    regular graphs.

    Computed on the slot-mask complex K_n (full) or K_n^reg (reg, toprec),
    as the module docstring derives: dim H = #masks(g) - rank d(g) -
    rank d(g-1), times Catalan(n) for full and reg.  Orders above
    MAX_COHOMOLOGY_ORDER are refused before anything is computed.
    """
    if space not in ("full", "reg", "toprec"):
        raise ValueError(f"unknown space {space!r}")
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")
    if n > MAX_COHOMOLOGY_ORDER:
        raise ValueError(
            f"order {n} is beyond the cohomology bound n <= {MAX_COHOMOLOGY_ORDER}"
        )
    regular = space != "full"

    def rank_d(masks: list[int]) -> int:
        return matrix_rank([d_mask(m, n, regular) for m in masks])

    here = slot_masks(n, g, regular)
    below = slot_masks(n, g - 1, regular) if g else []
    dim = len(here) - rank_d(here) - rank_d(below)
    return dim if space == "toprec" else comb(2 * n, n) // (n + 1) * dim


def border_homology_dim(n: int) -> int:
    """Dimension of the order-n homology of the tree complex (n >= 1)."""
    if n < 1:
        raise ValueError("homology considered in positive orders only")
    here = trees.enumerate_trees(n)
    rank_down = matrix_rank([border_tree(t) for t in here])
    rank_in = matrix_rank([border_tree(t) for t in trees.enumerate_trees(n + 1)])
    return len(here) - rank_down - rank_in


@dataclass(frozen=True)
class LeibnizReport:
    """Which sign on the second term makes the product rule hold, if any."""

    plus: bool
    minus: bool

    @property
    def passed(self) -> bool:
        return self.plus or self.minus

    def __str__(self) -> str:
        if self.plus and self.minus:
            return "pass (either sign)"
        if self.plus:
            return "pass with sign +1 on the second term"
        if self.minus:
            return "pass with sign -1 on the second term"
        return "counterexample (no sign works)"


def _homogeneous_bidegree(x: GraphSum):
    degs = {(t.order, t.genus) for t, _ in x.items()}
    if len(degs) > 1:
        raise ValueError(f"input is not homogeneous: bidegrees {sorted(degs)}")
    return next(iter(degs), None)


def leibniz_probe(x: GraphSum, y: GraphSum) -> LeibnizReport:
    """Test d(x*y) = d(x)*y +/- x*d(y) on homogeneous graph sums.

    No general product rule is asserted for this differential; the probe
    gathers evidence one instance at a time.
    """
    _homogeneous_bidegree(x)
    _homogeneous_bidegree(y)
    lhs = d_h_sum(star_h_sum(x, y))
    first = star_h_sum(d_h_sum(x), y)
    second = star_h_sum(x, d_h_sum(y))
    return LeibnizReport(plus=lhs == first + second, minus=lhs == first - second)
