"""Border operator on trees, the loop-raising differential with signs, and
exact cohomology dimensions for the full, regular, and word complexes.

All ranks are computed by sparse exact elimination: rows stay sparse maps
from basis graphs to integers, so every dimension reported here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import trees
from .freemodule import LinComb
from .hopfops import GraphSum, star_h_sum
from .loopgraphs import LoopGraph, contract, enumerate_graphs, is_regular
from .subalgebras import enumerate_words, project_regular, psi_word


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
    """Differential of one graph: sum over slots i of (-1)^(i + loops before i)
    times the contraction at i."""
    out = []
    for i in range(t.order):
        c = contract(i, t)
        if c is not None:
            out.append((c, (-1) ** (i + loops_before(i, t))))
    return LinComb(out)


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


def cohomology_dim(n: int, g: int, space: str) -> int:
    """Dimension of the degree-(n, g) cohomology of the chosen complex.

    space = "full": all graphs with the plain differential;
    space = "reg": regular graphs with the projected differential;
    space = "toprec": the span of the length-n words with g loops inside the
    regular graphs, closed up and divided exactly as the subspace definitions
    require (cocycles inside the span, coboundaries of the span one genus
    lower intersected with the span).

    With W the span of the degree-g cochains and V that of the degree-(g-1)
    cochains (empty when g = 0), every space is computed the same way:
    dim H = dim W - rank d(W) - dim(d(V) meet W), where
    dim(d(V) meet W) = rank d(V) + dim W - rank(d(V) + W).
    """
    if space not in ("full", "reg", "toprec"):
        raise ValueError(f"unknown space {space!r}")
    if n < 0 or g < 0:
        raise ValueError("order and genus must be nonnegative")

    def cochains(genus: int) -> list[GraphSum]:
        if space == "toprec":
            return [psi_word(w) for w in enumerate_words(n, genus)]
        return [LinComb.basis(t) for t in enumerate_graphs(n, genus, space == "reg")]

    def d(x: GraphSum) -> GraphSum:
        return d_h_sum(x) if space == "full" else project_regular(d_h_sum(x))

    here = cochains(g)
    image_below = [d(x) for x in cochains(g - 1)] if g else []
    dim_here = matrix_rank(here)
    cocycles = dim_here - matrix_rank([d(x) for x in here])
    coboundaries = matrix_rank(image_below) + dim_here - matrix_rank(image_below + here)
    return cocycles - coboundaries


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
