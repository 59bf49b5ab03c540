"""Border operator on trees, the loop-raising differential with signs, and
exact cohomology dimensions for the full, regular, and word complexes.

All ranks are computed by fraction-free Gaussian elimination over exact
rationals, so every dimension reported here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import trees
from .freemodule import LinComb
from .hopfops import GraphSum, star_h_sum
from .loopgraphs import LoopGraph, contract, enumerate_graphs, is_regular, loop_slots
from .subalgebras import enumerate_words, project_regular, psi_word


def border_tree(t: LoopGraph) -> LinComb:
    """Alternating sum of faces of a single (genus-0) tree of order >= 1."""
    if t.is_leaf:
        raise ValueError("border undefined in order 0")
    out = []
    for i in range(t.order + 1):
        out.append((trees.face(i, t), Fraction(-1) ** i))
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
    return sum(1 for j in loop_slots(t) if j < i)


def signed_slot(i: int, t: LoopGraph) -> GraphSum:
    """The single-slot operator (-1)^{loops before i} * contract(i, .)."""
    c = contract(i, t)
    if c is None:
        return LinComb()
    return LinComb.basis(c, Fraction(-1) ** loops_before(i, t))


def d_h_graph(t: LoopGraph) -> GraphSum:
    """Differential of one graph: sum over slots i of (-1)^(i + loops before i)
    times the contraction at i."""
    out = []
    sign_loops = 0
    slots = loop_slots(t)
    for i in range(t.order):
        c = contract(i, t)
        if c is not None:
            out.append((c, Fraction(-1) ** (i + sign_loops)))
        if i in slots:
            sign_loops += 1
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


def matrix_rank(rows: list[list[Fraction]]) -> int:
    """Rank by fraction-free (integer) Gaussian elimination.

    Rows are scaled to integers first; the Bareiss pivoting scheme then keeps
    every intermediate value an exact integer.
    """
    m = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = 1
        for f in fracs:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        m.append([int(f * scale) for f in fracs])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def _coords(vectors: list[GraphSum], basis: list[LoopGraph]) -> list[list[Fraction]]:
    index = {b: i for i, b in enumerate(basis)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(basis)
        for t, c in v.items():
            row[index[t]] = c
        rows.append(row)
    return rows


def _span_dims(images: list[GraphSum], span: list[GraphSum], basis: list[LoopGraph]):
    # dim(image), dim(span), dim(image + span) over the ambient graph basis.
    rows_im = _coords(images, basis)
    rows_sp = _coords(span, basis)
    return (
        matrix_rank(rows_im),
        matrix_rank(rows_sp),
        matrix_rank(rows_im + rows_sp),
    )


def cohomology_dim(n: int, g: int, space: str) -> int:
    """Dimension of the degree-(n, g) cohomology of the chosen complex.

    space = "full": all graphs with the plain differential;
    space = "reg": regular graphs with the projected differential;
    space = "toprec": the span of the length-n words with g loops inside the
    regular graphs, closed up and divided exactly as the subspace definitions
    require (cocycles inside the span, coboundaries of the span one genus
    lower intersected with the span).
    """
    if space in ("full", "reg"):
        regular_only = space == "reg"
        source = enumerate_graphs(n, g, regular_only)
        target = enumerate_graphs(n, g + 1, regular_only)

        def diff(t: LoopGraph) -> GraphSum:
            img = d_h_graph(t)
            return project_regular(img) if regular_only else img

        rank_here = matrix_rank(_coords([diff(t) for t in source], target))
        dim_kernel = len(source) - rank_here
        if g == 0:
            dim_image = 0
        else:
            below = enumerate_graphs(n, g - 1, regular_only)
            dim_image = matrix_rank(_coords([diff(t) for t in below], source))
        return dim_kernel - dim_image

    if space == "toprec":
        ambient = enumerate_graphs(n, g, regular_only=True)
        span = [psi_word(w) for w in enumerate_words(n, g)]
        span_images = [project_regular(d_h_sum(v)) for v in span]
        target = enumerate_graphs(n, g + 1, regular_only=True)
        dim_span = matrix_rank(_coords(span, ambient))
        rank_d_on_span = matrix_rank(_coords(span_images, target))
        dim_cocycles = dim_span - rank_d_on_span
        if g == 0:
            dim_cobound = 0
        else:
            below = [psi_word(w) for w in enumerate_words(n, g - 1)]
            images = [project_regular(d_h_sum(v)) for v in below]
            dim_im, dim_sp, dim_sum = _span_dims(images, span, ambient)
            dim_cobound = dim_im + dim_sp - dim_sum
        return dim_cocycles - dim_cobound

    raise ValueError(f"unknown space {space!r}")


def border_homology_dim(n: int) -> int:
    """Dimension of the order-n homology of the tree complex (n >= 1)."""
    if n < 1:
        raise ValueError("homology considered in positive orders only")
    here = trees.enumerate_trees(n)
    below = trees.enumerate_trees(n - 1)
    above = trees.enumerate_trees(n + 1)
    rank_down = matrix_rank(_coords([border_tree(t) for t in here], below))
    rank_in = matrix_rank(_coords([border_tree(t) for t in above], here))
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
