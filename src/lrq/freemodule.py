"""Exact formal linear combinations over a hashable basis.

Coefficients stay as given when they are `int` or `fractions.Fraction`;
any other number is converted to `Fraction` exactly, and no floating point
is used anywhere in this package.  Basis elements must be hashable and
expose a ``sort_key()`` method returning something totally ordered; tensor
factors are plain tuples of basis elements and compare componentwise.

Sums are accumulated in place.  `LinComb(terms)` converts each outside
coefficient to an exact number before it adds it, so floats are never
summed as floats.  Sums of many products (`map_basis`, `bilinear_extend`,
and the antipode, the tensor product and the Hopf laws in `lrq.hopfops`)
loop over the terms of each factor and add each product term straight into
one dict, through its `get` bound once.  Those loops, and the coproduct's,
read a sum's term dict `_terms` directly, not through `items()`, to save a
call per sum in the innermost loops.  Their coefficients come from
LinCombs and so are exact already; the dict becomes a LinComb once,
dropping its zeros (`LinComb.of_dict`).  A Hopf law's defect, a side
minus what it must equal, stays a dict and is only searched for a nonzero
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator


def sort_key(basis):
    """Canonical total order on basis elements.

    Tensor tuples sort after shorter tuples and compare factorwise by the
    factors' own keys; atoms count as 1-tuples, so sums mixing plain and
    tensor terms still order.
    """
    if isinstance(basis, tuple):
        return (len(basis), tuple(b.sort_key() for b in basis))
    return (1, basis.sort_key())


def basis_str(basis) -> str:
    """Printed form of a basis element; tensor factors are joined by '@'."""
    if isinstance(basis, tuple):
        return "@".join(str(b) for b in basis)
    return str(basis)


def sum_text(terms: Iterable) -> Iterator[str]:
    """The printed form of the sum of (basis, coeff) pairs, in the order
    given, one term at a time: "0" for no terms, else the first term, then
    " + " or " - " before each later one.  A coefficient's sign and scale
    are formatted again only when a term's coefficient is not the same
    object as the term's before, so a run of terms that share one
    coefficient formats it once."""
    first = True
    prev = None
    for b, c in terms:
        if c is not prev:
            prev = c
            mag = abs(c)
            scale = "" if mag == 1 else f"{mag}*"
            lead, sep = ("", " + ") if c > 0 else ("-", " - ")
        yield (lead if first else sep) + scale + basis_str(b)
        first = False
    if first:
        yield "0"


class LinComb:
    """A finite formal sum of basis elements with nonzero exact coefficients.

    Values are immutable.  Zero coefficients are never stored, so equality of
    normalized term maps is exact equality of the represented elements.
    Iteration (`terms()`, `__iter__`, `__str__`) is in canonical order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | Iterable = ()):
        acc: dict = {}
        cancelled = False
        items = terms.items() if isinstance(terms, dict) else terms
        for basis, coeff in items:
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            if not coeff:
                continue
            new = acc.get(basis, 0) + coeff
            if new:
                acc[basis] = new
            else:
                del acc[basis]
                cancelled = True
        # A dict keeps the room of the keys it lost; a copy is sized to the
        # terms that are left.
        self._terms = dict(acc) if cancelled else acc

    @classmethod
    def basis(cls, b, coeff=1) -> "LinComb":
        return cls(((b, coeff),))

    @classmethod
    def of_dict(cls, acc: dict) -> "LinComb":
        """The sum held by a dict of exact coefficients, some maybe zero."""
        out = cls.__new__(cls)
        out._terms = {b: c for b, c in acc.items() if c}
        return out

    @classmethod
    def sum_of(cls, distinct) -> "LinComb":
        """The sum of distinct basis elements, each with coefficient 1."""
        out = cls.__new__(cls)
        out._terms = dict.fromkeys(distinct, 1)
        return out

    def items(self):
        """Unordered (basis, coeff) view; use terms() for canonical order."""
        return self._terms.items()

    def terms(self) -> list:
        """The (basis, coeff) pairs in canonical order.  With no tensor
        present `sort_key(b)` is `(1, b.sort_key())`, so the basis's own key
        orders alike at one call per term; a tensor is a tuple, which has no
        `sort_key`, and a sum holding one sorts by `sort_key`."""
        items = self._terms.items()
        try:
            return sorted(items, key=lambda kv: kv[0].sort_key())
        except AttributeError:
            return sorted(items, key=lambda kv: sort_key(kv[0]))

    def coeff(self, b) -> int | Fraction:
        return self._terms.get(b, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for b, c in other._terms.items():
            new = acc.get(b, 0) + c
            if new:
                acc[b] = new
            else:
                del acc[b]
        out = LinComb.__new__(LinComb)
        out._terms = acc
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def scale(self, c) -> "LinComb":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return LinComb()
        out = LinComb.__new__(LinComb)
        out._terms = {b: c * v for b, v in self._terms.items()}
        return out

    def __rmul__(self, c) -> "LinComb":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, c) -> "LinComb":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def map_basis(self, f: Callable) -> "LinComb":
        """Linear extension of f; f may return a basis element, a LinComb,
        or None (meaning zero)."""
        acc: dict = {}
        get = acc.get
        for b, c in self._terms.items():
            v = f(b)
            if v is None:
                continue
            if isinstance(v, LinComb):
                for b2, c2 in v._terms.items():
                    acc[b2] = get(b2, 0) + c * c2
            else:
                acc[v] = get(v, 0) + c
        return LinComb.of_dict(acc)

    def __str__(self) -> str:
        return "".join(sum_text(self.terms()))

    def __repr__(self) -> str:
        return f"LinComb<{self}>"


def bilinear_extend(f: Callable) -> Callable[[LinComb, LinComb], LinComb]:
    """Extend a basis-level product (B, B) -> LinComb to pairs of LinCombs,
    adding cx * cy * f(bx, by) into one dict over the terms (bx, cx) of x
    and (by, cy) of y.  The coefficients must be exact (int or Fraction)."""

    def extended(x: LinComb, y: LinComb) -> LinComb:
        acc: dict = {}
        get = acc.get
        ys = y._terms.items()
        for bx, cx in x._terms.items():
            for by, cy in ys:
                k = cx * cy
                for b, d in f(bx, by)._terms.items():
                    acc[b] = get(b, 0) + k * d
        return LinComb.of_dict(acc)

    return extended
