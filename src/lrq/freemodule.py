"""Exact-rational formal linear combinations over a hashable basis.

Coefficients are always `fractions.Fraction`; no floating point is used
anywhere in this package.  Basis elements must be hashable and expose a
``sort_key()`` method returning something totally ordered; tensor factors
are plain tuples of basis elements and compare componentwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

Rational = Fraction

_ZERO = Fraction(0)


def sort_key(basis):
    """Canonical total order on basis elements.

    Tensor tuples sort after shorter tuples and compare factorwise; atoms
    count as 1-tuples, so sums mixing plain and tensor terms still order.
    """
    if isinstance(basis, tuple):
        return (len(basis), tuple(sort_key(b) for b in basis))
    return (1, basis.sort_key())


def basis_str(basis) -> str:
    """Printed form of a basis element; tensor factors are joined by '@'."""
    if isinstance(basis, tuple):
        return "@".join(str(b) for b in basis)
    return str(basis)


class LinComb:
    """A finite formal sum of basis elements with nonzero rational coefficients.

    Values are immutable.  Zero coefficients are never stored, so equality of
    normalized term maps is exact equality of the represented elements.
    Iteration (`terms()`, `__iter__`, `__str__`) is in canonical order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for basis, coeff in items:
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if not coeff:
                continue
            new = acc.get(basis, _ZERO) + coeff
            if new:
                acc[basis] = new
            else:
                del acc[basis]
        self._terms = acc

    @classmethod
    def basis(cls, b, coeff=1) -> "LinComb":
        return cls(((b, coeff),))

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def items(self):
        """Unordered (basis, coeff) view; use terms() for canonical order."""
        return self._terms.items()

    def terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def support(self) -> list:
        return sorted(self._terms, key=sort_key)

    def coeff(self, b) -> Fraction:
        return self._terms.get(b, _ZERO)

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
            new = acc.get(b, _ZERO) + c
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
        if not isinstance(c, Fraction):
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
        out = []
        for b, c in self._terms.items():
            v = f(b)
            if v is None:
                continue
            if isinstance(v, LinComb):
                out.extend((b2, c * c2) for b2, c2 in v._terms.items())
            else:
                out.append((v, c))
        return LinComb(out)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for b, c in self.terms():
            mag = abs(c)
            body = basis_str(b) if mag == 1 else f"{mag}*{basis_str(b)}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinComb<{self}>"


def as_lincomb(v) -> LinComb:
    """Coerce a basis element (or None, meaning zero) to a LinComb."""
    if v is None:
        return LinComb()
    if isinstance(v, LinComb):
        return v
    return LinComb.basis(v)


def tensor(*factors: LinComb) -> LinComb:
    """Tensor product of LinCombs over atomic bases, as a LinComb over tuples."""
    out = [((), Fraction(1))]
    for f in factors:
        out = [
            (key + (b,), c * c2)
            for key, c in out
            for b, c2 in f.items()
        ]
    return LinComb(out)


def bilinear_extend(f: Callable) -> Callable[[LinComb, LinComb], LinComb]:
    """Extend a basis-level product (B, B) -> LinComb|B to pairs of LinCombs."""

    def extended(x: LinComb, y: LinComb) -> LinComb:
        out = []
        for bx, cx in x.items():
            for by, cy in y.items():
                c = cx * cy
                out.extend((b, c * d) for b, d in as_lincomb(f(bx, by)).items())
        return LinComb(out)

    return extended
