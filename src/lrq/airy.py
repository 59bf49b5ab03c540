"""Exact symbolic topological recursion on the Airy curve y^2 = x.

With the parametrization x(z) = z^2, y(z) = z the curve has a single branch
point at z = 0, and every residue in the recursion is taken there by series
expansion in the region |q| < |p_i|.  Correlator coefficients are Laurent
polynomials over exact rationals; the differential factors dp_i are implicit,
and the sheet involution qbar = -q contributes an explicit -1 per conjugated
differential leg.

Every coefficient of W^g_k is dyadic: U^g_k = 4^(3g-2+k) W^g_k has integer
coefficients (the kernel's only divisor is its 1/4, and the two sides of a
splitting term carry powers of 4 that add up to the whole).  The recursion
therefore runs on these integer numerators, with four times the kernel, and
divides by 4^(3g-2+k) once, when a correlator is stored.

Coefficientwise recursion.  Write U[a_0, ..., a_(k-1)] for the coefficient of
p^-a_0 p_1^-a_1 ... p_(k-1)^-a_(k-1) in U^g_k, and L for the legs 1..k-1.
Four times the kernel is -sum_(m>=0) q^(2m-1) p^-(2m+2), so the residue at
q = 0 reads the bracket at q^-(a_0-2), with a minus sign.  A factor taken at
qbar carries (-1)^e at q^e, and -1 more from d(-q) = -dq; every q power that
contributes is even (shown below), so each conjugated factor carries exactly
-1.  In a splitting term that -1 cancels the residue's, and the bracket's
factors contribute:

* a sub-correlator U^h(q, p_A): U^h[b, a_A] at q^-b;
* the Bergman factor 1/(q - p_j)^2 = W^0_2(q, p_j): a_j - 1 at q^(a_j-2);
* the genus-lowering term 4 U^(g-1)_(k+1)(q, qbar, p_L):
  -4 sum_(b+c=e) U^(g-1)[b, c, a_L] at q^-e; for (1, 1) it is
  4 W^0_2(q, qbar) = -q^-2.

So U^1_1[4] = 1, and otherwise

    U^g_k[a_0, a_L] = 4 sum_(b+c=a_0-2) U^(g-1)_(k+1)[b, c, a_L]
                      + sum_(h, A + B = L) F^h_A F^(g-h)_B,

where the second sum runs over the splittings of the labelled legs L, with
no side of genus 0 and no legs (W^0_1 = 0), and F^h_A is what the side
(h, A) contributes at its q power.  That power is fixed by homogeneity: it
is q^-b with b = 6h - 2 + 4|A| - sum a_A (also for the Bergman factor, whose
q^(a_j-2) is this q^-b), and a sub-correlator side with b < 2 contributes 0.

Support, by induction on 2g - 2 + k: U^g_k[a] can be nonzero only when
every a_i is even and at least 2 and sum a_i = 6g - 6 + 4k.  It holds for
(1, 1), whose only term is U^1_1[4].  Assume it below 2g - 2 + k.  The kernel
gives a_0 = 2m + 2, even and at least 2.  A leg inside a sub-correlator
factor, the genus-lowering one included, has an even exponent at least 2,
and that factor's q power is even, by the hypothesis.  A leg j in a
Bergman factor has a_j >= 2, and its q power a_j - 2 plus the other side's
q power is -(a_0 - 2), which is even; the other side's power is even (a
sub-correlator by the hypothesis, or a second Bergman factor, which forces
both powers to be 0, since then a_i - 2 + a_j - 2 = -(a_0 - 2) <= 0: this
is (0, 3) and its key (2, 2, 2)).
So a_j is even too, every q power that contributes is even, and every
exponent is even and at least 2.  For the sum: by the hypothesis a
sub-correlator has degree -(6h - 6 + 4k_h) and the Bergman factor -2, so
every bracket term has degree -(6g - 8 + 4k) in (q, p_L); the kernel's
degree is -3, and reading the coefficient of q^-1 adds 1, which gives
-(6g - 6 + 4k).

The coefficients are therefore computed only on these target keys.  W^g_k
is symmetric in its variables (Eynard-Orantin 2007), so U^g_k[a] depends
only on the multiset of the a_i: it is memoized on (g, sorted key), the
smallest entry serves as a_0, and the splittings are summed over the
sub-multisets A of L, each with its number of labelled choices.  A
Correlator stores one coefficient per orbit of the leg permutations.

Printing.  A writer formats each orbit's coefficient once, into a table of
printed entries (the coefficient's text with its sign, or the tail
`], num, den]` of a JSON monomial) keyed by an integer code of the orbit's
multiset: with w = k.bit_length(), the code of the exponents -a_0, ...,
-a_(k-1) is sum_i 2^(w a_i / 2).  Every a_i is even (the support lemma), so
a_i / 2 is an integer v >= 1, and grouping equal exponents writes the code
as sum_v n_v 2^(w v), where n_v is the number of legs with a_i = 2v.  Each
n_v is at most k < 2^w, so n_v is the v-th digit of the code in base 2^w;
base-2^w digits are unique, so the code gives back every n_v, and with them
the multiset: the code is injective.  One iterative depth-first walk over
the even compositions of the degree, largest a_0 first, then largest a_1,
and so on (ascending exponent vectors), carries down the printed prefix of
the legs fixed so far and its partial code, and looks up each monomial's
entry with one dict lookup.  It hands the writer a few dozen monomials at
a time, so no correlator is ever held expanded to every ordering of each
key.

The series route computes the same numerators from truncation-tracked
series and serves as the tests' independent check of the coefficient
route: a QSeries knows the highest q exponent it is trusted through, and a
residue is only read inside the trusted range.  `_residue_recursion` reads
each sub-correlator as 4^(3h-2+k) times its coefficients, checked to be
integers, forms every bracket term from them and the Bergman expansion by
plain QSeries products, sums the terms, and reads the residue of four times
the kernel times that bracket.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, product
from math import comb
from operator import add

_EXACT = 10**9  # "trusted through any exponent we will ever look at"

# Recursion bound on 2g - 2 + k, by the rule that the worst call finishes
# within 30 s and 1 GiB.  Its largest pair, (0, 14), prints its 2 496 144
# monomials in 2.5 to 3.1 s as text or JSON, at 17 MiB peak, and
# scripts/airy_table.py --max-euler 12 takes 6.8 to 7.1 s (Python 3.11.7 on
# a 2-core Intel Xeon).
MAX_NEG_EULER = 12


def _owning(nvars: int, acc: dict) -> "LaurentPoly":
    """A LaurentPoly taking over the dict `acc`, with its zero entries dropped."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.nvars = nvars
    out.coeffs = acc if all(acc.values()) else {e: c for e, c in acc.items() if c}
    return out


def _accumulate(acc: dict, coeffs: dict) -> None:
    """Add the coefficients `coeffs` into `acc` in place (zeros may remain)."""
    for exps, c in coeffs.items():
        acc[exps] = acc.get(exps, 0) + c


class LaurentPoly:
    """Multivariate Laurent polynomial: exponent vectors -> nonzero rationals.

    Coefficients are ints or Fractions; other numbers are converted to
    Fraction.  Integer polynomials stay in ints under +, - and *.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=()):
        acc: dict = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for exps, c in items:
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} needs {nvars} slots")
            new = acc.get(exps, 0) + c
            if new:
                acc[exps] = new
            else:
                del acc[exps]
        self.nvars = nvars
        self.coeffs = acc

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "LaurentPoly":
        return cls(nvars, ((tuple(exps), coeff),))

    @classmethod
    def const(cls, nvars: int, coeff) -> "LaurentPoly":
        return cls(nvars, (((0,) * nvars, coeff),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        acc = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            new = acc.get(exps, 0) + c
            if new:
                acc[exps] = new
            else:
                del acc[exps]
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.coeffs = self.nvars, acc
        return out

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        acc: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exps = tuple(map(add, e1, e2))
                acc[exps] = acc.get(exps, 0) + c1 * c2
        return _owning(self.nvars, acc)

    def scale(self, c) -> "LaurentPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars = self.nvars
        out.coeffs = {e: c * v for e, v in self.coeffs.items()} if c else {}
        return out

    def permute_vars(self, perm) -> "LaurentPoly":
        """Relabel variables: slot i of the result reads slot perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"not a variable permutation: {perm}")
        return LaurentPoly(
            self.nvars,
            ((tuple(e[p] for p in perm), c) for e, c in self.coeffs.items()),
        )

    def __str__(self) -> str:
        return format_laurent(sorted(self.coeffs.items()))


def var_name(i: int) -> str:
    return "p" if i == 0 else f"p{i}"


def _sign(c) -> str:
    """The separator before a monomial of coefficient c: " + " or " - "."""
    return " + " if c > 0 else " - "


def _lead(text: str) -> str:
    """`text`, a sum that starts with `_sign` of its first monomial, as
    printed: no separator before a positive first monomial, "-" before a
    negative one."""
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_laurent(terms: Iterable) -> str:
    """Sum of monomials "c * p^a * p1^b * ..." with the rational c always shown,
    from (exponent vector, coefficient) pairs in the order given."""
    text = "".join(
        _sign(c) + " * ".join([str(abs(c))] + [f"{var_name(i)}^{e}" for i, e in enumerate(exps) if e])
        for exps, c in terms)
    return _lead(text) if text else "0"


def laurent_json(poly: LaurentPoly) -> list:
    """JSON form: a list of (exponent vector, numerator, denominator) triples."""
    return [
        [list(exps), poly.coeffs[exps].numerator, poly.coeffs[exps].denominator]
        for exps in sorted(poly.coeffs)
    ]


class QSeries:
    """Truncated Laurent series in q whose coefficients are Laurent polynomials.

    ``valid`` is the highest q exponent the series is trusted through; sums
    and products propagate it, so reading a residue off an insufficiently
    truncated series is an error rather than a wrong answer.
    """

    __slots__ = ("nvars", "coeffs", "valid")

    def __init__(self, nvars: int, coeffs=(), valid: int = _EXACT):
        acc: dict = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for e, poly in items:
            if e > valid or poly.is_zero():
                continue
            have = acc.get(e)
            acc[e] = poly if have is None else have + poly
        self.nvars = nvars
        self.coeffs = {e: p for e, p in acc.items() if p}
        self.valid = valid

    def lowest(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.valid == other.valid
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other: "QSeries") -> "QSeries":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        # Terms above `valid` are unknown; they first pollute the product at
        # exponent (valid of one factor) + (lowest exponent of the other).
        la = self.lowest() if self.coeffs else self.valid + 1
        lb = other.lowest() if other.coeffs else other.valid + 1
        valid = min(self.valid + lb, other.valid + la, _EXACT)
        acc: dict[int, dict] = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                e = i + j
                if e > valid:
                    continue
                prod = (ci * cj).coeffs
                have = acc.get(e)
                if have is None:
                    acc[e] = prod
                else:
                    _accumulate(have, prod)
        return QSeries(
            self.nvars, {e: _owning(self.nvars, d) for e, d in acc.items()}, valid
        )

    def scale(self, c) -> "QSeries":
        return QSeries(
            self.nvars, {e: p.scale(c) for e, p in self.coeffs.items()}, self.valid
        )


def bergman_series(leg: int, order: int, nvars: int | None = None) -> QSeries:
    """Expansion of 1/(q - p_leg)^2 around q = 0, through q^order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if nvars is None:
        nvars = leg + 1
    coeffs = {}
    for m in range(order + 1):
        exps = [0] * nvars
        exps[leg] = -(m + 2)
        coeffs[m] = LaurentPoly.monomial(nvars, exps, m + 1)
    return QSeries(nvars, coeffs, valid=order)


def kernel_series(order: int, nvars: int = 1) -> QSeries:
    """Expansion of the recursion kernel 1/(4q(q^2 - p^2)) through q^order.

    Equal to -(1/(4 p^2)) q^(-1) sum_m (q/p)^(2m); only odd powers of q
    appear, starting at q^(-1), and p is variable 0.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    coeffs = {}
    m = 0
    while 2 * m - 1 <= order:
        exps = [0] * nvars
        exps[0] = -(2 * m + 2)
        coeffs[2 * m - 1] = LaurentPoly.monomial(nvars, exps, Fraction(-1, 4))
        m += 1
    return QSeries(nvars, coeffs, valid=order)


def conjugate_leg(s: QSeries) -> QSeries:
    """Substitute q -> -q and multiply by -1 (the conjugated leg's d(-q) = -dq)."""
    return QSeries(
        s.nvars,
        {e: p.scale((-1) ** (e + 1)) for e, p in s.coeffs.items()},
        s.valid,
    )


def residue_at_zero(s: QSeries) -> LaurentPoly:
    """Coefficient of q^(-1); requires the truncation to cover it."""
    if s.valid < -1:
        raise ValueError(
            f"truncation insufficient for a residue (trusted through q^{s.valid})"
        )
    return s.coeffs.get(-1, LaurentPoly(s.nvars))


@dataclass(frozen=True)
class Correlator:
    """A genus-g, k-leg correlator; variables are p, p1, ..., p_(k-1).

    ``orbits`` maps the sorted exponent vector of each orbit of the leg
    permutations to its coefficient, over the nonzero orbits only.
    """

    genus: int
    legs: int
    orbits: dict[tuple[int, ...], Fraction]

    def _chunks(self, piece, entry, entry_first: bool) -> Iterator[list]:
        """The expansion in ascending order of the exponent vectors, as flat
        lists of a few dozen monomials each.  The monomial prod_i p_i^-a_i of
        coefficient c adds three items: a prefix and a tail whose sum (+) is
        piece(0, a_0) + ... + piece(k-1, a_(k-1)), and entry(c), looked up by
        the orbit code of the module docstring; the entry comes first if
        `entry_first`, else last.
        """
        k = self.legs
        half = 3 * self.genus - 3 + 2 * k  # the sum of the a_i / 2
        top = half - k + 1  # the largest a_i / 2, every other leg at 1
        bits = [1 << (k.bit_length() * b) for b in range(top + 1)]
        get = {sum(bits[-e // 2] for e in key): entry(c) for key, c in self.orbits.items()}.get
        pieces = [[piece(i, 2 * b) for b in range(top + 1)] for i in range(k)]
        # The last one or two legs in one loop: (tail, code) by their sum of halves.
        last = pieces[-1]
        if k == 1:
            tails = [[(last[r], bits[r])] for r in range(top + 1)]
        else:
            tails = [[(pieces[-2][b] + last[r - b], bits[b] + bits[r - b])
                      for b in range(r - 1, 0, -1)] for r in range(top + 2)]
        out: list = []
        # (leg, halves left, prefix, its code); the first prefix is "" or ().
        stack = [(0, half, last[0][:0], 0)]
        while stack:
            i, rest, prefix, code = stack.pop()
            if i < k - 2:
                # Every later leg takes at least 1; pushed smallest first, so
                # the largest a_i is popped first.
                p = pieces[i]
                stack.extend((i + 1, rest - b, prefix + p[b], code + bits[b])
                             for b in range(1, rest - k + i + 2))
                continue
            for x, c in tails[rest]:
                e = get(code + c)
                if e is not None:
                    out += (e, prefix, x) if entry_first else (prefix, x, e)
            if len(out) >= 96:  # 32 monomials: small next to the interpreter
                yield out
                out = []
        if out:
            yield out

    def text_chunks(self) -> Iterator[str]:
        """`format_laurent` of the expansion, a few dozen monomials at a time."""
        lead = True
        for out in self._chunks(lambda i, a: f" * {var_name(i)}^-{a}",
                                lambda c: _sign(c) + str(abs(c)), True):
            yield _lead("".join(out)) if lead else "".join(out)
            lead = False
        if lead:
            yield "0"

    def json_chunks(self) -> Iterator[str]:
        """`json.dumps(laurent_json(self.coeff))`, a few dozen monomials at a time."""
        yield "["
        cut = 2  # the ", " before the first monomial
        for out in self._chunks(lambda i, a: f", -{a}" if i else f", [[-{a}",
                                lambda c: f"], {c.numerator}, {c.denominator}]", False):
            yield "".join(out)[cut:]
            cut = 0
        yield "]"

    @property
    def coeff(self) -> LaurentPoly:
        """The whole expansion, built anew on each read."""
        acc: dict = {}
        for out in self._chunks(lambda i, a: (-a,), lambda c: c, False):
            items = iter(out)
            for prefix, x, c in zip(items, items, items):
                acc[prefix + x] = c
        return _owning(self.legs, acc)

    def __str__(self) -> str:
        return "".join(self.text_chunks())


def default_truncation(g: int, k: int) -> int:
    # Deepest q pole fed into the residue is 6g + 2k - 3, with margin.
    return 2 * (3 * g - 2 + k) + 4


def _attach(poly: LaurentPoly, roles: list, nvars: int) -> QSeries:
    """Substitute an already-computed correlator into the residue variable.

    roles[i] says what the i-th variable of `poly` becomes: "q", "qbar"
    (= -q, with one -1 for the conjugated leg), or a global variable index.
    The result is exact.
    """
    n_conj = sum(1 for r in roles if r == "qbar")
    acc: dict = {}
    for exps, c in poly.coeffs.items():
        qe = 0
        sign = (-1) ** n_conj
        pexps = [0] * nvars
        for e, role in zip(exps, roles):
            if role == "q":
                qe += e
            elif role == "qbar":
                qe += e
                if e % 2:
                    sign = -sign
            else:
                pexps[role] += e
        key = tuple(pexps)
        bucket = acc.setdefault(qe, {})
        bucket[key] = bucket.get(key, 0) + sign * c
    return QSeries(nvars, {e: _owning(nvars, d) for e, d in acc.items()}, _EXACT)


def _factor(h: int, sub_legs: tuple[int, ...], which: str, nvars: int, order: int) -> QSeries:
    """One factor 4^(3h-1+|sub_legs|) W^h(q or qbar, sub_legs) of a splitting term."""
    k_f = len(sub_legs) + 1
    if h == 0 and k_f == 2:
        s = bergman_series(sub_legs[0], order, nvars)
        return conjugate_leg(s) if which == "qbar" else s
    return _attach(_numerators(h, k_f), [which] + list(sub_legs), nvars)


def _numerators(g: int, k: int) -> LaurentPoly:
    """4^(3g-2+k) W^g_k, read from `airy_correlator`: the form in which the
    series route reads a sub-correlator.  Its coefficients must be integers,
    and are kept as ints, which multiply much faster than Fractions."""
    u = airy_correlator(g, k).coeff.scale(4 ** (3 * g - 2 + k))
    if any(c.denominator != 1 for c in u.coeffs.values()):
        raise ArithmeticError(f"4^(3g-2+k) W^{g}_{k} is not integral: {u}")
    return _owning(k, {e: int(c) for e, c in u.coeffs.items()})


def _residue_recursion(g: int, k: int, order: int) -> LaurentPoly:
    """4^(3g-2+k) W^g_k, with integer coefficients, by the series route.

    Sub-correlators come from `airy_correlator`.  The Bergman factors and
    the kernel are expanded through q^order; an order too small for the
    residue raises ValueError.
    """
    nv = k
    legs = list(range(1, k))
    # The bracket terms, scaled by 4^(3g-2+k).
    terms = []
    if g == 1 and k == 1:
        # 4 W_2^0(q, qbar) = 4/(q - qbar)^2 at qbar = -q, with the leg sign.
        terms.append(QSeries(nv, {-2: LaurentPoly.const(nv, -1)}))
    elif g >= 1:
        sub = _numerators(g - 1, k + 1)
        terms.append(_attach(sub, ["q", "qbar"] + legs, nv).scale(4))
    for h in range(g + 1):
        for size in range(k):
            for chosen in combinations(legs, size):
                rest = tuple(v for v in legs if v not in chosen)
                # W_1^0 vanishes: drop the splittings where either side would
                # be the genus-0 one-point function.
                if (h == 0 and not chosen) or (h == g and not rest):
                    continue
                f1 = _factor(h, chosen, "q", nv, order)
                f2 = _factor(g - h, rest, "qbar", nv, order)
                terms.append(f1 * f2)
    # Their sum, trusted as far as every term is.
    bracket = QSeries(nv, [(e, p) for t in terms for e, p in t.coeffs.items()],
                      min(t.valid for t in terms))
    return residue_at_zero(kernel_series(order, nv).scale(4) * bracket)


def _target_keys(total: int, parts: int, least: int = 2):
    """Every nondecreasing tuple of `parts` even integers >= `least` summing to `total`."""
    if parts == 1:
        if total >= least:
            yield (total,)
        return
    for first in range(least, total // parts + 1, 2):
        for rest in _target_keys(total - first, parts - 1, first):
            yield (first,) + rest


def _side(h: int, chosen: tuple[int, ...]) -> int:
    """The coefficient one side (h, chosen legs) of a splitting term contributes.

    Its q power -b is fixed by homogeneity; the Bergman factor, genus 0 with
    one leg a, gives a - 1 (at q^(a-2), which is q^-b).
    """
    if h == 0 and len(chosen) == 1:
        return chosen[0] - 1
    b = 6 * h - 2 + 4 * len(chosen) - sum(chosen)
    return _numerator(h, tuple(sorted(chosen + (b,)))) if b >= 2 else 0


@lru_cache(maxsize=None)
def _numerator(g: int, key: tuple[int, ...]) -> int:
    """The coefficient of prod_i p_i^-key[i] in 4^(3g-2+k) W^g_k; `key` is sorted."""
    a0, legs = key[0], key[1:]
    if g == 1 and not legs:
        return 1  # 4 W^0_2(q, qbar), read at (1, 1)'s only key, a0 = 4
    total = 0
    if g:
        for b in range(2, a0 - 3, 2):
            total += 4 * _numerator(g - 1, tuple(sorted(legs + (b, a0 - 2 - b))))
    runs = [(v, len(list(same))) for v, same in groupby(legs)]
    for counts in product(*(range(n + 1) for _, n in runs)):
        chosen, rest, ways = (), (), 1
        for (v, n), c in zip(runs, counts):
            chosen += (v,) * c
            rest += (v,) * (n - c)
            ways *= comb(n, c)
        for h in range(g + 1):
            # W_1^0 vanishes: no side may be the genus-0 one-point function.
            if (h == 0 and not chosen) or (h == g and not rest):
                continue
            total += ways * _side(h, chosen) * _side(g - h, rest)
    return total


# Memo of finished correlators; values are immutable and recomputation is
# idempotent, so concurrent fills of the same key are harmless.
_CACHE: dict[tuple[int, int], Correlator] = {}


def airy_correlator(g: int, k: int) -> Correlator:
    """The genus-g, k-leg correlator of the Airy curve, exactly.

    Requires a stable pair: 2g - 2 + k >= 1 (and within the configured
    recursion bound).  Each orbit's coefficient is computed once and
    stored under its sorted exponent vector.
    """
    if k < 1 or g < 0:
        raise ValueError(f"need genus >= 0 and at least one leg, got ({g}, {k})")
    neg_euler = 2 * g - 2 + k
    if neg_euler < 1:
        raise ValueError(f"unstable correlator requested: genus {g}, {k} legs")
    if neg_euler > MAX_NEG_EULER:
        raise ValueError(
            f"correlator (genus {g}, {k} legs) beyond configured bound "
            f"2g-2+k <= {MAX_NEG_EULER}"
        )
    got = _CACHE.get((g, k))
    if got is not None:
        return got
    scale = 4 ** (3 * g - 2 + k)
    orbits = {}
    for key in _target_keys(6 * g - 6 + 4 * k, k):
        u = _numerator(g, key)
        if u:
            orbits[tuple(-a for a in reversed(key))] = Fraction(u, scale)
    corr = Correlator(g, k, orbits)
    _CACHE[(g, k)] = corr
    return corr
