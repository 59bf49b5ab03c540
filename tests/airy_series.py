"""The series route of the Airy recursion: the tests' oracle for `lrq.airy`.

The series route computes the same numerators as the coefficient route of
`lrq.airy` from truncation-tracked series, and serves as the tests'
independent check of it: a QSeries knows the highest q exponent it is
trusted through, and a residue is only read inside the trusted range.
`_residue_recursion` reads each sub-correlator as 4^(3h-2+k) times its
coefficients, checked to be integers, forms every bracket term from them and
the Bergman expansion by plain QSeries products, sums the terms, and reads
the residue of four times the kernel times that bracket.

A sub-correlator is read through `expansion`, which expands a correlator's
orbit table to every ordering of each key, with no part of the printing
walk, so neither route checks the other through shared code.
"""

from itertools import combinations

from lrq.airy import (
    _EXACT,
    LaurentPoly,
    QSeries,
    _owning,
    airy_correlator,
    kernel_series,
    residue_at_zero,
)


def arrangements(key):
    """Every distinct ordering of the tuple `key`, in ascending order."""
    if not key:
        yield ()
        return
    for v in sorted(set(key)):
        i = key.index(v)
        for tail in arrangements(key[:i] + key[i + 1:]):
            yield (v,) + tail


def expansion(corr) -> LaurentPoly:
    """The whole expansion of the Correlator `corr`, from its orbit table."""
    return LaurentPoly(corr.legs, [(exps, c) for key, c in corr.orbits.items()
                                   for exps in arrangements(key)])


def laurent_json(poly: LaurentPoly) -> list:
    """JSON form: a list of (exponent vector, numerator, denominator) triples."""
    return [
        [list(exps), poly.coeffs[exps].numerator, poly.coeffs[exps].denominator]
        for exps in sorted(poly.coeffs)
    ]


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


def conjugate_leg(s: QSeries) -> QSeries:
    """Substitute q -> -q and multiply by -1 (the conjugated leg's d(-q) = -dq)."""
    return QSeries(
        s.nvars,
        {e: p.scale((-1) ** (e + 1)) for e, p in s.coeffs.items()},
        s.valid,
    )


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
    u = expansion(airy_correlator(g, k)).scale(4 ** (3 * g - 2 + k))
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
