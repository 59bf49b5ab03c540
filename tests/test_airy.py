"""Airy-curve recursion: series kernels, residues, exact correlators."""

import hashlib
import re
import runpy
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, zip_longest
from math import comb, factorial, prod
from pathlib import Path

import pytest

from lrq.airy import (
    _CACHE,
    MAX_NEG_EULER,
    LaurentPoly,
    QSeries,
    _numerator,
    _target_keys,
    airy_correlator,
    format_laurent,
    kernel_series,
    residue_at_zero,
)
from airy_series import (
    _numerators,
    _residue_recursion,
    bergman_series,
    conjugate_leg,
    default_truncation,
    expansion,
    laurent_json,
)


def mono(nvars, exps, c=1):
    return LaurentPoly.monomial(nvars, exps, c)


def stable_pairs(max_euler):
    """Every stable (g, k) with 2g - 2 + k <= max_euler."""
    return [(g, chi + 2 - 2 * g) for chi in range(1, max_euler + 1)
            for g in range(chi // 2 + 2) if chi + 2 - 2 * g >= 1]


def test_bergman_first_terms():
    s = bergman_series(1, 0, nvars=2)
    assert s.coeffs == {0: mono(2, (0, -2))}
    s = bergman_series(1, 1, nvars=2)
    assert s.coeffs == {0: mono(2, (0, -2)), 1: mono(2, (0, -3), 2)}


def test_bergman_constant_term_stable_under_truncation():
    for order in range(4):
        assert bergman_series(1, order, nvars=2).coeffs[0] == mono(2, (0, -2))


def test_bergman_multiplies_back_to_one():
    # (series of 1/(q-p)^2) * (q - p)^2 == 1 through the trusted range.
    for order in (0, 3, 7):
        s = bergman_series(1, order, nvars=2)
        square = QSeries(
            2,
            {
                0: mono(2, (0, 2)),
                1: mono(2, (0, 1), -2),
                2: LaurentPoly.const(2, 1),
            },
        )
        product = s * square
        assert product.valid == order
        assert product.coeffs == {0: LaurentPoly.const(2, 1)}


def test_kernel_first_terms():
    s = kernel_series(2)
    assert s.coeffs[-1] == mono(1, (-2,), Fraction(-1, 4))
    assert s.coeffs[1] == mono(1, (-4,), Fraction(-1, 4))
    assert s.lowest() == -1


def test_kernel_only_odd_exponents():
    s = kernel_series(9)
    assert all(e % 2 == 1 for e in s.coeffs)


def test_kernel_multiplies_back_to_one():
    # K * 4q(q^2 - p^2) == 1 through the trusted range.
    for order in (1, 5, 10):
        s = kernel_series(order)
        factor = QSeries(1, {1: mono(1, (2,), -4), 3: LaurentPoly.const(1, 4)})
        product = s * factor
        assert product.coeffs == {0: LaurentPoly.const(1, 1)}
        assert product.valid >= order


def test_conjugate_bergman():
    # 1/(q - p)^2 becomes -1/(q + p)^2
    s = conjugate_leg(bergman_series(1, 3, nvars=2))
    expected = {
        m: mono(2, (0, -(m + 2)), (m + 1) * (-1) ** (m + 1)) for m in range(4)
    }
    assert s.coeffs == expected


def test_double_conjugation_is_identity():
    s = bergman_series(1, 5, nvars=2)
    assert conjugate_leg(conjugate_leg(s)) == s


def test_residue_reads_q_minus_one():
    s = QSeries(1, {-1: LaurentPoly.const(1, 1)})
    assert residue_at_zero(s) == LaurentPoly.const(1, 1)


def test_residue_of_kernel_times_cylinder():
    # The kernel against the conjugated self-glued cylinder -1/(4q^2).
    bracket = QSeries(1, {-2: LaurentPoly.const(1, Fraction(-1, 4))})
    got = residue_at_zero(kernel_series(8) * bracket)
    assert got == mono(1, (-4,), Fraction(1, 16))


def test_residue_vanishes_above_pole():
    s = QSeries(1, {0: LaurentPoly.const(1, 5), 2: mono(1, (-2,))})
    assert residue_at_zero(s).is_zero()


def test_residue_linear_and_kills_exact_powers():
    for m in range(-5, 6):
        s = QSeries(1, {m: LaurentPoly.const(1, 3)})
        res = residue_at_zero(s)
        assert res.is_zero() == (m != -1)


@pytest.mark.parametrize("g,k", [(1, 1), (0, 4), (1, 2), (2, 1), (1, 3)])
def test_short_truncation_raises_and_never_misreads(g, k):
    # Below the smallest order that covers the residue the recursion raises;
    # from there on it returns the exact numerators.
    exact = _numerators(g, k)
    outcomes = []
    for order in range(default_truncation(g, k) + 1):
        try:
            got = _residue_recursion(g, k, order)
        except ValueError:
            outcomes.append("raised")
        else:
            assert got == exact
            outcomes.append("exact")
    assert outcomes[0] == "raised" and outcomes[-1] == "exact"
    assert outcomes == sorted(outcomes, key=("raised", "exact").index)


def test_residue_requires_enough_truncation():
    s = QSeries(1, {-3: LaurentPoly.const(1, 1)}, valid=-2)
    with pytest.raises(ValueError):
        residue_at_zero(s)


def test_three_point_function():
    got = airy_correlator(0, 3)
    assert expansion(got) == mono(3, (-2, -2, -2), Fraction(1, 2))
    assert str(got) == "1/2 * p^-2 * p1^-2 * p2^-2"


def test_one_loop_one_point_function():
    got = airy_correlator(1, 1)
    assert expansion(got) == mono(1, (-4,), Fraction(1, 16))
    assert str(got) == "1/16 * p^-4"


def test_unstable_requests_rejected():
    for g, k in [(0, 1), (0, 2)]:
        with pytest.raises(ValueError):
            airy_correlator(g, k)
    with pytest.raises(ValueError):
        airy_correlator(-1, 3)
    with pytest.raises(ValueError):
        airy_correlator(0, 0)
    with pytest.raises(ValueError):
        airy_correlator(10, 10)


@pytest.mark.parametrize("g,k", [(0, 4), (1, 2), (2, 1), (0, 3)])
def test_correlator_invariants(g, k):
    corr = airy_correlator(g, k)
    assert (corr.genus, corr.legs) == (g, k)
    poly = expansion(corr)
    assert poly.nvars == k
    # homogeneity, parity, pole depth
    for exps, _ in poly.coeffs.items():
        assert sum(exps) == -(6 * g - 6 + 4 * k)
        assert all(e % 2 == 0 and e <= -2 for e in exps)
    # symmetry under every leg permutation
    for perm in permutations(range(k)):
        assert poly.permute_vars(perm) == poly


@pytest.mark.parametrize("g,k", stable_pairs(7))
def test_series_route_matches_the_coefficient_route(g, k):
    # One step of the series recursion, fed the coefficient route's
    # sub-correlators, gives the coefficient route's numerators.
    exact = _numerators(g, k)
    assert _residue_recursion(g, k, default_truncation(g, k)) == exact


@pytest.mark.parametrize("g,k", stable_pairs(8))
def test_expansion_lists_every_ordering_of_each_orbit(g, k):
    # An orbit whose exponents repeat n_1, n_2, ... times has k!/prod n_i!
    # orderings, and no two orbits share one.
    corr = airy_correlator(g, k)
    sizes = sum(factorial(k) // prod(map(factorial, Counter(key).values()))
                for key in corr.orbits)
    assert len(expansion(corr).coeffs) == sizes


@pytest.mark.parametrize("g,k", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
def test_truncation_stability(g, k):
    base = default_truncation(g, k)
    assert _residue_recursion(g, k, base) == _residue_recursion(g, k, base + 4)


def test_laurent_arithmetic():
    a = mono(2, (1, 0)) + mono(2, (0, 1))
    b = mono(2, (1, 0)) - mono(2, (0, 1))
    assert a * b == mono(2, (2, 0)) - mono(2, (0, 2))
    assert (a - a).is_zero()
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
    # Coefficients are exact, and no stored coefficient is zero.
    assert LaurentPoly(1, [((1,), 0.5), ((1,), Fraction(1, 2))]).coeffs == {(1,): 1}
    assert LaurentPoly(1, {(1,): 2, (2,): 0}).coeffs == {(1,): 2}
    assert LaurentPoly(2, [([1, 0], 1), ((1, 0), -1)]).coeffs == {}
    assert (a + b.scale(-1)).coeffs == {(0, 1): 2}
    assert a.scale(0).coeffs == {}
    assert a.scale(0.25).coeffs == {(1, 0): Fraction(1, 4), (0, 1): Fraction(1, 4)}
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) needs 2 slots"):
        LaurentPoly(2, [((1, 0), 1), ((1,), 1)])
    for op in (a.__add__, a.__mul__):
        with pytest.raises(ValueError, match="variable counts differ"):
            op(mono(3, (1, 0, 0)))


def test_laurent_permute_vars():
    p = mono(3, (-2, -4, -6))
    q = p.permute_vars((2, 0, 1))
    assert q == mono(3, (-6, -2, -4))
    with pytest.raises(ValueError):
        p.permute_vars((0, 0, 1))


def test_format_and_json():
    p = mono(2, (-2, 0), Fraction(3, 4)) + mono(2, (-4, -2), Fraction(-1, 2))
    assert format_laurent(sorted(p.coeffs.items())) == "-1/2 * p^-4 * p1^-2 + 3/4 * p^-2"
    assert str(p) == "-1/2 * p^-4 * p1^-2 + 3/4 * p^-2"
    assert laurent_json(p) == [[[-4, -2], -1, 2], [[-2, 0], 3, 4]]
    assert format_laurent([]) == "0"


def walk_pairs(max_euler):
    """stable_pairs(max_euler), then every pair with at most four legs up to
    the configured bound: the ones whose legs all, or all but one, sit in
    the walk's last-legs table."""
    small = stable_pairs(max_euler)
    return small + [(g, k) for g, k in stable_pairs(MAX_NEG_EULER)
                    if k <= 4 and (g, k) not in small]


def assert_same_text(got, want):
    """Require the printed expansion `got` to equal `want` byte for byte,
    by length and SHA-256, naming the first differing monomial on failure.
    Comparing multi-megabyte strings with == makes pytest build a
    character diff of them, which does not finish in minutes."""
    def digest(text):
        return len(text), hashlib.sha256(text.encode()).hexdigest()

    def first_difference():
        # A monomial starts at its sign (text) or at its "[[-" (JSON).
        pairs = zip_longest(*(re.split(r"(?= [+-] |\[\[-)", t) for t in (got, want)))
        i, (x, y) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        return f"monomial {i} differs: got {x!r}, want {y!r}"

    assert digest(got) == digest(want), first_difference()


@pytest.mark.parametrize("g,k", walk_pairs(9))
def test_walk_prints_the_sorted_expansion(g, k):
    # The canonical walk against the orbit table expanded to every ordering
    # of each key and sorted whole.
    corr = airy_correlator(g, k)
    assert_same_text(str(corr), str(expansion(corr)))


def test_cache_holds_orbit_tables_only():
    airy_correlator(0, 10)
    assert (0, 10) in _CACHE
    for (g, k), corr in _CACHE.items():
        assert [f.name for f in fields(corr)] == ["genus", "legs", "orbits"]
        assert set(vars(corr)) == {"genus", "legs", "orbits"}
        keys = [tuple(-a for a in reversed(key)) for key in _target_keys(6 * g - 6 + 4 * k, k)]
        assert corr.orbits and set(corr.orbits) <= set(keys)
        assert all(isinstance(c, Fraction) and c for c in corr.orbits.values())


def test_one_point_functions_match_intersection_numbers():
    # One-point functions are (2d+1)!! <tau_d>_g / p^(2d+2) up to the curve
    # normalization c^(2g-2+k) with c fixed by the (1,1) value:
    # 1/16 = 3 * (1/24) * c  =>  c = 1/2.  With <tau_{3g-2}>_g = 1/(24^g g!),
    # genus 2 predicts 945/1152/8 = 105/1024 and genus 3 predicts
    # 2027025/82944/32 = 25025/32768, two independent cross-checks.
    assert expansion(airy_correlator(1, 1)) == mono(1, (-4,), Fraction(3, 24) / 2)
    assert expansion(airy_correlator(2, 1)) == mono(
        1, (-10,), Fraction(945, 1152) / 8
    )
    assert expansion(airy_correlator(3, 1)) == mono(
        1, (-16,), Fraction(2027025, 82944) / 32
    )


def double_factorial(n):
    return prod(range(n, 0, -2))


def witten_kontsevich(g, ds):
    """<tau_d1 ... tau_dk>_g by the DVV (Virasoro) recursion, exactly."""
    return _witten_kontsevich(g, tuple(sorted(ds)))


@lru_cache(maxsize=None)
def _witten_kontsevich(g, ds):
    """The symmetric intersection number, memoized on the sorted indices ds."""
    if any(d < 0 for d in ds) or sum(ds) != 3 * g - 3 + len(ds):
        return Fraction(0)
    if 2 * g - 2 + len(ds) <= 0:
        return Fraction(0)
    if (g, ds) == (0, (0, 0, 0)):
        return Fraction(1)
    if (g, ds) == (1, (1,)):
        return Fraction(1, 24)
    # Remove the largest index: tau_(m+1) with m = ds[-1] - 1.
    m, rest = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        moved = rest[:j] + (d + m,) + rest[j + 1:]
        total += Fraction(double_factorial(2 * m + 2 * d + 1),
                          double_factorial(2 * d - 1)) * witten_kontsevich(g, moved)
    for r in range(m):
        s = m - 1 - r
        weight = Fraction(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        total += weight * witten_kontsevich(g - 1, (r, s) + rest)
        for h in range(g + 1):
            for size in range(len(rest) + 1):
                for chosen in combinations(range(len(rest)), size):
                    left = tuple(rest[i] for i in chosen)
                    right = tuple(rest[i] for i in range(len(rest)) if i not in chosen)
                    total += (weight * witten_kontsevich(h, (r,) + left)
                              * witten_kontsevich(g - h, (s,) + right))
    return total / double_factorial(2 * m + 3)


def test_witten_kontsevich_values():
    # Classical values that pin the recursion's conventions down.
    assert witten_kontsevich(2, (4,)) == Fraction(1, 1152)
    assert witten_kontsevich(1, (1, 1)) == Fraction(1, 24)
    assert witten_kontsevich(0, (1, 1, 0, 0, 0)) == 2
    assert witten_kontsevich(2, (2, 3)) == Fraction(29, 5760)
    assert witten_kontsevich(3, (7,)) == Fraction(1, 82944)


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in compositions(total - first, parts - 1):
            yield (first,) + tail


@pytest.mark.parametrize("g,k", stable_pairs(8))
def test_matches_witten_kontsevich(g, k):
    # W^g_k = 2^-(2g-2+k) sum_d <tau_d1...tau_dk>_g prod (2d_i+1)!! p_i^-(2d_i+2)
    want = {}
    for ds in compositions(3 * g - 3 + k, k):
        value = witten_kontsevich(g, ds) * prod(double_factorial(2 * d + 1) for d in ds)
        if value:
            want[tuple(-(2 * d + 2) for d in ds)] = value / 2 ** (2 * g - 2 + k)
    assert expansion(airy_correlator(g, k)).coeffs == want


def partitions(total, parts, largest):
    """Every nonincreasing tuple of `parts` integers from 0 to `largest`
    summing to `total`."""
    if not parts:
        if not total:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        for tail in partitions(total - first, parts - 1, first):
            yield (first,) + tail


def orbit_value(g, ds, intersection):
    """The coefficient of one monomial of the orbit of ds in W^g_k, in the
    normalization of `test_matches_witten_kontsevich`, with <tau_ds>_g =
    intersection."""
    return (intersection * prod(double_factorial(2 * d + 1) for d in ds)
            / 2 ** (2 * g - 2 + len(ds)))


def test_genus_zero_orbits_match_the_closed_form():
    # <tau_d1...tau_dk>_0 = (k-3)!/prod d_i! for every orbit up to the
    # configured bound, past the DVV oracle's 2g-2+k <= 8.
    orbits = 0
    for k in range(3, MAX_NEG_EULER + 3):
        want = {tuple(-(2 * d + 2) for d in ds):
                orbit_value(0, ds, Fraction(factorial(k - 3), prod(map(factorial, ds))))
                for ds in partitions(k - 3, k, k - 3)}
        assert airy_correlator(0, k).orbits == want, k
        orbits += len(want)
    assert orbits == 195


@pytest.mark.parametrize("g", range(1, 7))
def test_one_point_orbits_match_the_closed_form(g):
    # <tau_{3g-2}>_g = 1/(24^g g!).
    d = 3 * g - 2
    want = {(-(2 * d + 2),): orbit_value(g, (d,), Fraction(1, 24 ** g * factorial(g)))}
    assert airy_correlator(g, 1).orbits == want


def numerators_past_the_bound(g, k):
    """W^g_k's coefficient on each target key, keyed by the nonincreasing
    ds of the key, through the recursion alone: `_target_keys` and
    `_numerator`, which `MAX_NEG_EULER` does not guard."""
    return {tuple((a - 2) // 2 for a in reversed(key)):
            Fraction(_numerator(g, key), 4 ** (3 * g - 2 + k))
            for key in _target_keys(6 * g - 6 + 4 * k, k)}


def test_genus_zero_numerators_match_the_closed_form_past_the_bound():
    # <tau_d1...tau_dk>_0 = (k-3)!/prod d_i! on every target key up to
    # k = 20, far past the printing bound: the sums over the splittings
    # visit only the genera that homogeneity allows.
    keys = 0
    for k in range(3, 21):
        want = {ds: orbit_value(0, ds, Fraction(factorial(k - 3), prod(map(factorial, ds))))
                for ds in partitions(k - 3, k, k - 3)}
        assert numerators_past_the_bound(0, k) == want, k
        keys += len(want)
    assert keys == 1212


@pytest.mark.parametrize("g", range(1, 13))
def test_one_point_numerators_match_the_closed_form_past_the_bound(g):
    # <tau_{3g-2}>_g = 1/(24^g g!), up to 2g - 2 + k = 23.
    d = 3 * g - 2
    want = {(d,): orbit_value(g, (d,), Fraction(1, 24 ** g * factorial(g)))}
    assert numerators_past_the_bound(g, 1) == want


def intersection(ds):
    """<tau_ds>_g, the genus fixed by the dimension (0 off it, and for an
    unstable bracket), through `_numerator` alone, which `MAX_NEG_EULER`
    does not guard."""
    return _intersection(tuple(sorted(ds)))


@lru_cache(maxsize=None)
def _intersection(ds):
    """The intersection number of the sorted indices ds."""
    n = len(ds)
    g, r = divmod(sum(ds) - n + 3, 3)
    if r or g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    u = Fraction(_numerator(g, tuple(2 * d + 2 for d in ds)), 4 ** (3 * g - 2 + n))
    return u * 2 ** (2 * g - 2 + n) / prod(double_factorial(2 * d + 1) for d in ds)


@pytest.mark.parametrize("g", range(6))
def test_kdv_equation(g):
    # Witten's KdV equation, coefficientwise: for every list D, with the
    # left side in genus g,
    # <tau_1 tau_0^2 tau_D> = sum_(A + B = D) <tau_0^2 tau_A><tau_0^3 tau_B>
    #                         + (1/12) <tau_0^5 tau_D>,
    # over the labelled splittings of D.  Each bracket's genus is fixed by
    # the dimension, so the relation ties different genera together; both
    # sides reach 2g - 2 + k = 17 at g = 5 and |D| = 6.
    relations = 0
    for m in range(7):
        total = 3 * g - 1 + m  # sum D
        for ds in partitions(total, m, total) if total >= 0 else ():
            right = intersection((0,) * 5 + ds) / 12
            for size in range(m + 1):
                for chosen in combinations(range(m), size):
                    a = tuple(ds[i] for i in chosen)
                    b = tuple(d for i, d in enumerate(ds) if i not in chosen)
                    right += intersection((0, 0) + a) * intersection((0, 0, 0) + b)
            assert intersection((1, 0, 0) + ds) == right != 0, ds
            relations += 1
    assert relations == [19, 51, 107, 204, 350, 573][g]  # 1304 in all


def two_point_dijkgraaf(g):
    """<tau_a tau_b>_g for a = 0, ..., 3g - 1 and a + b = 3g - 1, from
    Dijkgraaf's two-point function
    sum <tau_a tau_b> x^a y^b
        = exp((x^3 + y^3)/24) / (x + y) * sum_n n!/(2n+1)! (xy(x + y)/2)^n.
    Its degree-3g part before the division is
    c = sum_(k+n=g) (x^3 + y^3)^k / (24^k k!) * n!/(2n+1)! (xy(x + y)/2)^n,
    divided here by x + y exactly; c[i] is the coefficient of x^i y^(3g-i)."""
    c = [Fraction(0)] * (3 * g + 1)
    for k in range(g + 1):
        n = g - k
        w = Fraction(factorial(n), factorial(2 * n + 1) * 24 ** k * factorial(k) * 2 ** n)
        for i in range(k + 1):
            for j in range(n + 1):
                c[3 * i + n + j] += w * comb(k, i) * comb(n, j)
    quotient, carry = [], 0
    for ci in c[:-1]:
        carry = ci - carry  # c[i] = q[i - 1] + q[i]
        quotient.append(carry)
    assert c[-1] == carry  # x + y divides c
    return quotient


@pytest.mark.parametrize("g", range(1, 26))
def test_two_point_function_matches_dijkgraaf(g):
    # Every <tau_a tau_b>_g: 494 keys up to g = 25, where 2g - 2 + k = 50.
    want = two_point_dijkgraaf(g)
    assert want == want[::-1]
    assert numerators_past_the_bound(g, 2) == {
        (3 * g - 1 - a, a): orbit_value(g, (a, 3 * g - 1 - a), want[a])
        for a in range((3 * g - 1) // 2 + 1)}


@pytest.mark.parametrize("n", range(1, 15))
def test_genus_one_matches_the_closed_form(n):
    # <tau_d1 ... tau_dn>_1 = (1/24) (n; d) (1 - sum_(i=2..n)
    # (i-2)! (n-i)!/n! e_i(d)), with (n; d) the multinomial coefficient and
    # e_i the elementary symmetric polynomials of the d_j, built by the
    # product recursion prod_j (1 + d_j t).  507 keys up to n = 14.
    want = {}
    for ds in partitions(n, n, n):
        e = [1] + [0] * n
        for d in ds:
            for i in range(n, 0, -1):
                e[i] += e[i - 1] * d
        tail = sum(Fraction(factorial(i - 2) * factorial(n - i), factorial(n)) * e[i]
                   for i in range(2, n + 1))
        value = Fraction(factorial(n), 24 * prod(map(factorial, ds))) * (1 - tail)
        want[ds] = orbit_value(1, ds, value)
    assert numerators_past_the_bound(1, n) == want


def intersections(g, k):
    """<tau_ds>_g for every nonzero orbit of W^g_k, keyed by the
    nonincreasing ds: the inverse of `orbit_value`."""
    out = {}
    for exps, c in airy_correlator(g, k).orbits.items():
        ds = tuple((-e - 2) // 2 for e in exps)
        out[ds] = c * 2 ** (2 * g - 2 + k) / prod(double_factorial(2 * d + 1) for d in ds)
    return out


def add_index(ds, d):
    """The nonincreasing tuple ds with one more index d."""
    return tuple(sorted(ds + (d,), reverse=True))


@pytest.mark.parametrize("g,k", stable_pairs(MAX_NEG_EULER - 1))
def test_string_equation(g, k):
    # <tau_0 tau_D>_g = sum_i <tau_(D - e_i)>_g, from the orbits of
    # W^g_(k+1) and W^g_k alone, with no recursion of its own.
    small, big = intersections(g, k), intersections(g, k + 1)
    total = 3 * g - 2 + k
    checked = 0
    for ds in partitions(total, k, total):
        want = sum(small.get(add_index(ds[:i] + ds[i + 1:], d - 1), 0)
                   for i, d in enumerate(ds) if d)
        assert big.get(add_index(ds, 0), 0) == want, ds
        checked += bool(want)
    assert checked


@pytest.mark.parametrize("g,k", stable_pairs(MAX_NEG_EULER - 1))
def test_dilaton_equation(g, k):
    # <tau_1 tau_D>_g = (2g - 2 + k) <tau_D>_g, from the orbits of W^g_(k+1)
    # and W^g_k alone.
    small, big = intersections(g, k), intersections(g, k + 1)
    total = 3 * g - 3 + k
    for ds in partitions(total, k, total):
        assert big.get(add_index(ds, 1), 0) == (2 * g - 2 + k) * small.get(ds, 0), ds
    assert small


def test_airy_table_lists_the_one_leg_pairs(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "airy_table.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["airy_table.py", "--max-euler", "3"])
    main()
    lines = capsys.readouterr().out.splitlines()
    assert "g=1 k=1:  1/16 * p^-4" in lines
    assert any(line.startswith("g=2 k=1:") for line in lines)
    pairs = [line.split(":")[0] for line in lines]
    assert pairs == ["g=0 k=3", "g=1 k=1", "g=0 k=4", "g=1 k=2",
                     "g=0 k=5", "g=1 k=3", "g=2 k=1"]


def test_airy_table_rejects_a_bound_beyond_the_recursion(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "airy_table.py"
    main = runpy.run_path(str(script))["main"]
    beyond = MAX_NEG_EULER + 1
    monkeypatch.setattr(sys, "argv", ["airy_table.py", "--max-euler", str(beyond)])

    def computed(g, k):
        raise AssertionError(f"computed ({g}, {k}) before checking the bound")

    monkeypatch.setitem(main.__globals__, "airy_correlator", computed)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --max-euler {beyond} is beyond the recursion bound "
                   f"2g-2+k <= {MAX_NEG_EULER}\n")
