"""Permutation algebra: star product against its shuffle definition, unique
splits, coproduct."""

from itertools import permutations as iter_perms
from math import comb

import pytest

from lrq.freemodule import LinComb
from lrq.hopfops import delta_h, star_h
from lrq.permutations import Permutation, coproduct_perm, split, star_perm
from lrq.trees import enumerate_trees, perm_to_tree
from oracles import (
    all_permutations,
    compose,
    identity,
    shuffles,
    star_perm_by_shuffles,
    times,
)


def P(*word):
    return Permutation(word)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_permutation_prints_letter_by_letter():
    for n in range(8):
        for sigma in all_permutations(n):
            assert str(sigma) == "[" + ",".join(str(x) for x in sigma.word) + "]"


def test_shuffles_type_1_2():
    assert [p.word for p in shuffles(1, 2)] == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]


def test_shuffles_degenerate():
    assert shuffles(0, 3) == [identity(3)]
    assert shuffles(3, 0) == [identity(3)]


def test_shuffles_2_2_against_filter_oracle():
    # Independent route: filter all of S_4 by the two ascent conditions.
    expected = {
        w
        for w in iter_perms(range(1, 5))
        if w[0] < w[1] and w[2] < w[3]
    }
    got = {p.word for p in shuffles(2, 2)}
    assert got == expected
    assert len(got) == comb(4, 2)


def test_times_examples():
    assert times(P(1), P(1)) == P(1, 2)
    assert times(P(2, 1), P(1)) == P(2, 1, 3)
    assert times(P(1), P(2, 1)) == P(1, 3, 2)


def test_star_is_the_sum_over_the_shuffles():
    # Every pair with p + q <= 6 against the definition in tests/oracles.py.
    pairs = 0
    for p in range(7):
        for q in range(7 - p):
            for rho in all_permutations(p):
                for sigma in all_permutations(q):
                    assert star_perm(rho, sigma) == star_perm_by_shuffles(rho, sigma)
                    pairs += 1
    assert pairs == 2212


def test_star_generator_squared():
    assert star_perm(P(1), P(1)) == LinComb([(P(1, 2), 1), (P(2, 1), 1)])


def test_star_generator_cubed_matches_fig4():
    got = LinComb()
    for sigma, c in star_perm(P(1), P(1)).items():
        got = got + c * star_perm(sigma, P(1))
    expected = LinComb(
        (P(*w), 1)
        for w in [(1, 2, 3), (3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 3, 1), (2, 1, 3)]
    )
    assert got == expected


def test_star_unit():
    for sigma in all_permutations(3):
        assert star_perm(P(), sigma) == LinComb.basis(sigma)
        assert star_perm(sigma, P()) == LinComb.basis(sigma)


def test_star_support_count():
    for p in range(4):
        for q in range(4 - p):
            for rho in all_permutations(p):
                for sigma in all_permutations(q):
                    assert len(star_perm(rho, sigma)) == comb(p + q, p)


def test_split_examples():
    assert split(P(1, 2), 1) == (P(1), P(1))
    assert _split_by_search(P(1, 2), 1) == [(P(1), P(1), P(1, 2))]
    sigma = P(2, 3, 1)
    assert split(sigma, 0) == (P(), sigma)
    assert split(sigma, 3) == (sigma, P())
    assert _split_by_search(sigma, 0) == [(P(), sigma, identity(3))]
    assert _split_by_search(sigma, 3) == [(sigma, P(), identity(3))]


def test_split_index_out_of_range():
    for i in (-1, 3):
        with pytest.raises(IndexError, match=f"split index {i} out of range 0..2"):
            split(P(2, 1), i)


def test_split_satisfies_defining_identity():
    # sigma . w = sigma_i x sigma' for exactly one shuffle w, for every split
    # point of every small word.
    for n in range(5):
        for sigma in all_permutations(n):
            for i in range(n + 1):
                left, right = split(sigma, i)
                found = [w for w in shuffles(i, n - i)
                         if compose(sigma, w) == times(left, right)]
                assert len(found) == 1


def _split_by_search(sigma, i):
    # Oracle: every (i, n-i)-shuffle w that makes sigma . w a block permutation.
    out = []
    for w in shuffles(i, len(sigma) - i):
        cand = compose(sigma, w).word
        if all(x <= i for x in cand[:i]):
            tail = tuple(x - i for x in cand[i:])
            out.append((Permutation(cand[:i]), Permutation(tail), w))
    return out


def test_split_is_the_unique_shuffle_decomposition():
    # The one shuffle lists the positions of the letters <= i, then the
    # others, each in increasing order.
    for n in range(7):
        for sigma in all_permutations(n):
            for i in range(n + 1):
                low = tuple(p for p, x in enumerate(sigma.word, start=1) if x <= i)
                high = tuple(p for p, x in enumerate(sigma.word, start=1) if x > i)
                w = Permutation(low + high)
                assert _split_by_search(sigma, i) == [(*split(sigma, i), w)]


def test_coproduct_examples():
    assert coproduct_perm(P()) == LinComb.basis((P(), P()))
    assert coproduct_perm(P(1)) == LinComb(
        [((P(), P(1)), 1), ((P(1), P()), 1)]
    )
    assert coproduct_perm(P(1, 2)) == LinComb(
        [
            ((P(), P(1, 2)), 1),
            ((P(1), P(1)), 1),
            ((P(1, 2), P()), 1),
        ]
    )


def _star_sums(x: LinComb, y: LinComb) -> LinComb:
    out = LinComb()
    for a, ca in x.items():
        for b, cb in y.items():
            out = out + (ca * cb) * star_perm(a, b)
    return out


def test_star_associative_up_to_total_5():
    for p in range(4):
        for q in range(4 - p):
            for r in range(6 - p - q):
                if p + q + r > 5:
                    continue
                for rho in all_permutations(p):
                    for sig in all_permutations(q):
                        for tau in all_permutations(r):
                            lhs = _star_sums(star_perm(rho, sig), LinComb.basis(tau))
                            rhs = _star_sums(LinComb.basis(rho), star_perm(sig, tau))
                            assert lhs == rhs


def test_coproduct_coassociative_up_to_4():
    for n in range(5):
        for sigma in all_permutations(n):
            d = coproduct_perm(sigma)
            left = LinComb(
                (((x, y, b), c * e))
                for (a, b), c in d.items()
                for (x, y), e in coproduct_perm(a).items()
            )
            right = LinComb(
                (((a, x, y), c * e))
                for (a, b), c in d.items()
                for (x, y), e in coproduct_perm(b).items()
            )
            assert left == right


def test_coproduct_is_algebra_map_up_to_4():
    def tensor_star(x: LinComb, y: LinComb) -> LinComb:
        out = []
        for (a, b), c in x.items():
            for (d_, e), f in y.items():
                coeff = c * f
                for s1, c1 in star_perm(a, d_).items():
                    for s2, c2 in star_perm(b, e).items():
                        out.append(((s1, s2), coeff * c1 * c2))
        return LinComb(out)

    for p in range(4):
        for q in range(5 - p):
            if p + q > 4:
                continue
            for rho in all_permutations(p):
                for sig in all_permutations(q):
                    lhs = star_perm(rho, sig).map_basis(coproduct_perm)
                    rhs = tensor_star(coproduct_perm(rho), coproduct_perm(sig))
                    assert lhs == rhs


def test_tree_projection_covers_all_trees():
    # The n-fold star power of the generator maps onto all of Y^n.
    for n in range(1, 6):
        power = LinComb.basis(P(1))
        for _ in range(n - 1):
            power = _star_sums(power, LinComb.basis(P(1)))
        images = {perm_to_tree(sigma) for sigma, _ in power.items()}
        assert images == set(enumerate_trees(n))


def class_sums(max_order: int) -> dict:
    """ι(t) = Σ{σ : perm_to_tree(σ) = t} for every tree t of order at most
    max_order, as a dict tree -> list of permutations."""
    classes = {t: [] for n in range(max_order + 1) for t in enumerate_trees(n)}
    for n in range(max_order + 1):
        for sigma in all_permutations(n):
            classes[perm_to_tree(sigma)].append(sigma)
    return classes


def test_class_sums_multiply_as_trees():
    iota = class_sums(6)

    def image(x: LinComb) -> LinComb:
        return LinComb((sigma, c) for t, c in x.items() for sigma in iota[t])

    small = {t: cls for t, cls in iota.items() if t.order <= 3}
    pairs = 0
    for t, left in small.items():
        for u, right in small.items():
            got = LinComb(
                (tau, c)
                for rho in left
                for sigma in right
                for tau, c in star_perm(rho, sigma).items()
            )
            assert got == image(star_h(t, u)), (t, u)
            pairs += 1
    assert pairs == 81


def test_class_sums_comultiply_as_trees():
    iota = class_sums(6)
    assert len(iota) == 197
    for t, cls in iota.items():
        got = LinComb(
            (pair, c) for sigma in cls for pair, c in coproduct_perm(sigma).items()
        )
        want = LinComb(
            ((rho, sigma), c)
            for (a, b), c in delta_h(t).items()
            for rho in iota[a]
            for sigma in iota[b]
        )
        assert got == want, t
