"""Module axioms for exact-rational linear combinations, property-based."""

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, strategies as st

from lrq.freemodule import LinComb, bilinear_extend
from lrq.hopfops import star_h, star_h_sum
from lrq.loopgraphs import enumerate_graphs
from oracles import tensor

POOL = [
    g for n in range(4) for gg in range(n + 1) for g in enumerate_graphs(n, gg)
]

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
graphs = st.sampled_from(POOL)
sums = st.lists(st.tuples(graphs, fractions), max_size=5).map(LinComb)


@given(sums, sums, sums)
def test_add_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(sums)
def test_add_neutral_and_inverse(x):
    zero = LinComb()
    assert x + zero == x
    assert x + (-1) * x == zero
    assert (x - x).is_zero()


@given(fractions, fractions, sums, sums)
def test_scale_axioms(c, d, x, y):
    assert c * (x + y) == c * x + c * y
    assert (c + d) * x == c * x + d * x
    assert c * (d * x) == (c * d) * x
    assert 1 * x == x
    assert (0 * x).is_zero()


@given(sums)
def test_no_zero_coefficients_stored(x):
    for _, c in x.items():
        assert c != 0
    assert all(x.coeff(b) == c for b, c in x.items())


@given(sums)
def test_terms_are_canonically_sorted(x):
    keys = [b.sort_key() for b, _ in x.terms()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(st.lists(graphs, unique=True))
def test_sum_of_distinct_elements_is_the_accumulated_sum(basis):
    x = LinComb.sum_of(basis)
    assert x == LinComb((b, 1) for b in basis)
    assert str(x) == str(LinComb((b, 1) for b in basis))


def test_accumulation_normalizes():
    a, b = POOL[1], POOL[2]
    x = LinComb([(a, 1), (b, 1), (b, 1)])
    assert x.coeff(b) == 2
    assert Fraction(1, 2) * LinComb.basis(a, 2) == LinComb.basis(a)


@given(sums, sums, sums)
def test_tensor_bilinear(x, y, z):
    assert tensor(x + y, z) == tensor(x, z) + tensor(y, z)
    assert tensor(x, y + z) == tensor(x, y) + tensor(x, z)
    assert tensor(LinComb(), x).is_zero()


def test_tensor_basis_case():
    a, b = POOL[0], POOL[1]
    assert tensor(LinComb.basis(a), LinComb.basis(b)) == LinComb.basis((a, b))


@given(sums, sums, sums)
def test_bilinear_extension_of_star(x, y, z):
    ext = bilinear_extend(star_h)
    assert ext(x, y + z) == ext(x, y) + ext(x, z)
    assert ext(x + y, z) == ext(x, z) + ext(y, z)
    assert ext(x, y) == star_h_sum(x, y)


@given(fractions, sums, sums)
def test_bilinear_scalar_pullout(c, x, y):
    ext = bilinear_extend(star_h)
    assert ext(c * x, y) == c * ext(x, y)
    assert ext(x, c * y) == c * ext(x, y)


def test_bilinear_extension_matches_basis_op():
    ext = bilinear_extend(star_h)
    a, b = POOL[1], POOL[2]
    assert ext(LinComb.basis(a), LinComb.basis(b)) == star_h(a, b)


def test_coefficients_keep_their_exact_type():
    a = POOL[1]
    three = LinComb.basis(a, 3)
    assert type(three.coeff(a)) is int
    assert type((three + three).coeff(a)) is int
    assert type((2 * three).coeff(a)) is int
    assert type(LinComb.basis(a, Fraction(1, 3)).coeff(a)) is Fraction
    half = LinComb.basis(a, 0.5).coeff(a)
    assert type(half) is Fraction and half == Fraction(1, 2)
    two, also_two = LinComb.basis(a, Fraction(4, 2)), LinComb.basis(a, 2)
    assert two == also_two
    assert hash(two) == hash(also_two)
    assert str(two) == str(also_two)


def test_outside_coefficients_are_made_exact_before_they_are_added():
    # Summed as floats first, 1e16 + 1.0 - 1e16 would be 0.
    a = POOL[1]
    assert LinComb([(a, 1e16), (a, 1.0), (a, -1e16)]).coeff(a) == 1
    tenth = LinComb.basis(a, Decimal("0.1")).coeff(a)
    assert type(tenth) is Fraction and tenth == Fraction(1, 10)


def test_accumulated_sums_stay_exact():
    # map_basis and the bilinear extension add the exact coefficients of
    # their LinCombs in one dict: 1e16 and 1.0 merged on one basis element
    # keep the 1, which a float sum would lose.
    a, b, c = POOL[1], POOL[2], POOL[3]
    x = LinComb([(a, 1e16), (b, 1.0)])
    assert x.map_basis(lambda _: c).coeff(c) == 10**16 + 1
    unit = LinComb.basis(POOL[0])
    assert star_h_sum(x, unit) == x
    assert star_h_sum(x - LinComb.basis(a, 1e16), unit) == LinComb.basis(b)


def test_of_dict_drops_zero_coefficients():
    a, b = POOL[1], POOL[2]
    x = LinComb.of_dict({a: 0, b: Fraction(1, 2)})
    assert x == LinComb.basis(b, Fraction(1, 2))
    assert list(x.items()) == [(b, Fraction(1, 2))]
