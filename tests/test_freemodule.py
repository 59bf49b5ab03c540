"""Module axioms for exact-rational linear combinations, property-based."""

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, strategies as st

from lrq.freemodule import LinComb, bilinear_extend, sort_key, sum_text
from lrq.hopfops import star_h, star_h_sum
from lrq.loopgraphs import enumerate_graphs
from lrq.permutations import Permutation
from lrq.subalgebras import enumerate_words
from oracles import nested_sort_key, support, tensor

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


permutations = st.permutations(range(1, 5)).flatmap(
    lambda w: st.integers(0, 4).map(lambda n: Permutation(tuple(x for x in w if x <= n))))
words = st.sampled_from([w for n in range(6) for j in range(3) for w in enumerate_words(n, j)])
tensors = st.lists(graphs, min_size=2, max_size=3).map(tuple)


@given(st.one_of(*(st.lists(st.tuples(basis, fractions), max_size=8).map(LinComb)
                   for basis in (graphs, permutations, words, tensors,
                                 st.one_of(graphs, tensors)))))
def test_terms_sort_by_the_canonical_key(x):
    assert x.terms() == sorted(x.items(), key=lambda kv: sort_key(kv[0]))


def atoms_and_tensors(atoms):
    """Atoms of one kind mixed with 2- and 3-tensors of them."""
    return st.one_of(atoms, st.lists(atoms, min_size=2, max_size=3).map(tuple))


@given(st.one_of(*(st.lists(st.tuples(atoms_and_tensors(atoms), fractions), max_size=10)
                   .map(LinComb) for atoms in (graphs, permutations, words))))
def test_flat_tensor_key_orders_as_the_nested_key(x):
    # A tensor's key holds its factors' own keys; the nested key wraps each
    # one as (1, key), and that constant never decides a comparison.
    want = sorted(x.items(), key=lambda kv: nested_sort_key(kv[0]))
    assert x.terms() == want
    assert support(x) == [b for b, _ in want]


@given(st.lists(graphs, unique=True))
def test_sum_of_distinct_elements_is_the_accumulated_sum(basis):
    x = LinComb.sum_of(basis)
    assert x == LinComb((b, 1) for b in basis)
    assert str(x) == str(LinComb((b, 1) for b in basis))


# Shared coefficient objects, as a genfun cell passes one Fraction for all
# of its words, next to fresh equal ones.
SHARED = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), 1, -1, 2]
coefficients = st.one_of(st.sampled_from(SHARED), fractions.filter(bool))


@given(st.lists(st.tuples(graphs, coefficients), max_size=8))
def test_sum_text_formats_each_term_by_its_coefficient(terms):
    def term_text(k, b, c):
        mag = abs(c)
        body = str(b) if mag == 1 else f"{mag}*{b}"
        if k == 0:
            return body if c > 0 else "-" + body
        return (" + " if c > 0 else " - ") + body

    want = [term_text(k, b, c) for k, (b, c) in enumerate(terms)] or ["0"]
    assert list(sum_text(terms)) == want


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
