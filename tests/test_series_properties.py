"""Property tests of RationalGF.expand on GFs drawn inside its contract
(int coefficients, a denominator whose x^0 part is 1): den * expand(num /
den) == num, the expansion is of ints and equals the sparse reference it
replaced, a product expands to the product of the two expansions, and a
denominator with (1 - x^l) factors streams the rows of the engine that
applied every term of the expanded denominator."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from arndt.series import BivariatePolynomial, RationalGF
from sparse_expand import sparse_expand
from unpeeled_rows import unpeeled_rows

# Exponents (i, j) with j <= i: every series term then has y-degree at most
# its x-degree, so truncating in x alone keeps the product exact.
_exponents = st.integers(0, 3).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(0, i)))
_coeffs = st.integers(-3, 3)


@st.composite
def small_gfs(draw):
    num = draw(st.dictionaries(_exponents, _coeffs, max_size=6))
    den = draw(st.dictionaries(_exponents.filter(lambda e: e != (0, 0)),
                               _coeffs, max_size=5))
    den[(0, 0)] = 1
    return RationalGF(BivariatePolynomial(num), BivariatePolynomial(den))


@settings(max_examples=60, deadline=None)
@given(small_gfs(), st.integers(0, 8))
def test_den_times_expansion_is_num(f, order):
    series = f.expand(order)
    product = f.den * series.as_polynomial()
    assert product.truncate_x(order) == f.num.truncate_x(order)
    assert all(type(v) is int for row in series.rows for v in row)
    want = sparse_expand(f, order)
    assert series.as_polynomial() == BivariatePolynomial(want)


_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))
# small ints, and now and then one of many digits
_ints = st.one_of(_coeffs, st.integers(-10 ** 30, 10 ** 30))


@st.composite
def contract_gfs(draw):
    """Any exponents up to 3 in the numerator; every denominator term but
    its constant 1 has x-degree 1 to 3 and any y-degree up to 3."""
    num = draw(st.dictionaries(_pairs, _ints, max_size=6))
    den = draw(st.dictionaries(_pairs.filter(lambda e: e[0]), _ints,
                               max_size=5))
    den[(0, 0)] = 1
    return RationalGF(BivariatePolynomial(num), BivariatePolynomial(den))


@settings(max_examples=150, deadline=None)
@given(contract_gfs(), st.integers(0, 8))
def test_contract_gfs_expand_to_ints_as_the_sparse_reference(f, order):
    series = f.expand(order)
    assert all(type(v) is int for row in series.rows for v in row)
    want = sparse_expand(f, order)
    assert series.as_polynomial() == BivariatePolynomial(want)


@settings(max_examples=60, deadline=None)
@given(small_gfs(), small_gfs(), st.integers(0, 8))
def test_product_expands_to_the_product_of_the_expansions(f, g, order):
    want = f.expand(order).as_polynomial() * g.expand(order).as_polynomial()
    assert (f * g).expand(order).as_polynomial() == want.truncate_x(order)


@st.composite
def factored_gfs(draw):
    """den = prod (1 - x^l) * r + y-terms, l <= 6, r a random polynomial
    in x with constant term 1, each y-term of x-degree 1 to 4."""
    factors = draw(st.lists(st.integers(1, 6), max_size=4))
    r = draw(st.dictionaries(st.integers(1, 3), _coeffs, max_size=3))
    y_terms = draw(st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), _coeffs,
        max_size=3))
    den = BivariatePolynomial({(0, 0): 1, **{(i, 0): v for i, v in r.items()}})
    for l in factors:
        den = den * BivariatePolynomial({(0, 0): 1, (l, 0): -1})
    den = den + BivariatePolynomial(y_terms)
    num = draw(st.dictionaries(_pairs, _coeffs, min_size=1, max_size=4))
    return RationalGF(BivariatePolynomial(num), den)


# (1 - x)(1 + x + 5x^3) has no x term: a stage of 1 - x would fill row 1,
# which no term of the expanded denominator reaches.
@settings(max_examples=200, deadline=None)
@given(factored_gfs(), st.integers(0, 14))
@example(RationalGF(BivariatePolynomial({(0, 1): 1}), BivariatePolynomial(
    {(0, 0): 1, (2, 0): -1, (3, 0): 5, (4, 0): -5})), 4)
def test_factored_dens_stream_the_unpeeled_rows(f, order):
    assert [list(row) for row in f.iter_rows(order)] == \
        list(unpeeled_rows(f, order))
    want = sparse_expand(f, order)
    assert f.expand(order).as_polynomial() == BivariatePolynomial(want)
