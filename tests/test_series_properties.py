"""Property tests of RationalGF.expand: den * expand(num / den) == num, the
expansion equals the sparse reference it replaced, for any exact
coefficients too, a product expands to the product of the two expansions,
and a denominator with (1 - x^l) factors streams the rows of the engine that
applied every term of the expanded denominator."""

from fractions import Fraction

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
    # constant term 1 takes the int path of expand; -1, 2 and 3 divide
    den[(0, 0)] = draw(st.sampled_from((1, -1, 2, 3)))
    return RationalGF(BivariatePolynomial(num), BivariatePolynomial(den))


@settings(max_examples=60, deadline=None)
@given(small_gfs(), st.integers(0, 8))
def test_den_times_expansion_is_num(f, order):
    series = f.expand(order)
    product = f.den * series.as_polynomial()
    assert product.truncate_x(order) == f.num.truncate_x(order)
    if f.den.coefficient(0, 0) == 1:
        assert all(type(v) is int for _, v in series.as_polynomial().terms())
    want = sparse_expand(f, order)
    assert series.as_polynomial() == BivariatePolynomial(want)


_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))
# ints, integral Fractions and Fractions that are not integers
_exact = st.one_of(_coeffs, _coeffs.map(Fraction),
                   st.builds(Fraction, _coeffs, st.sampled_from((2, 3, 4))))


@st.composite
def exact_gfs(draw):
    """Any exponents up to 3; the denominator has terms x^0 y^j, j > 0,
    only when `same_row` is drawn, and a constant term that is not 1 in
    most draws."""
    same_row = draw(st.booleans())
    num = draw(st.dictionaries(_pairs, _exact, max_size=6))
    den = draw(st.dictionaries(
        _pairs.filter(lambda e: e[0] or (same_row and e[1])), _exact,
        max_size=5))
    den[(0, 0)] = draw(st.sampled_from((1, -1, 2, -2, 3, -3, 6, 9)))
    return RationalGF(BivariatePolynomial(num), BivariatePolynomial(den))


@settings(max_examples=150, deadline=None)
@given(exact_gfs(), st.integers(0, 8))
def test_any_exact_input_expands_as_the_sparse_reference(f, order):
    series = f.expand(order)
    want = sparse_expand(f, order)
    assert series.as_polynomial() == BivariatePolynomial(want)


@settings(max_examples=60, deadline=None)
@given(small_gfs(), small_gfs(), st.integers(0, 8))
def test_product_expands_to_the_product_of_the_expansions(f, g, order):
    want = f.expand(order).as_polynomial() * g.expand(order).as_polynomial()
    assert (f * g).expand(order).as_polynomial() == want.truncate_x(order)


@st.composite
def factored_gfs(draw):
    """den = c * prod (1 - x^l) * r + y-terms, l <= 6, r a random polynomial
    in x with constant term 1; the y-terms include x^0 y^j ones when
    `least_i` is 0.  Coefficients are ints, or in some draws any exact
    value."""
    coeffs = draw(st.sampled_from((_coeffs, _coeffs, _exact)))
    factors = draw(st.lists(st.integers(1, 6), max_size=4))
    r = draw(st.dictionaries(st.integers(1, 3), coeffs, max_size=3))
    least_i = draw(st.sampled_from((0, 1)))
    y_terms = draw(st.dictionaries(
        st.tuples(st.integers(least_i, 4), st.integers(1, 3)), coeffs,
        max_size=3))
    constant = draw(st.sampled_from((1, 1, 1, -1, 2, 3)))
    den = BivariatePolynomial({(0, 0): constant, **{
        (i, 0): constant * v for i, v in r.items()}})
    for l in factors:
        den = den * BivariatePolynomial({(0, 0): 1, (l, 0): -1})
    den = den + BivariatePolynomial(y_terms)
    num = draw(st.dictionaries(_pairs, coeffs, min_size=1, max_size=4))
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
