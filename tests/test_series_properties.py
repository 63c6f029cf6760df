"""Property tests of RationalGF.expand: den * expand(num / den) == num, and
the expansion equals the sparse reference it replaced."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from arndt.series import BivariatePolynomial, RationalGF
from sparse_expand import rows_of, sparse_expand

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
    if f.den.constant() == 1:
        assert all(type(v) is int for _, v in series.as_polynomial().terms())
    want = sparse_expand(f, order)
    assert series.as_polynomial() == BivariatePolynomial(want)
    assert {n: series.row(n) for n in range(order + 1)} == rows_of(want, order)
