from fractions import Fraction

import pytest

from arndt.catalog import (gf_arndt, gf_compositions, gf_distinct_parts,
                           gf_last_part, gf_total_last, gf_total_parts)
from arndt.compositions import ALL_COMPOSITIONS
from arndt.counting import count_by_parts
from arndt.series import BivariatePolynomial, RationalGF


def poly(*terms):
    return BivariatePolynomial.from_terms(terms)


ONE = poly((0, 0, 1))
X = poly((1, 0, 1))
Y = poly((0, 1, 1))


def test_poly_arithmetic():
    one_minus_x = ONE - X
    one_plus_x = ONE + X
    assert one_minus_x * one_plus_x == poly((0, 0, 1), (2, 0, -1))
    # (1-x)^2 (1+x) = 1 - x - x^2 + x^3
    assert (one_minus_x * one_minus_x * one_plus_x
            == poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1)))
    assert (X * Y).coefficient(1, 1) == 1
    assert poly((0, 0, 1), (0, 0, -1)) == BivariatePolynomial.zero()


def test_poly_from_terms_sums_collisions():
    assert poly((3, 2, -1), (3, 2, 1)) == BivariatePolynomial.zero()
    assert poly((1, 0, 2), (1, 0, 3)) == poly((1, 0, 5))


def test_poly_scale_and_diff():
    p = poly((1, 2, 3), (2, 0, 1))
    third = poly((0, 0, Fraction(1, 3)))
    assert p * third == poly((1, 2, 1), (2, 0, Fraction(1, 3)))
    assert p.diff_y() == poly((1, 1, 6))
    assert p.diff_x() == poly((0, 2, 3), (1, 0, 2))
    assert p.subst_y1() == poly((1, 0, 3), (2, 0, 1))


def test_poly_eval_requires_univariate():
    assert poly((2, 0, 1), (0, 0, -1)).eval_x(3) == 8
    with pytest.raises(ValueError):
        (X * Y).eval_x(2.0)


def test_rational_add_identity():
    f = RationalGF(X, ONE - X)
    zero = RationalGF(BivariatePolynomial.zero(), ONE)
    assert (f + zero).series_equal(f)


def test_rational_add_distinct_parts():
    # J_0 + J_1 = 1 + xy/(1-x) = (1 - x + xy)/(1 - x)
    total = gf_distinct_parts(0) + gf_distinct_parts(1)
    want = RationalGF(poly((0, 0, 1), (1, 0, -1), (1, 1, 1)), ONE - X)
    assert total.series_equal(want)


def test_rational_div_builds_composition_series():
    # 1/(1 - J_1) * J_0 is the series of all compositions, (1-x)/(1-x-xy).
    one = RationalGF(ONE, ONE)
    geom = one / (one - gf_distinct_parts(1))
    assert geom.series_equal(gf_compositions())
    rows = geom.expand(10).integer_rows()
    for n in range(11):
        assert rows[n] == count_by_parts(n, ALL_COMPOSITIONS)


def test_denominator_constant_must_be_nonzero():
    with pytest.raises(ValueError):
        RationalGF(ONE, X)
    # dividing by a series with zero constant term clears to the same error
    f = RationalGF(ONE, ONE - X)
    with pytest.raises(ValueError):
        f / RationalGF(X, ONE)


def test_expand_arndt_rows():
    series = gf_arndt().expand(6)
    assert series.row(6) == {4: 1, 3: 4, 2: 2, 1: 1}
    assert gf_arndt().expand(0).row(0) == {0: 1}


def test_expand_last_part_row():
    assert gf_last_part().expand(5).row(5) == {5: 1, 2: 2, 1: 2}


def test_expand_rejects_negative_order():
    with pytest.raises(ValueError):
        gf_arndt().expand(-1)


def test_integer_rows_validation():
    f = RationalGF(ONE, poly((0, 0, 2)))    # constant 1/2
    with pytest.raises(ValueError):
        f.expand(2).integer_rows()
    g = RationalGF(-X, ONE)
    with pytest.raises(ValueError):
        g.expand(2).integer_rows()
    assert g.expand(2).integer_rows(require_nonnegative=False)[1] == {0: -1}


def test_sequence_rejects_bivariate():
    with pytest.raises(ValueError):
        gf_arndt().expand(3).sequence()
    assert gf_total_parts().expand(7).sequence() == [0, 1, 1, 3, 6, 11, 21, 38]


def test_diff_y_at_1():
    # d/dy A at y=1 equals the displayed x(1 - x + x^3 - x^4)/(1 - x - x^2)^2
    got = gf_arndt().diff_y_at_1()
    assert got.series_equal(gf_total_parts())
    assert got.num.degree_y() == 0 and got.den.degree_y() == 0
    got = gf_last_part().diff_y_at_1()
    assert got.series_equal(gf_total_last())
    # a y-free series has zero derivative
    flat = RationalGF(ONE, ONE - X)
    assert flat.diff_y_at_1().num == BivariatePolynomial.zero()


def test_eval_y1():
    specialised = gf_arndt().eval_y1()
    # (1 - x^2)/(1 - x - x^2): Fibonacci from n = 1 on
    want = RationalGF(poly((0, 0, 1), (2, 0, -1)),
                      poly((0, 0, 1), (1, 0, -1), (2, 0, -1)))
    assert specialised.series_equal(want)
    flat = RationalGF(ONE, ONE - X)
    assert flat.eval_y1().series_equal(flat)


def test_round_trip_identity():
    for gf in (gf_arndt(), gf_last_part(), gf_total_parts()):
        expansion = gf.expand(24).as_polynomial()
        assert (gf.den * expansion).truncate_x(24) == gf.num.truncate_x(24)
