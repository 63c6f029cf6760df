import math
from fractions import Fraction

import pytest

from arndt.asymptotics import (EXPECTED_LAST_LIMIT, EXPECTED_PARTS_SLOPE,
                               GOLDEN_RATIO, PoleSpec, dominant_asymptotic,
                               expected_last, expected_parts,
                               last_count_asymptotic, parts_count_asymptotic)
from arndt.catalog import gf_total_parts
from arndt.formulas import (fibonacci, last_count, total_parts_closed)
from arndt.series import BivariatePolynomial, RationalGF


def poly(*terms):
    return BivariatePolynomial.from_terms(terms)


FIB_GF = RationalGF(poly((1, 0, 1)),
                    poly((0, 0, 1), (1, 0, -1), (2, 0, -1)))


def test_fibonacci_gf_constant():
    pole = PoleSpec(GOLDEN_RATIO)
    est = dominant_asymptotic(FIB_GF, pole, 40)
    assert est / GOLDEN_RATIO ** 40 == pytest.approx(1 / math.sqrt(5), rel=1e-9)
    for n in range(30, 101, 10):
        assert dominant_asymptotic(FIB_GF, pole, n) == pytest.approx(
            fibonacci(n), rel=0.005)


def test_total_parts_gf_constant():
    pole = PoleSpec(GOLDEN_RATIO, multiplicity=2)
    est = dominant_asymptotic(gf_total_parts(), pole, 100)
    constant = est / (GOLDEN_RATIO ** 100 * 100)
    assert constant == pytest.approx((3 - math.sqrt(5)) / 5, rel=1e-9)
    # the error of the leading term decays like O(1/n)
    assert dominant_asymptotic(gf_total_parts(), pole, 200) == pytest.approx(
        total_parts_closed(200), rel=0.01)


def test_constant_series():
    one_over_1mx = RationalGF(poly((0, 0, 1)), poly((0, 0, 1), (1, 0, -1)))
    for n in (1, 5, 50):
        assert dominant_asymptotic(one_over_1mx, PoleSpec(1.0), n) == \
            pytest.approx(1.0)


def test_invalid_poles():
    with pytest.raises(ValueError):
        dominant_asymptotic(FIB_GF, PoleSpec(2.0), 10)      # 1/2 is no root
    with pytest.raises(ValueError):
        dominant_asymptotic(FIB_GF, PoleSpec(GOLDEN_RATIO, 2), 10)
    with pytest.raises(ValueError, match="growth base must be positive"):
        PoleSpec(-1.0)
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
        PoleSpec(1.0, 0)


def test_a_pole_is_an_immutable_record():
    pole = PoleSpec(2.0)
    assert repr(pole) == "PoleSpec(beta=2.0, multiplicity=1)"
    assert pole == PoleSpec(2.0, multiplicity=1) != PoleSpec(2.0, 2)
    with pytest.raises(AttributeError):
        pole.beta = 3.0


def test_dominant_asymptotic_rejects_bivariate():
    bi = RationalGF(poly((1, 1, 1)), poly((0, 0, 1), (1, 0, -1)))
    with pytest.raises(ValueError):
        dominant_asymptotic(bi, PoleSpec(1.0), 5)


def test_parts_count_asymptotic():
    assert parts_count_asymptotic(7, 1) == 1.0
    assert parts_count_asymptotic(600, 3) == 600 ** 2 / 4
    with pytest.raises(ValueError):
        parts_count_asymptotic(10, 0)


def test_last_count_asymptotic_edges():
    assert last_count_asymptotic(6, 3) > 0      # n = 2m boundary accepted
    with pytest.raises(ValueError):
        last_count_asymptotic(5, 3)
    with pytest.raises(ValueError):
        last_count_asymptotic(10, 0)


def test_last_count_asymptotic_accuracy():
    for m in (1, 2, 3):
        assert last_count(60, m) == pytest.approx(
            last_count_asymptotic(60, m), rel=1e-3)


def test_expected_values_exact():
    assert expected_last(1) == 1
    assert expected_parts(1) == 1
    assert expected_parts(6) == Fraction(21, 8)
    assert expected_last(6) == Fraction(17, 8)
    with pytest.raises(ValueError):
        expected_parts(0)


def test_expected_values_limits():
    assert float(expected_parts(200)) / 200 == pytest.approx(
        EXPECTED_PARTS_SLOPE, rel=0.01)
    assert float(expected_last(60)) == pytest.approx(
        EXPECTED_LAST_LIMIT, rel=1e-3)
    devs = [abs(float(expected_last(n)) - EXPECTED_LAST_LIMIT)
            for n in (20, 40, 60)]
    assert devs[0] >= devs[1] >= devs[2]
