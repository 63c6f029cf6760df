import pytest

from conftest import BLOCK3_TOTALS, BLOCK4_TOTALS, TABLE_LAST, TABLE_PARTS
from arndt import catalog
from arndt.catalog import (gf_antipalindromic, gf_arndt, gf_distinct_parts,
                           gf_k_arndt, gf_k_arndt_total, gf_k_block,
                           gf_k_block_reference, gf_k_block_total_reference,
                           gf_last_part, gf_reduced_ap, gf_total_last,
                           gf_total_parts)
from arndt.compositions import ANTIPALINDROMIC, REDUCED_AP, Family
from arndt.counting import count_by_last, count_by_parts
from arndt.series import BivariatePolynomial, RationalGF
from arndt.verify import _SAMPLE_K


def test_arndt_series_prefix():
    series = gf_arndt().expand(10)
    assert series.row(5) == {3: 2, 2: 2, 1: 1}
    rows = series.integer_rows()
    for n, want in TABLE_PARTS.items():
        assert rows[n] == want


def test_arndt_totals_are_fibonacci():
    seq = gf_arndt().eval_y1().expand(7).sequence()
    assert seq == [1, 1, 1, 2, 3, 5, 8, 13]


def test_antipalindromic_rows_match_brute_force():
    rows = gf_antipalindromic().expand(12).integer_rows()
    for n in range(13):
        assert rows[n] == count_by_parts(n, ANTIPALINDROMIC)


def test_antipalindromic_doubles_reduced():
    ap = gf_antipalindromic().expand(20).integer_rows()
    reduced = gf_reduced_ap().expand(20).integer_rows()
    for n in range(21):
        for m in set(ap[n]) | set(reduced[n]):
            assert ap[n].get(m, 0) == 2 ** (m // 2) * reduced[n].get(m, 0)


def test_reduced_ap_equals_arndt_and_brute_force():
    a, b = gf_arndt(), gf_reduced_ap()
    assert a.num == b.num and a.den == b.den
    rows = b.expand(12).integer_rows()
    for n in range(13):
        assert rows[n] == count_by_parts(n, REDUCED_AP)
    assert rows[0] == {0: 1}


def test_last_part_rows():
    series = gf_last_part().expand(14)
    assert series.row(6) == {6: 1, 3: 1, 2: 2, 1: 4}
    assert series.row(2) == {2: 1}
    rows = series.integer_rows()
    for n, want in TABLE_LAST.items():
        assert rows[n] == want
    for n in range(15):
        assert rows[n] == count_by_last(n)


def test_totals_series():
    assert gf_total_parts().expand(7).sequence() == [0, 1, 1, 3, 6, 11, 21, 38]
    assert gf_total_last().expand(7).sequence() == [0, 1, 2, 4, 6, 11, 17, 29]


def test_k_arndt_matches_brute_force():
    for k in range(-3, 4):
        rows = gf_k_arndt(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == count_by_parts(n, Family("k-arndt", k)), (k, n)


def test_k_arndt_displayed_rows():
    assert gf_k_arndt(3).expand(7).row(7) == {1: 1, 2: 1, 3: 1}
    assert gf_k_arndt(-3).expand(4).row(4) == {1: 1, 2: 3, 3: 3, 4: 1}
    assert gf_k_arndt(-3).expand(6).row(6) == {1: 1, 2: 4, 3: 9, 4: 10,
                                               5: 5, 6: 1}


def test_k_arndt_zero_is_arndt():
    a = gf_k_arndt(0).expand(30).integer_rows()
    b = gf_arndt().expand(30).integer_rows()
    assert a == b


def test_k_arndt_total_at_10():
    assert gf_k_arndt_total(3).expand(10).sequence()[10] == 10


def test_k_arndt_y1_specialisations():
    for k in range(-5, 6):
        assert gf_k_arndt(k).eval_y1().series_equal(gf_k_arndt_total(k)), k


def test_distinct_parts():
    # j = 0 is the constant series 1
    empty = gf_distinct_parts(0).expand(5)
    assert empty.row(0) == {0: 1}
    assert all(empty.row(n) == {} for n in range(1, 6))
    # j = 1: one partition of every positive weight, a single part
    rows = gf_distinct_parts(1).expand(8).integer_rows()
    assert all(rows[n] == {1: 1} for n in range(1, 9))
    # j = 2: strictly decreasing pairs; weight 5 has (4,1) and (3,2)
    assert gf_distinct_parts(2).expand(5).row(5) == {2: 2}
    with pytest.raises(ValueError):
        gf_distinct_parts(-1)


def test_k_block_matches_brute_force():
    for k in range(1, 5):
        rows = gf_k_block(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == count_by_parts(n, Family("block-arndt", k)), (k, n)
    with pytest.raises(ValueError):
        gf_k_block(0)


def test_k_block_2_equals_arndt():
    assert gf_k_block(2).series_equal(gf_arndt())


def test_k_block_displayed_closed_forms():
    for k in (3, 4):
        assert gf_k_block(k).series_equal(gf_k_block_reference(k))
        assert gf_k_block(k).eval_y1().series_equal(
            gf_k_block_total_reference(k))
    with pytest.raises(ValueError):
        gf_k_block_reference(5)


def test_k_block_total_prefixes():
    assert gf_k_block(3).eval_y1().expand(9).sequence() == BLOCK3_TOTALS
    assert gf_k_block(4).eval_y1().expand(10).sequence() == BLOCK4_TOTALS


def _k_block_by_gf_arithmetic(k):
    """(J_0 + ... + J_{k-1}) / (1 - J_k) assembled with RationalGF arithmetic.

    The cross-multiplied reference gf_k_block is written against; it carries
    far larger polynomials than the construction over the natural denominator.
    """
    one = BivariatePolynomial.one()
    partial = gf_distinct_parts(0)
    for j in range(1, k):
        partial = partial + gf_distinct_parts(j)
    return partial / (RationalGF(one, one) - gf_distinct_parts(k))


def test_k_block_equals_rational_assembly():
    for k in range(1, 10):
        assert gf_k_block(k).series_equal(_k_block_by_gf_arithmetic(k)), k


def test_k_block_natural_denominator():
    for k in range(1, 10):
        degrees = [i for (i, _) in dict(gf_k_block(k).den.terms())]
        assert max(degrees) == k * (k + 1) // 2, k
    assert len(gf_k_block(9).den.terms()) == 33
    for k in (3, 4):
        assert gf_k_block(k).den == gf_k_block_reference(k).den, k


def test_catalog_coefficients_are_ints():
    for name, (constructor, takes_k, _) in catalog.SERIES.items():
        for k in (_SAMPLE_K[constructor] if takes_k else (None,)):
            series = catalog.series_gf(name, k).expand(16)
            coeffs = series.as_polynomial().terms()
            assert coeffs, (name, k)
            assert all(type(v) is int for _, v in coeffs), (name, k)
