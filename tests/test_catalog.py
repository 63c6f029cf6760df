import pytest

from conftest import BLOCK3_TOTALS, BLOCK4_TOTALS, TABLE_LAST, TABLE_PARTS
from arndt import catalog
from arndt.catalog import (gf_antipalindromic, gf_arndt, gf_distinct_parts,
                           gf_k_arndt, gf_k_arndt_total, gf_k_block,
                           gf_k_block_reference, gf_k_block_total_reference,
                           gf_last_part, gf_reduced_ap, gf_total_last,
                           gf_total_parts)
from arndt.compositions import (ANTIPALINDROMIC, ARNDT, FAMILY_KINDS,
                                REDUCED_AP, TAKES_K, Family)
from arndt.counting import tally
from arndt.series import BivariatePolynomial, RationalGF
from arndt.verify import _SAMPLE_K


def test_arndt_series_prefix():
    rows = gf_arndt().expand(10).integer_rows()
    assert rows[5] == {3: 2, 2: 2, 1: 1}
    for n, want in TABLE_PARTS.items():
        assert rows[n] == want


def test_arndt_totals_are_fibonacci():
    seq = gf_arndt().eval_y1().expand(7).sequence()
    assert seq == [1, 1, 1, 2, 3, 5, 8, 13]


def test_antipalindromic_rows_match_brute_force():
    rows = gf_antipalindromic().expand(12).integer_rows()
    for n in range(13):
        assert rows[n] == tally(n, ANTIPALINDROMIC, "parts")


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
        assert rows[n] == tally(n, REDUCED_AP, "parts")
    assert rows[0] == {0: 1}


def test_last_part_rows():
    rows = gf_last_part().expand(14).integer_rows()
    assert rows[6] == {6: 1, 3: 1, 2: 2, 1: 4}
    assert rows[2] == {2: 1}
    for n, want in TABLE_LAST.items():
        assert rows[n] == want
    for n in range(15):
        assert rows[n] == tally(n, ARNDT, "last")


def test_totals_series():
    assert gf_total_parts().expand(7).sequence() == [0, 1, 1, 3, 6, 11, 21, 38]
    assert gf_total_last().expand(7).sequence() == [0, 1, 2, 4, 6, 11, 17, 29]


def test_k_arndt_matches_brute_force():
    for k in range(-3, 4):
        rows = gf_k_arndt(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == tally(n, Family("k-arndt", k), "parts"), (k, n)


def test_k_arndt_displayed_rows():
    assert gf_k_arndt(3).expand(7).integer_rows()[7] == {1: 1, 2: 1, 3: 1}
    rows = gf_k_arndt(-3).expand(6).integer_rows()
    assert rows[4] == {1: 1, 2: 3, 3: 3, 4: 1}
    assert rows[6] == {1: 1, 2: 4, 3: 9, 4: 10, 5: 5, 6: 1}


def _terms(*terms):
    return BivariatePolynomial.from_terms(terms)


# The literal forms the pair constructors were written in before they shared
# one kernel constructor, kept as the reference they must equal term by term.
PAIR_NUM = _terms((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                  (1, 1, 1), (3, 1, -1))
PAIR_DEN = ((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1))


def literal_k_arndt(k):
    num = _terms((0, 0, 1), (2, 0, -1)) * _terms((0, 0, 1), (1, 0, -1),
                                                 (1, 1, 1))
    if k >= 0:
        return num, _terms(*PAIR_DEN, (3 + k, 2, -1))
    return num, _terms(*PAIR_DEN, (2, 2, -1), (3, 2, -1), (2 - k, 2, 1))


@pytest.mark.parametrize("make, num, den", [
    pytest.param(gf_arndt, PAIR_NUM, _terms(*PAIR_DEN, (3, 2, -1)),
                 id="arndt"),
    pytest.param(gf_reduced_ap, PAIR_NUM, _terms(*PAIR_DEN, (3, 2, -1)),
                 id="reduced-ap"),
    pytest.param(gf_antipalindromic, PAIR_NUM, _terms(*PAIR_DEN, (3, 2, -2)),
                 id="antipalindromic"),
    *(pytest.param(lambda k=k: gf_k_arndt(k), *literal_k_arndt(k),
                   id=f"k-arndt-{k}") for k in range(-12, 13))])
def test_pair_constructors_equal_their_literal_forms(make, num, den):
    gf = make()
    assert gf.num == num
    assert gf.den == den


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
    empty = gf_distinct_parts(0).expand(5).integer_rows()
    assert empty == {0: {0: 1}, 1: {}, 2: {}, 3: {}, 4: {}, 5: {}}
    # j = 1: one partition of every positive weight, a single part
    rows = gf_distinct_parts(1).expand(8).integer_rows()
    assert all(rows[n] == {1: 1} for n in range(1, 9))
    # j = 2: strictly decreasing pairs; weight 5 has (4,1) and (3,2)
    assert gf_distinct_parts(2).expand(5).integer_rows()[5] == {2: 2}
    with pytest.raises(ValueError):
        gf_distinct_parts(-1)


def test_k_block_matches_brute_force():
    for k in range(1, 5):
        rows = gf_k_block(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == tally(n, Family("block-arndt", k), "parts"), \
                (k, n)
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
    one = BivariatePolynomial({(0, 0): 1})
    partial = gf_distinct_parts(0)
    for j in range(1, k):
        partial = partial + gf_distinct_parts(j)
    return partial / (RationalGF(one, one) - gf_distinct_parts(k))


def _k_block_from_distinct_parts(k):
    """gf_k_block assembled from the series J_j = gf_distinct_parts(j): each
    J_j.num for j < k times prod_{j<l<=k} (1 - x^l), over J_k.den - J_k.num.
    The construction that builds D_k = J_k.den once is gated against it."""
    full = gf_distinct_parts(k)
    num, tail = BivariatePolynomial(), BivariatePolynomial({(0, 0): 1})
    for j in reversed(range(k)):
        tail = tail * BivariatePolynomial({(0, 0): 1, (j + 1, 0): -1})
        num = num + gf_distinct_parts(j).num * tail
    return RationalGF(num, full.den - full.num)


def test_k_block_equals_the_distinct_parts_assembly():
    for k in range(1, 13):
        gf, want = gf_k_block(k), _k_block_from_distinct_parts(k)
        assert gf.num == want.num, k
        assert gf.den == want.den, k


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
    for name in catalog.SERIES:
        for k in _SAMPLE_K.get(name, (None,)):
            series = catalog.series_gf(name, k).expand(16)
            coeffs = series.as_polynomial().terms()
            assert coeffs, (name, k)
            assert all(type(v) is int for _, v in coeffs), (name, k)


@pytest.mark.parametrize("name", list(catalog.SERIES))
def test_series_gf_takes_k_exactly_when_the_entry_does(name):
    if name in TAKES_K:
        for k in (None, 1.5, "2", True):
            with pytest.raises(ValueError,
                               match=f"^series '{name}' needs an integer k$"):
                catalog.series_gf(name, k)
    else:
        with pytest.raises(ValueError,
                           match=f"^series '{name}' takes no parameter k$"):
            catalog.series_gf(name, 3)


@pytest.mark.parametrize("constructor, name", [
    (gf_k_arndt, "k-arndt"), (gf_k_arndt_total, "k-arndt"),
    (gf_k_block, "block-arndt"), (gf_distinct_parts, "distinct-parts")])
def test_constructors_taking_k_apply_the_k_rule(constructor, name):
    # A float k once built the term (4.5, 2) and failed in expand with a
    # TypeError; now each constructor refuses it as series_gf does.
    for k in (1.5, 2.0, "2", True, None):
        with pytest.raises(ValueError,
                           match=f"^series '{name}' needs an integer k$"):
            constructor(k)


@pytest.mark.parametrize("name, least", [("block-arndt", 1),
                                         ("distinct-parts", 0)])
def test_the_lower_bound_of_k_has_one_message(name, least):
    constructor = getattr(catalog, catalog.SERIES[name][0])
    for make in (constructor, lambda k: catalog.series_gf(name, k)):
        with pytest.raises(ValueError,
                           match=f"^series '{name}' needs k >= {least}$"):
            make(least - 1)
    assert catalog.series_gf(name, least).expand(3).integer_rows()


def test_statistic_series_refuses_an_unknown_statistic():
    with pytest.raises(ValueError, match="^unknown statistic 'sum'$"):
        catalog.statistic_series(REDUCED_AP, "sum")


def test_every_name_that_takes_k_is_a_family_kind_or_a_series():
    assert set(TAKES_K) <= set(FAMILY_KINDS) | set(catalog.SERIES)


def test_verify_samples_k_for_exactly_the_series_that_take_it():
    assert set(_SAMPLE_K) == set(catalog.SERIES) & set(TAKES_K)
