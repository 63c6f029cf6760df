import decimal
from itertools import chain, islice, repeat

import pytest

from conftest import TABLE_LAST, TABLE_PARTS
from dict_rows import dense
from reference_predicates import reference_gen_binomial
from arndt import counting
from arndt.catalog import gf_arndt, gf_last_part
from arndt.compositions import (ARNDT, FAMILY_KINDS, STATISTICS, Family,
                                sparse_row)
from arndt.counting import tally
from arndt.formulas import (bfile_texts, fibonacci,
                            fibonacci_from_alternating_sum,
                            fibonacci_from_positive_sum, gen_binomial,
                            last_count, last_count_at_least,
                            last_count_at_most, last_row, lucas,
                            parts_count_alternating, parts_count_positive,
                            parts_rows_by_recurrence,
                            parts_triangle_by_recurrence, statistic_rows,
                            total_last_closed, total_parts_closed,
                            wz_residual)
from arndt.verify import _SAMPLE_K


def test_fibonacci_and_lucas():
    assert [fibonacci(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert [lucas(n) for n in range(10)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
    assert fibonacci(30) == 832040
    with pytest.raises(ValueError):
        fibonacci(-1)
    with pytest.raises(ValueError):
        lucas(-2)


def test_gen_binomial():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(3, 5) == 0      # falling factorial crosses zero
    assert gen_binomial(5, -1) == 0
    assert gen_binomial(-1, 0) == 1
    assert gen_binomial(-1, 1) == -1
    assert gen_binomial(-1, 2) == 1
    assert gen_binomial(-3, 2) == 6


def test_gen_binomial_equals_the_falling_factorial():
    for p in range(-60, 61):
        for q in range(-3, 61):
            assert gen_binomial(p, q) == reference_gen_binomial(p, q), (p, q)


def test_parts_count_alternating_values():
    assert parts_count_alternating(6, 3) == 4
    assert parts_count_alternating(0, 0) == 1
    assert parts_count_alternating(10, 5) == 16
    # the m = 1 column is the generalised-binomial regression case
    assert all(parts_count_alternating(n, 1) == 1 for n in range(1, 30))
    assert all(parts_count_alternating(n, 0) == 0 for n in range(1, 30))


def test_parts_count_positive_values():
    assert parts_count_positive(9, 5) == 8
    assert parts_count_positive(4, 3) == 1
    assert parts_count_positive(0, 0) == 1
    for n in range(31):
        for m in range(n + 1):
            assert (parts_count_positive(n, m)
                    == parts_count_alternating(n, m)), (n, m)


def test_recurrence_triangle():
    tri = parts_triangle_by_recurrence(10)
    assert tri[10] == {1: 1, 2: 4, 3: 16, 4: 14, 5: 16, 6: 3, 7: 1}
    assert tri[0] == {0: 1}
    for n, want in TABLE_PARTS.items():
        assert tri[n] == want
    for n in range(11):
        for m in range(n + 1):
            assert tri[n].get(m, 0) == parts_count_alternating(n, m)


def reference_recurrence_rows(max_n):
    """(n, row n) of the parts triangle by the recurrence over columns
    2..n, each tested for zero: the loop that parts_rows_by_recurrence ran
    before it stopped at column (2n + 1) // 3."""
    before = ({}, {}, {})
    for n in range(max_n + 1):
        row = {0: 1} if n == 0 else {1: 1}
        back3, back2, back1 = before
        for m in range(2, n + 1):
            v = (back1.get(m, 0) + back2.get(m, 0)
                 - back3.get(m, 0) + back3.get(m - 2, 0))
            if v:
                row[m] = v
        yield n, row
        before = (back2, back1, row)


@pytest.mark.parametrize("max_n", [400, 120])
def test_recurrence_rows_equal_the_full_width_reference(max_n):
    assert (list(parts_rows_by_recurrence(max_n))
            == [(n, dense(row))
                for n, row in reference_recurrence_rows(max_n)])


def test_count_triangle_access():
    assert not hasattr(counting, "CountTriangle")  # formulas owns it
    tri = parts_triangle_by_recurrence(12)
    assert tri == [sparse_row(row) for _, row in parts_rows_by_recurrence(12)]
    assert tri.max_row == 12
    assert tri[2].get(5, 0) == 0        # absent cell inside range is zero
    assert tri.row_sum(12) == fibonacci(12)
    with pytest.raises(LookupError):
        tri[tri.max_row + 1]            # beyond built rows is an error
    # the triangle stores no zero cell, and the producer none past column 0
    assert all(all(row.values()) for row in parts_triangle_by_recurrence(400))
    rows = list(parts_rows_by_recurrence(400))
    assert rows[0] == (0, [1])
    assert all(row[0] == 0 and all(row[1:]) for _, row in rows[1:])


@pytest.mark.parametrize("statistic", list(STATISTICS))
def test_statistic_rows_of_arndt(statistic):
    want = (list(parts_rows_by_recurrence(60)) if statistic == "parts"
            else [(n, last_row(n)) for n in range(61)])
    assert list(statistic_rows(ARNDT, statistic, 60)) == want


@pytest.mark.parametrize("family", [
    Family(kind, k) for kind in FAMILY_KINDS if kind != ARNDT.kind
    for k in _SAMPLE_K.get(kind, (None,))], ids=str)
def test_statistic_rows_only_for_arndt(family):
    for statistic in STATISTICS:
        assert statistic_rows(family, statistic, 60) is None


def test_statistic_rows_refuses_an_unknown_statistic():
    with pytest.raises(ValueError, match="unknown statistic 'sum'"):
        statistic_rows(ARNDT, "sum", 10)


def test_wz_residual():
    tri = parts_triangle_by_recurrence(12)
    # (m-n-2+floor(m/2)) a(7,2) + (m-floor(m/2)) a(6,2) + n a(5,2)
    assert (tri[7].get(2, 0) == 3 and tri[6].get(2, 0) == 2
            and tri[5].get(2, 0) == 2)
    assert wz_residual(5, 2, tri) == 0
    assert wz_residual(0, 1, tri) == 0
    for n in range(11):
        for m in range(n + 3):
            assert wz_residual(n, m, tri) == 0
    with pytest.raises(LookupError):
        wz_residual(11, 0, tri)         # needs rows up to 13


def test_count_triangle_refuses_a_row_before_row_0():
    # A list reads a negative index from its end: row -1 would be row 5.
    tri = parts_triangle_by_recurrence(5)
    for read in (lambda: tri[-1], lambda: tri.row_sum(-1),
                 lambda: wz_residual(-1, 1, tri),
                 lambda: wz_residual(-3, 1, tri)):
        with pytest.raises(LookupError):
            read()
    assert tri.row_sum(0) == 1 and wz_residual(0, 1, tri) == 0


def test_fibonacci_double_sums():
    assert fibonacci_from_alternating_sum(6) == 8
    assert fibonacci_from_positive_sum(6) == 8
    assert fibonacci_from_alternating_sum(1) == 1
    assert fibonacci_from_alternating_sum(30) == 832040
    assert fibonacci_from_positive_sum(30) == 832040


def test_last_count_values():
    assert last_count(10, 1) == 26
    assert last_count(8, 2) == 5
    assert last_count(0, 0) == 1
    for n, want in TABLE_LAST.items():
        got = {m: v for m in range(n + 1) if (v := last_count(n, m))}
        assert got == want


def test_last_count_fibonacci_identity():
    for m in range(1, 9):
        for n in range(2 * m + 2, 41):
            assert last_count(n, m) == fibonacci(n - m - 2) + fibonacci(n - 2 * m - 1)


def test_last_count_matches_series():
    rows = gf_last_part().expand(40).integer_rows()
    for n in range(41):
        got = {m: v for m in range(n + 1) if (v := last_count(n, m))}
        assert got == rows[n]


def test_last_row_equals_its_cells_by_last_count():
    for n in range(601):
        row = last_row(n)
        assert row == [last_count(n, m) for m in range(n + 1)], n
        assert row[-1], n  # the row ends at its last nonzero cell


@pytest.mark.parametrize("sequence, closed_form", [
    ("arndt-total", fibonacci), ("last-sum", total_last_closed)])
def test_bfile_texts_equal_the_int_closed_forms(sequence, closed_form,
                                                unlimited_int_text):
    texts = list(bfile_texts(sequence, 20590))
    assert [n for n, _ in texts] == list(range(1, 20591))
    for n, text in texts[:5000] + texts[20569:]:
        assert text == str(closed_form(n)), n
    assert len(texts[-1][1]) > 4300  # past the default digit limit


def reference_flat_terms(count):
    """(n, term n) of parts-triangle-flat as ints: row n >= 1 of the
    recurrence over m = 1..(2n + 1) // 3, flattened, as the CLI made the
    terms before bfile_texts did."""
    flat = chain.from_iterable(
        map(sparse_row(row).get, range(1, (2 * n + 1) // 3 + 1), repeat(0))
        for n, row in parts_rows_by_recurrence(count) if n)
    return enumerate(islice(flat, count), start=1)


@pytest.mark.parametrize("count", [1, 37, 2000])
def test_bfile_texts_flatten_the_triangle_as_the_int_reference(count):
    assert list(bfile_texts("parts-triangle-flat", count)) == [
        (n, str(v)) for n, v in reference_flat_terms(count)]


def test_bfile_texts_ignore_the_current_decimal_context():
    with decimal.localcontext(decimal.Context(prec=5)):
        texts = dict(bfile_texts("last-sum", 200))
    assert texts[200] == str(total_last_closed(200))


def test_cumulative_counts():
    assert last_count_at_most(10, 1) == 26
    for n in range(6, 41):
        assert last_count_at_least(n, 2) == fibonacci(n - 2) + fibonacci(n - 4)
    for n in range(1, 25):
        assert last_count_at_most(n, n) == fibonacci(n)
    for k in range(1, 6):
        for n in range(30):
            assert last_count_at_most(n, k) == sum(
                last_count(n, j) for j in range(k + 1))
            assert last_count_at_least(n, k) == sum(
                last_count(n, j) for j in range(k, n + 1))


def test_totals_closed():
    assert total_parts_closed(6) == 21
    assert total_parts_closed(7) == 38
    assert total_last_closed(6) == 17
    assert total_last_closed(7) == 29
    assert total_last_closed(0) == 0
    assert total_last_closed(1) == 1
    for n in range(15):
        assert total_parts_closed(n) == sum(
            m * c for m, c in tally(n, ARNDT, "parts").items())
    for n in range(21):
        assert total_last_closed(n) == sum(
            m * c for m, c in tally(n, ARNDT, "last").items())


def _total_parts_by_recurrence(max_n):
    """T(0..max_n) by the recurrence of the totals' rational form
    x(1 - x + x^3 - x^4)/(1 - x - x^2)^2, the route that total_parts_closed
    took before its closed form."""
    num, den = (0, 1, -1, 0, 1, -1), (1, -2, -1, 2, 1)
    totals = []
    for i in range(max_n + 1):
        s = num[i] if i < len(num) else 0
        for j in range(1, len(den)):
            if i - j >= 0:
                s -= den[j] * totals[i - j]
        totals.append(s)
    return totals


def test_total_parts_closed_form_equals_the_series_recurrence():
    assert [total_parts_closed(n) for n in range(301)] == \
        _total_parts_by_recurrence(300)


def test_totals_satisfy_series_recurrences():
    # denominators (1-x-x^2)^2 and 1 - x - 2x^2 + x^3 + x^4
    for n in range(6, 41):
        assert total_parts_closed(n) == (2 * total_parts_closed(n - 1)
                                         + total_parts_closed(n - 2)
                                         - 2 * total_parts_closed(n - 3)
                                         - total_parts_closed(n - 4))
        assert total_last_closed(n) == (total_last_closed(n - 1)
                                        + 2 * total_last_closed(n - 2)
                                        - total_last_closed(n - 3)
                                        - total_last_closed(n - 4))


def test_four_way_agreement_desk_scale():
    tri = parts_triangle_by_recurrence(20)
    rows = gf_arndt().expand(20).integer_rows()
    for n in range(21):
        for m in range(n + 1):
            v = rows[n].get(m, 0)
            assert parts_count_alternating(n, m) == v
            assert parts_count_positive(n, m) == v
            assert tri[n].get(m, 0) == v
