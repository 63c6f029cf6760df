"""Acceptance gate: every release-blocking property, one test per criterion.

Each test prints a single PASS line (visible under pytest -s or in the
captured output); a failing assertion marks the criterion red.  The
tolerances are stated here independently of the ones verify states.
"""

import math

import pytest

from conftest import (BLOCK3_ARNDT_OF_10, BLOCK3_TOTALS, BLOCK4_TOTALS,
                      K3_ARNDT_OF_10, TABLE_LAST, TABLE_PARTS)
from arndt import asymptotics, bijection, catalog, cli, counting, formulas
from arndt.compositions import (ANTIPALINDROMIC, ARNDT, REDUCED_AP, Family,
                                flip_class, is_arndt,
                                is_reduced_ap_representative)
from test_cli import parse_plain_triangle, run


def report(num, text):
    print(f"PASS  criterion {num}: {text}")


def test_criterion_01_table_parts(capsys):
    code, out, _ = run(capsys, "table", "parts", "--N", "10")
    assert code == 0
    assert parse_plain_triangle(out) == TABLE_PARTS
    report(1, "`table parts --N 10` reproduces the parts triangle "
              "cell-for-cell")


def test_criterion_02_table_last(capsys):
    code, out, _ = run(capsys, "table", "last", "--N", "10")
    assert code == 0
    assert parse_plain_triangle(out) == TABLE_LAST
    report(2, "`table last --N 10` reproduces the last-part triangle "
              "cell-for-cell")


def test_criterion_03_fibonacci_counts():
    for n in range(1, 23):
        brute = sum(counting.tally(n, ARNDT, "parts").values())
        assert brute == formulas.fibonacci(n), n
    rows = catalog.gf_arndt().expand(40).integer_rows()
    tri = formulas.parts_triangle_by_recurrence(40)
    for n in range(1, 41):
        want = formulas.fibonacci(n)
        assert sum(rows[n].values()) == want, n
        assert tri.row_sum(n) == want, n
    report(3, "Arndt counts equal F(n): brute force to 22, series and "
              "recurrence to 40")


def test_criterion_04_formula_triple_agreement():
    tri = formulas.parts_triangle_by_recurrence(40)
    rows = catalog.gf_arndt().expand(40).integer_rows()
    for n in range(41):
        assert formulas.parts_count_alternating(n, 1) == (1 if n >= 1 else 0)
        for m in range(n + 1):
            v = rows[n].get(m, 0)
            assert formulas.parts_count_alternating(n, m) == v, (n, m)
            assert formulas.parts_count_positive(n, m) == v, (n, m)
            assert tri[n].get(m, 0) == v, (n, m)
    report(4, "alternating sum == positive sum == recurrence == series "
              "coefficients for 0 <= m <= n <= 40")


def test_criterion_05_wz_recurrence():
    tri = formulas.parts_triangle_by_recurrence(42)
    for n in range(41):
        for m in range(n + 3):
            assert formulas.wz_residual(n, m, tri) == 0, (n, m)
    report(5, "three-term residual identically zero for n <= 40, m <= n + 2")


def test_criterion_06_last_part_closed_form():
    rows = catalog.gf_last_part().expand(40).integer_rows()
    for n in range(41):
        got = {m: v for m in range(n + 1) if (v := formulas.last_count(n, m))}
        assert got == rows[n], n
    for m in range(1, 9):
        for n in range(2 * m + 2, 41):
            assert formulas.last_count(n, m) == (
                formulas.fibonacci(n - m - 2)
                + formulas.fibonacci(n - 2 * m - 1)), (n, m)
    for k in range(1, 9):
        for n in range(2 * k + 2, 41):
            le = sum(formulas.last_count(n, j) for j in range(k + 1))
            ge = sum(formulas.last_count(n, j) for j in range(k, n + 1))
            assert formulas.last_count_at_most(n, k) == le, (n, k)
            assert formulas.last_count_at_least(n, k) == ge, (n, k)
    report(6, "last-part closed forms match the series, the shifted "
              "Fibonacci identity, and the cumulative identities to 40")


def test_criterion_07_statistics():
    assert formulas.total_parts_closed(6) == 21
    assert formulas.total_parts_closed(7) == 38
    assert formulas.total_last_closed(6) == 17
    assert formulas.total_last_closed(7) == 29
    for n in range(21):
        assert formulas.total_last_closed(n) == sum(
            m * c for m, c in counting.tally(n, ARNDT, "last").items()), n
    _, prefix = cli._load_reference("last-sum")
    assert prefix
    for n, want in prefix.items():
        if n >= 1:
            assert formulas.total_last_closed(n) == want, n
    report(7, "totals match the known values, brute force to 20, and the "
              "bundled A014217 prefix")


def test_criterion_08_bijection():
    assert bijection.reduced_ap_to_arndt((2, 3, 6, 2, 1)) == (2, 1, 3, 2, 6)
    for n in range(19):
        reduced = list(counting.family_members(n, REDUCED_AP))
        image = [bijection.reduced_ap_to_arndt(c) for c in reduced]
        for src, dst in zip(reduced, image):
            assert sum(dst) == sum(src) and len(dst) == len(src), src
            assert bijection.arndt_to_reduced_ap(dst) == src, src
        arndt_set = {c for c in counting.compositions_of(n) if is_arndt(c)}
        assert len(set(image)) == len(image), n
        assert set(image) == arndt_set, n
    report(8, "weight/parts-preserving bijection with identity round trips "
              "for all n <= 18")


def test_criterion_09_antipalindromic_structure():
    for n in range(13):
        for comp in counting.compositions_of(n):
            if ANTIPALINDROMIC.member(comp):
                cls = flip_class(comp)
                assert len(cls) == 1 << (len(comp) // 2), comp
                assert sum(is_reduced_ap_representative(c) for c in cls) == 1
    ap = catalog.gf_antipalindromic().expand(20).integer_rows()
    reduced = catalog.gf_reduced_ap().expand(20).integer_rows()
    for n in range(21):
        for m in set(ap[n]) | set(reduced[n]):
            assert ap[n].get(m, 0) == 2 ** (m // 2) * reduced[n].get(m, 0)
    report(9, "flip classes have size 2^(l//2) (n <= 12) and the "
              "anti-palindromic series doubles the reduced one (n <= 20)")


def test_criterion_10_generalizations():
    got_k3 = {c for c in counting.compositions_of(10)
              if Family("k-arndt", 3).member(c)}
    assert got_k3 == K3_ARNDT_OF_10
    got_b3 = {c for c in counting.compositions_of(10)
              if Family("block-arndt", 3).member(c)}
    assert got_b3 == BLOCK3_ARNDT_OF_10
    for k in range(-3, 4):
        rows = catalog.gf_k_arndt(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == counting.tally(
                n, Family("k-arndt", k), "parts"), (k, n)
    for k in range(1, 5):
        rows = catalog.gf_k_block(k).expand(12).integer_rows()
        for n in range(13):
            assert rows[n] == counting.tally(
                n, Family("block-arndt", k), "parts"), (k, n)
    block2 = catalog.gf_k_block(2).expand(30).integer_rows()
    arndt_rows = catalog.gf_arndt().expand(30).integer_rows()
    assert block2 == arndt_rows
    assert catalog.gf_k_block(3).eval_y1().expand(9).sequence() == BLOCK3_TOTALS
    assert catalog.gf_k_block(4).eval_y1().expand(10).sequence() == BLOCK4_TOTALS
    report(10, "both generalizations: exact sets at weight 10, brute/series "
               "agreement, 2-block == arndt, and the displayed y=1 prefixes")


def test_criterion_11_asymptotics():
    assert float(asymptotics.expected_last(60)) == pytest.approx(
        math.sqrt(5), rel=1e-3)
    assert float(asymptotics.expected_parts(200)) / 200 == pytest.approx(
        3 / math.sqrt(5) - 1, rel=0.01)
    pole = asymptotics.PoleSpec(asymptotics.GOLDEN_RATIO)
    fib_gf = catalog.gf_k_arndt_total(0)
    for n in range(30, 121, 10):
        est = asymptotics.dominant_asymptotic(fib_gf, pole, n)
        assert est == pytest.approx(formulas.fibonacci(n), rel=0.005), n
    # a(600, m) by two exact routes, the full recurrence and the binomial sum
    tri = formulas.parts_triangle_by_recurrence(600)
    for m in (3, 4):
        assert tri[600][m] == formulas.parts_count_positive(600, m), m
        ratio = tri[600][m] / asymptotics.parts_count_asymptotic(600, m)
        assert abs(ratio - 1) <= 0.15, m
    for m in (1, 2, 3):
        ratio = formulas.last_count(60, m) / asymptotics.last_count_asymptotic(60, m)
        assert abs(ratio - 1) <= 1e-3, m
    report(11, "all asymptotic estimates within their fixed tolerances "
               "against exact values")


def test_criterion_12_series_engine_soundness():
    from arndt.verify import _catalog_gfs
    for name, gf in _catalog_gfs():
        series = gf.expand(40)
        expansion = series.as_polynomial()
        assert (gf.den * expansion).truncate_x(40) == gf.num.truncate_x(40), name
        rows = series.integer_rows()            # raises on non-integers
        for n, row in rows.items():
            assert all(v >= 0 for v in row.values()), (name, n)
    report(12, "denominator * expansion == numerator at order 40 and all "
               "catalog coefficients are nonnegative integers")
