"""RationalGF.expand, which stores rows and fills each row only as far as
it can reach, against the sparse full-square expansion it replaced; the
rows that RationalGF.iter_rows streams, against the stored ones and against
the rows of the engine that applied every term of the expanded denominator;
the (1 - x^l) factors that each catalog denominator is divided by; the
stored cell that TruncatedSeries.coefficient reads, against rows[n]; and the
ints that catalog expansions hold."""

from itertools import product
from math import comb

import pytest

from arndt import catalog, series, verify
from arndt.catalog import gf_arndt, gf_k_block, gf_total_last
from arndt.series import (BivariatePolynomial, RationalGF, integer_row,
                          sequence_term)
from dict_rows import dense
from sparse_expand import cut, rows_of, sparse_expand
from unpeeled_rows import unpeeled_rows

GATE_ORDER = 64


@pytest.mark.parametrize(
    "gf", [pytest.param(gf, id=name) for name, gf in verify._catalog_gfs()])
def test_expand_equals_the_sparse_reference(gf):
    full = sparse_expand(gf, GATE_ORDER)
    for order in range(GATE_ORDER + 1):
        want = cut(full, order)
        series = gf.expand(order)
        assert series.as_polynomial() == BivariatePolynomial(want), order
        assert series.integer_rows() == rows_of(want, order), order
        assert all(type(c) is int for row in series.rows for c in row), order


def drawn(gf, order):
    """gf's streamed rows, each copied as it is drawn: a row changed after
    it was yielded, or one yielded out of turn, differs from the store."""
    return [list(row) for row in gf.iter_rows(order)]


def outcome(make):
    """make()'s value, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


def assert_streamed_as_stored(gf, order, univariate):
    stored = gf.expand(order)
    assert drawn(gf, order) == stored.rows, order
    assert outcome(lambda: [
        (n, integer_row(n, row)) for n, row in enumerate(gf.iter_rows(order))
    ]) == outcome(lambda: [(n, dense(row))
                           for n, row in stored.integer_rows().items()]), order
    if univariate:
        assert [sequence_term(n, row) for n, row in
                enumerate(gf.iter_rows(order))] == stored.sequence(), order


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}({k})" if k is not None else name)
    for name in catalog.SERIES for k in verify._SAMPLE_K.get(name, (None,))])
def test_streamed_rows_equal_the_stored_rows(name, k):
    gf = catalog.series_gf(name, k)
    for order in range(GATE_ORDER + 1):
        assert_streamed_as_stored(gf, order, catalog.SERIES[name][1])


# Denominators with y-terms in the rows after the constant, which read lower
# y-degrees of earlier rows, beside pure x-terms or none; each term but the
# constant 1 is scaled by 1, -1 or 3, so unit and other coefficients meet.
ROW_DENS = [{(1, 1): -1}, {(1, 2): 1, (1, 0): -1},
            {(1, 1): 1, (2, 1): -1, (2, 0): 1},
            {(1, 1): -2, (2, 3): 1, (3, 2): 5}]
NUMS = [{(0, 0): 1}, {(1, 0): 1, (0, 1): 1},
        {(0, 0): 1, (1, 2): -1, (3, 0): 2}]


@pytest.mark.parametrize("den, scale, num",
                         product(ROW_DENS, (1, -1, 3), NUMS))
def test_y_terms_of_later_rows_equal_the_sparse_reference(den, scale, num):
    gf = RationalGF(BivariatePolynomial(num), BivariatePolynomial(
        {(0, 0): 1, **{key: scale * v for key, v in den.items()}}))
    full = sparse_expand(gf, 8)
    for order in range(9):
        series = gf.expand(order)
        assert series.as_polynomial() == BivariatePolynomial(cut(full, order))
        assert_streamed_as_stored(gf, order, univariate=False)


# Shift terms (i >= 1) with coefficients 1, -1, 2 and -3, and negated: the
# unit ones add or subtract with no product, the others multiply.
BRANCH_DEN = {(1, 0): 1, (1, 1): -1, (2, 0): 2, (3, 2): -3}


@pytest.mark.parametrize("sign", [pytest.param(1, id="as-pinned"),
                                  pytest.param(-1, id="negated")])
def test_unit_and_other_shift_terms_equal_the_sparse_reference(sign):
    gf = RationalGF(BivariatePolynomial({(0, 0): 1, (1, 1): 1, (2, 0): -1}),
                    BivariatePolynomial({(0, 0): 1, **{
                        key: sign * v for key, v in BRANCH_DEN.items()}}))
    full = sparse_expand(gf, 12)
    for order in range(13):
        series = gf.expand(order)
        assert series.as_polynomial() == BivariatePolynomial(cut(full, order))
        assert_streamed_as_stored(gf, order, univariate=False)


# 1 / (1 - x - x y): row n holds the binomials C(n, m), as ints.
def test_binomial_gf_expands_to_int_rows():
    gf = RationalGF(BivariatePolynomial({(0, 0): 1}),
                    BivariatePolynomial({(0, 0): 1, (1, 0): -1, (1, 1): -1}))
    series = gf.expand(12)
    assert all(type(c) is int for row in series.rows for c in row)
    assert series.integer_rows()[12] == {m: comb(12, m) for m in range(13)}


def test_rows_stop_where_they_can_reach():
    univariate = gf_total_last().expand(800)
    assert sum(len(row) for row in univariate.rows) <= 801
    for n, row in enumerate(gf_arndt().expand(40).rows):
        assert len(row) <= n + 1, n
    # A stage adds rows cell by cell: it must not widen a row past the
    # reach of the expanded denominator's terms, with zeros or otherwise.
    for k in (3, 9):
        gf = gf_k_block(k)
        for n, (row, want) in enumerate(zip(gf.iter_rows(80),
                                            unpeeled_rows(gf, 80))):
            assert len(row) <= len(want), (k, n)


PEEL_ORDER = 60
# Every catalog GF that verify expands, gf_k_block(k) for k <= 12 and
# gf_k_arndt(k) for |k| <= 6, each once, by the label verify gives it.
PEEL_GFS = {**dict(verify._catalog_gfs()),
            **{f"gf_k_block({k})": gf_k_block(k) for k in range(1, 13)},
            **{f"gf_k_arndt({k})": catalog.gf_k_arndt(k)
               for k in range(-6, 7)}}


@pytest.mark.parametrize("gf", [pytest.param(gf, id=name)
                                for name, gf in PEEL_GFS.items()])
def test_streamed_rows_equal_the_unpeeled_rows(gf):
    assert drawn(gf, PEEL_ORDER) == list(unpeeled_rows(gf, PEEL_ORDER))


@pytest.fixture
def peel(monkeypatch):
    """peel(gf): the l of the (1 - x^l) factors that gf's expansion divides
    by, largest first, and the rest r's terms but its 1, as {i: coefficient}
    ({} for r = 1), from the _peel call of iter_rows; ([], None) when
    iter_rows splits nothing off and does not call it."""
    calls = []

    def spy(xs):
        calls.append(real(xs))
        return calls[-1]

    def peel(gf):
        calls.clear()
        next(gf.iter_rows(0))
        assert len(calls) <= 1
        return calls[0] if calls else ([], None)

    real = series._peel
    monkeypatch.setattr(series, "_peel", spy)
    return peel


# x^i y^j -> coefficient of (1 - x)(1 - x^2) - x^3 y^2, gf_arndt's den.
PAIRS_DEN = {(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): 1, (3, 2): -1}


def test_catalog_denominators_peel_their_factors(peel):
    for k in range(1, 13):  # prod_{l <= k} (1 - x^l), and r = 1
        assert peel(gf_k_block(k)) == (list(range(k, 0, -1)), {}), k
        assert peel(catalog.gf_distinct_parts(k)) == \
            (list(range(k, 0, -1)), {}), k
    pairs = [gf_arndt(), catalog.gf_antipalindromic(), catalog.gf_reduced_ap()]
    pairs += [catalog.gf_k_arndt(k) for k in range(-6, 7)]
    for gf in pairs:  # (1 - x)(1 - x^2) - K(x) y^2
        assert peel(gf) == ([2, 1], {}), gf
    assert peel(catalog.gf_compositions()) == ([1], {})
    # (1 - x^2)(1 - x - x^2): 1 - x - x^2 stays as r.
    assert peel(gf_total_last()) == ([2], {1: -1, 2: -1})
    for gf in (catalog.gf_last_part(), catalog.gf_total_parts()):
        assert peel(gf)[0] == [], gf


@pytest.mark.parametrize("den", [
    # (1 - x^2)(1 - x^3): the factors read no row the terms do not, but
    # without an x term that is not certain, so nothing is split off.
    pytest.param({(0, 0): 1, (2, 0): -1, (3, 0): -1, (5, 0): 1, (3, 2): -1},
                 id="no-x-term"),
    # A term x y in row 1 is no x term: these split nothing off either.
    pytest.param({(0, 0): 1, (1, 1): -1, (2, 0): -1}, id="x-y-term-only"),
    pytest.param({(0, 0): 1, (1, 1): -1, (2, 2): 3}, id="y-terms-only")])
def test_dens_that_peel_nothing(peel, den):
    gf = RationalGF(BivariatePolynomial({(0, 0): 1, (1, 1): 1}),
                    BivariatePolynomial(den))
    assert peel(gf)[0] == []
    assert drawn(gf, 30) == list(unpeeled_rows(gf, 30))


@pytest.mark.parametrize(
    "gf", [pytest.param(gf, id=name) for name, gf in verify._catalog_gfs()])
def test_coefficient_reads_the_cell_of_its_row(gf):
    order = 24
    series = gf.expand(order)
    cells = series.as_polynomial()
    for n in range(-2, order + 1):
        row = dict(enumerate(series.rows[n])) if n >= 0 else {}
        for m in range(-2, order + 1):
            assert cells.coefficient(n, m) == row.get(m, 0), (n, m)


# A factor may repeat, and a rest r may stay after the factors: 1 + x is
# not 1 - x^l.
@pytest.mark.parametrize("den, split", [
    pytest.param({(0, 0): 1, (1, 0): -1, (2, 0): -2, (3, 0): 2, (4, 0): 1,
                  (5, 0): -1, (4, 1): -1}, ([2, 2, 1], {}),
                 id="(1-x^2)^2(1-x)"),
    pytest.param({(0, 0): 1, (1, 0): -1, (3, 0): -1, (4, 0): 1, (2, 1): -2},
                 ([3, 1], {}), id="(1-x^3)(1-x)"),
    pytest.param({(0, 0): 1, (1, 0): 1, (2, 0): -1, (3, 0): -1, (3, 2): -1},
                 ([2], {1: 1}), id="(1-x^2)(1+x)")])
def test_other_dens_peel_as_pinned(peel, den, split):
    gf = RationalGF(BivariatePolynomial({(0, 0): 1, (1, 1): 1}),
                    BivariatePolynomial(den))
    assert peel(gf) == split
    assert drawn(gf, 30) == list(unpeeled_rows(gf, 30))
    assert gf.expand(12).as_polynomial() == \
        BivariatePolynomial(sparse_expand(gf, 12))
