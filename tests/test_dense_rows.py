"""Every streamed triangle row is a list, cell m at index m, up to its last
nonzero cell.  These gates hold the list rows to the {m: count} rows that
they replaced (dict_rows): the writers write the same bytes in every
format, and the parts recurrence, last_row and integer_row give the same
rows, or integer_row the same error, word for word."""

import io
from contextlib import redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

import dict_rows
from arndt import cli, formulas
from arndt.catalog import gf_distinct_parts
from arndt.compositions import ARNDT, STATISTICS, sparse_row
from arndt.series import integer_row

# A cell of a count row: zero often, else a nonnegative int of up to 41
# digits.
COUNTS = st.just(0) | st.integers(0, 99) | st.integers(0, 10 ** 40)


def ending_nonzero(cells):
    """cells up to the last nonzero one: the shape of a streamed row."""
    return cells[:max((m + 1 for m, v in enumerate(cells) if v), default=0)]


# Rows 0..n, with zeros inside a row and all-zero (empty) rows.
TRIANGLES = st.lists(st.lists(COUNTS, max_size=12).map(ending_nonzero),
                     min_size=1, max_size=10)


def written(rows, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_triangle(enumerate(rows), fmt)
    return out.getvalue()


@pytest.mark.parametrize("fmt", cli.FORMAT_CHOICES)
@given(rows=TRIANGLES)
@example(rows=[[]])
@example(rows=[[1], [], [0, 0, 10 ** 40], []])
def test_writers_write_the_bytes_of_the_dict_writers(fmt, rows):
    assert written(rows, fmt) == dict_rows.triangle_text(
        enumerate(map(sparse_row, rows)), fmt)


@pytest.mark.parametrize("fmt", cli.FORMAT_CHOICES)
def test_route_rows_are_written_as_by_the_dict_writers(fmt):
    # The formula rows at the size the benchmark writes them, and rows of
    # a generating function as integer_row checks them.
    triangles = [[row for _, row in formulas.statistic_rows(ARNDT, kind, 400)]
                 for kind in STATISTICS]
    triangles.append([integer_row(n, row) for n, row
                      in enumerate(gf_distinct_parts(3).iter_rows(40))])
    for rows in triangles:
        assert written(rows, fmt) == dict_rows.triangle_text(
            enumerate(map(sparse_row, rows)), fmt)


@pytest.mark.parametrize("max_n", [400, 37, 0])
def test_recurrence_rows_equal_the_dict_recurrence(max_n):
    assert list(formulas.parts_rows_by_recurrence(max_n)) == [
        (n, dict_rows.dense(row))
        for n, row in dict_rows.recurrence_rows(max_n)]


def test_last_row_equals_the_dict_last_row():
    for n in range(601):
        assert formulas.last_row(n) == \
            dict_rows.dense(dict_rows.last_row(n)), n


def outcome(make):
    """make()'s value, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


# Cells of a stored or streamed expansion: ints of any sign, small ones
# and zeros often.
CELLS = (st.just(0) | st.integers(-10 ** 40, 10 ** 40)
         | st.integers(-3, 3))


@given(st.integers(0, 60),
       st.lists(COUNTS, max_size=12) | st.lists(CELLS, max_size=12))
@example(0, [])
@example(3, [0, 0, 0])
@example(2, [2, 0, -1, 0])
def test_integer_row_equals_the_dict_rule(n, cells):
    got = outcome(lambda: integer_row(n, cells))
    assert got == outcome(lambda: dict_rows.dense(
        dict_rows.integer_row(n, cells)))
    if isinstance(got, list):
        assert all(type(v) is int for v in got)
        assert not got or got[-1]
