"""The triangle rows as {m: count} dicts, as the writers, the parts
recurrence, last_row and integer_row made and read them before every
streamed row became a list; kept as the reference that the list rows are
checked against."""

import json
from operator import add

from arndt.formulas import _FIB, fibonacci


def dense(row):
    """A {m: count} row as the list that holds cell m at index m, up to its
    last nonzero cell."""
    return [row.get(m, 0) for m in range(max(row, default=-1) + 1)]


def recurrence_rows(max_n):
    """(n, row n) of the parts triangle, each row {m: a(n, m)} without zeros,
    by the recurrence read through dict.get."""
    before = ({}, {}, {})  # rows n-3, n-2 and n-1
    for n in range(max_n + 1):
        row = {min(n, 1): 1}
        back3, back2, back1 = before
        for m in range(2, (2 * n + 1) // 3 + 1):
            row[m] = (back1.get(m, 0) + back2.get(m, 0)
                      - back3.get(m, 0) + back3.get(m - 2, 0))
        yield n, row
        before = (back2, back1, row)


def last_row(n):
    """Row n of the last-part triangle, {m: last_count(n, m)} without zeros."""
    if n == 0:
        return {0: 1}
    fibonacci(n)
    cells = ([1, 0] + _FIB[:max(n - 2, 0)])[n - 1::-1]
    if n >= 3:
        second = _FIB[n - 3:0:-2] + [1] * (n % 2)
        cells[:len(second)] = map(add, cells, second)
    return {m: v for m, v in enumerate(cells, 1) if v}


def integer_row(n, cells):
    """Row n's nonzero cells as {m: int}, all nonnegative, or the ValueError
    that names the first cell that fails."""
    row = {m: v for m, v in enumerate(cells) if v}
    if (set(map(type, row.values())) <= {int}
            and min(row.values(), default=0) >= 0):
        return row
    for m, v in row.items():
        if v.denominator != 1:
            raise ValueError(f"coefficient at ({n}, {m}) is {v}, not an integer")
        if v < 0:
            raise ValueError(f"coefficient at ({n}, {m}) is negative: {v}")
        row[m] = int(v)
    return row


def triangle_text(rows, fmt):
    """The text that `arndt table` wrote for (n, {m: count}) pairs."""
    if fmt == "plain":
        return "".join(line + "\n" for line in grid_lines(list(rows)))
    if fmt == "csv":
        head, text = "n,m,count\n", []
        for n, row in rows:
            text.append(head + "".join(f"{n},{m},{row[m]}\n"
                                       for m in sorted(row)))
            head = ""
        return "".join(text)
    return "".join(json.dumps({"n": n, "counts": {str(m): row[m]
                                                  for m in sorted(row)}})
                   + "\n" for n, row in rows)


def grid_width(rows, top_m):
    cells = [end(row.values()) for _, row in rows if row for end in (max, min)]
    widest = [top_m, *(n for n, _ in rows)] + (
        [max(cells), min(cells)] if cells else [])
    return max(len("n\\m"), *(len(str(v)) for v in widest))


def grid_lines(rows):
    top_m = max((max(row) for _, row in rows if row), default=0)
    width = grid_width(rows, top_m)
    yield "  ".join(["n\\m".rjust(width)]
                    + [str(m).rjust(width) for m in range(top_m + 1)])
    for n, row in rows:
        hi = max(row) if row else 0
        cells = [str(row.get(m, 0)).rjust(width) for m in range(hi + 1)]
        yield "  ".join([str(n).rjust(width)] + cells)
