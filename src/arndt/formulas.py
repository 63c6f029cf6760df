"""Closed forms and recurrences for the Arndt counting sequences.

Everything here is exact integer arithmetic: Fibonacci/Lucas caches,
generalised binomial sums, the three-term recurrence and the
shifted-Fibonacci closed form, whose tables leave as lists, cell m at index
m, up to the last nonzero cell (statistic_rows names them), and the
Fibonacci and Lucas closed forms for the totals.  The one exception is the
text of long b-file terms: bfile_texts runs the Fibonacci and Lucas
recurrences in exact decimal arithmetic, under this module's _EXACT context,
because a Decimal prints in time linear in its digits where an int takes
quadratic time; only the text leaves this module.
This route imports neither the brute-force nor the series modules: no
composition is enumerated and no generating function is expanded here.
Agreement with those two routes is established in the verification suite.
"""

from __future__ import annotations

import decimal
from itertools import chain, islice
from math import comb
from operator import add
from typing import Dict, Iterator, List, Optional, Tuple

from .compositions import ARNDT, Family, check_statistic, sparse_row


class CountTriangle(list):
    """Rows 0..max_row, each {m: count} without zeros; IndexError outside.
    Only the benchmark harness reads max_row and row_sum."""

    def __getitem__(self, n: int) -> Dict[int, int]:  # no row before row 0
        return super().__getitem__(n if n >= 0 else len(self))

    @property
    def max_row(self) -> int:
        return len(self) - 1

    def row_sum(self, n: int) -> int:
        return sum(self[n].values())


_FIB = [0, 1]
_LUCAS = [2, 1]


def _extend(cache: list, n: int, name: str) -> int:
    """Entry n >= 0 of the cache of `name`, a sequence with
    s(i) = s(i-1) + s(i-2)."""
    if n < 0:
        raise ValueError(f"{name} index must be >= 0, got {n}")
    while len(cache) <= n:
        cache.append(cache[-1] + cache[-2])
    return cache[n]


def fibonacci(n: int) -> int:
    """F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2); defined for n >= 0."""
    return _extend(_FIB, n, "Fibonacci")


def lucas(n: int) -> int:
    """L(0) = 2, L(1) = 1, L(n) = L(n-1) + L(n-2); defined for n >= 0."""
    return _extend(_LUCAS, n, "Lucas")


def gen_binomial(p: int, q: int) -> int:
    """Generalised binomial: the falling factorial p(p-1)...(p-q+1) over q!.

    Valid for negative p, so gen_binomial(-1, 0) == 1 and
    gen_binomial(-1, 1) == -1.  Returns 0 for q < 0 and for 0 <= p < q
    (the falling factorial crosses zero).  For p < 0 it uses upper negation,
    C(p, q) = (-1)^q C(q-p-1, q) (Graham et al., Concrete Mathematics, 5.14).
    """
    if q < 0:
        return 0
    return comb(p, q) if p >= 0 else (-1) ** q * comb(q - p - 1, q)


def parts_count_alternating(n: int, m: int) -> int:
    """Arndt compositions of n with m parts, by the alternating binomial sum.

    Sum over l of C(m+l-1, l) C(n-m-l-1, n-m-floor(m/2)-l) (-1)^(n-m-floor(m/2)-l),
    l from 0 to n - m - floor(m/2); zero when that upper limit is negative.
    """
    upper = n - m - m // 2  # no term when negative
    return sum(gen_binomial(m + l - 1, l)
               * gen_binomial(n - m - l - 1, upper - l) * (-1) ** (upper - l)
               for l in range(upper + 1))


def parts_count_positive(n: int, m: int) -> int:
    """Arndt compositions of n with m parts, by the positive binomial sum.

    Sum over l of C(floor(m/2)+l-1, l) C(n-2*floor(m/2)-2l-1, floor((m-1)/2)),
    l from 0 to floor((n-m-floor(m/2))/2).  The m = 0 column is the empty
    product of pair kernels, i.e. 1 at n = 0 and 0 otherwise; the displayed
    sum cannot express it because floor((m-1)/2) turns negative.
    """
    if m == 0:
        return 1 if n == 0 else 0
    upper = n - m - m // 2  # no term when negative
    half = m // 2
    return sum(gen_binomial(half + l - 1, l)
               * gen_binomial(n - 2 * half - 2 * l - 1, (m - 1) // 2)
               for l in range(upper // 2 + 1))


def parts_rows_by_recurrence(max_n: int) -> Iterator[Tuple[int, List[int]]]:
    """(n, row n) of the parts triangle for n = 0..max_n, each a new list
    made as it is drawn: row 0 is [1]; row n >= 1 is 0, 1, then up to column
    (2n + 1) // 3, the most parts an Arndt composition of n has, the nonzero
    a(n,m) = a(n-1,m) + a(n-2,m) - a(n-3,m) + a(n-3,m-2).  Rows n-1..n-3
    are kept with two zeros added, so a(n,m) reads each cell by its index."""
    back3 = back2 = back1 = []  # no cell is read before row 3
    for n in range(max_n + 1):
        row = [0, 1] if n else [1]
        row += [back1[m] + back2[m] - back3[m] + back3[m - 2]
                for m in range(2, (2 * n + 1) // 3 + 1)]
        back3, back2, back1 = back2, back1, row + [0, 0]
        yield n, row


def parts_triangle_by_recurrence(max_n: int) -> CountTriangle:
    """Rows 0..max_n of the parts triangle, from parts_rows_by_recurrence."""
    return CountTriangle(sparse_row(row)
                         for _, row in parts_rows_by_recurrence(max_n))


def wz_residual(n: int, m: int, triangle: CountTriangle) -> int:
    """Left side of the WZ-certified three-term relation; identically zero.

    (m - n - 2 + floor(m/2)) a(n+2,m) + (m - floor(m/2)) a(n+1,m) + n a(n,m).
    The triangle must hold rows n..n+2.
    """
    return ((m - n - 2 + m // 2) * triangle[n + 2].get(m, 0)
            + (m - m // 2) * triangle[n + 1].get(m, 0)
            + n * triangle[n].get(m, 0))


def fibonacci_from_alternating_sum(n: int) -> int:
    """F(n) for n >= 1 as the double sum of the alternating parts counts."""
    return sum(parts_count_alternating(n, m) for m in range(n + 1))


def fibonacci_from_positive_sum(n: int) -> int:
    """F(n) for n >= 1 as the double sum of the positive parts counts."""
    return sum(parts_count_positive(n, m) for m in range(n + 1))


def last_count(n: int, m: int) -> int:
    """Arndt compositions of n with last part m, by shifted Fibonacci pieces.

    For n >= 1 the count is the sum of two kernels evaluated at n - m and
    n - 2m: the first is 1, 0, F(0), F(1), ...; the second 0, 1, F(1),
    F(2), ... (absent while n < 2m).  The empty composition gives the lone
    (0, 0) entry.
    """
    if n == 0:
        return 1 if m == 0 else 0
    if m < 1 or m > n:
        return 0
    u = n - m
    total = 1 if u == 0 else (0 if u == 1 else fibonacci(u - 2))
    v = n - 2 * m
    if v >= 1:
        total += 1 if v == 1 else fibonacci(v - 1)
    return total


def last_row(n: int) -> List[int]:
    """Row n of the last-part triangle, last_count(n, m) at index m = 0..n.

    The row is built whole from last_count's two kernels, each a slice of
    the Fibonacci cache: for m = 1..n the first kernel at n - m runs
    F(n-3), ..., F(0), 0, 1, and the second at n - 2m runs F(n-3), F(n-5),
    ..., F(1 or 2), then 1 when n is odd.
    """
    if n == 0:
        return [1]
    fibonacci(n)  # the cache now holds every index read below
    cells = ([1, 0] + _FIB[:max(n - 2, 0)])[n - 1::-1]
    if n >= 3:
        second = _FIB[n - 3:0:-2] + [1] * (n % 2)
        cells[:len(second)] = map(add, cells, second)
    return [0] + cells


def statistic_rows(family: Family, statistic: str, max_n: int
                   ) -> Optional[Iterator[Tuple[int, List[int]]]]:
    """(n, row n), each made as drawn, for n = 0..max_n of the closed-form
    table counting `family` by `statistic`, or None where there is none."""
    check_statistic(statistic)
    if family != ARNDT:
        return None
    return (parts_rows_by_recurrence(max_n) if statistic == "parts"
            else ((n, last_row(n)) for n in range(max_n + 1)))


def last_count_at_most(n: int, k: int) -> int:
    """Arndt compositions of n with last part at most k.

    F(n) - F(n-k-1) - F(n-2k-2) on the closed-form range k >= 1,
    n >= 2k + 2; direct summation of last_count elsewhere.
    """
    if k >= 1 and n >= 2 * k + 2:
        return fibonacci(n) - fibonacci(n - k - 1) - fibonacci(n - 2 * k - 2)
    return sum(last_count(n, j) for j in range(0, k + 1))


def last_count_at_least(n: int, k: int) -> int:
    """Arndt compositions of n with last part at least k.

    F(n-k) + F(n-2k) on the closed-form range k >= 1, n >= 2k + 2; direct
    summation of last_count elsewhere.
    """
    if k >= 1 and n >= 2 * k + 2:
        return fibonacci(n - k) + fibonacci(n - 2 * k)
    return sum(last_count(n, j) for j in range(max(k, 0), n + 1))


def total_parts_closed(n: int) -> int:
    """Total number of parts over all Arndt compositions of n.

    With D = 1 - x - x^2 the totals' GF x(1 - x + x^3 - x^4)/D^2 splits into
    3 - x - 7(1 - x)/D + (4 - 6x)/D^2.  For n >= 1, [x^n] (1 - x)/D = F(n-1),
    and [x^n] 1/D^2 = c(n) = ((n+2) L(n+2) - F(n+2))/5, a Fibonacci
    convolution.  So T(n) = -7 F(n-1) + 4 c(n) - 6 c(n-1) once the polynomial
    part 3 - x stops contributing, at n >= 2; rewriting through
    2 F(n+1) = F(n) + L(n) and 2 L(n+1) = L(n) + 5 F(n) gives
    10 T(n) = (39 - 10n) F(n) + (6n - 15) L(n).  T(0) = 0 and T(1) = 1.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n < 2:
        return n
    return ((39 - 10 * n) * fibonacci(n) + (6 * n - 15) * lucas(n)) // 10


def total_last_closed(n: int) -> int:
    """Sum of last parts over all Arndt compositions of n.

    Equals floor(phi^n) for n >= 1, evaluated exactly through Lucas numbers:
    phi^n = L(n) - psi^n with |psi| < 1, so the floor is L(n) - 1 for even
    n >= 2 and L(n) for odd n.  No floating point involved.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n == 0:
        return 0
    return lucas(n) - (n % 2 == 0)


# The exact context of bfile_texts: no sum of integers is rounded at this
# precision and exponent range, and Inexact is trapped to prove it.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero,
           decimal.Overflow, decimal.Inexact])

# The b-file sequences, in the order that `arndt bfile` lists them.
BFILES = ("arndt-total", "parts-triangle-flat", "last-sum")

# Closed-form b-file sequence -> (s(0), s(1), amount taken off the even
# terms) of bfile_texts: the Arndt totals are F(n), and the sums of last parts
# are L(n) - 1 at even n >= 2 and L(n) at odd n, as in total_last_closed.
_TEXT_RECURRENCES = {"arndt-total": (0, 1, 0), "last-sum": (2, 1, 1)}


def bfile_texts(sequence: str, count: int) -> Iterator[Tuple[int, str]]:
    """(n, decimal text of term n) for n = 1..count of a sequence in BFILES,
    each as soon as it is computed.

    The flat triangle reads each row n >= 1 of parts_rows_by_recurrence in
    order, drawing rows only until `count` terms are out.  The closed forms run
    s(n) = s(n-1) + s(n-2) in Decimal under _EXACT, whose methods do every
    operation, so no term depends on the thread's current context.
    """
    if sequence == "parts-triangle-flat":
        flat = chain.from_iterable(
            row[1:] for n, row in parts_rows_by_recurrence(count) if n)
        yield from enumerate(map(str, islice(flat, count)), start=1)
        return
    before, term, even_drop = map(decimal.Decimal,
                                  _TEXT_RECURRENCES[sequence])
    for n in range(1, count + 1):
        yield n, str(_EXACT.subtract(term, even_drop)
                     if even_drop and n % 2 == 0 else term)
        before, term = term, _EXACT.add(before, term)
