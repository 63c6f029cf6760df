"""Closed forms and recurrences for the Arndt counting sequences.

Everything here is exact integer arithmetic: Fibonacci/Lucas caches,
generalised binomial sums, the three-term recurrence triangle, and the
shifted-Fibonacci closed forms for the last-part statistic.  No generating
function is expanded in this module; agreement with the series and
brute-force paths is established in the verification suite.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Dict, Optional

from .counting import CountTriangle

_FIB = [0, 1]
_LUCAS = [2, 1]


def _extend(cache: list, n: int) -> int:
    """Entry n of a cache of a sequence with s(i) = s(i-1) + s(i-2)."""
    while len(cache) <= n:
        cache.append(cache[-1] + cache[-2])
    return cache[n]


def fibonacci(n: int) -> int:
    """F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2); defined for n >= 0."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {n}")
    return _extend(_FIB, n)


def lucas(n: int) -> int:
    """L(0) = 2, L(1) = 1, L(n) = L(n-1) + L(n-2); defined for n >= 0."""
    if n < 0:
        raise ValueError(f"Lucas index must be >= 0, got {n}")
    return _extend(_LUCAS, n)


def gen_binomial(p: int, q: int) -> int:
    """Generalised binomial: the falling factorial p(p-1)...(p-q+1) over q!.

    Valid for negative p, so gen_binomial(-1, 0) == 1 and
    gen_binomial(-1, 1) == -1.  Returns 0 for q < 0 and for 0 <= p < q
    (the falling factorial crosses zero).
    """
    if q < 0:
        return 0
    if q == 0:
        return 1
    return prod(p - i for i in range(q)) // factorial(q)


def parts_count_alternating(n: int, m: int) -> int:
    """Arndt compositions of n with m parts, by the alternating binomial sum.

    Sum over l of C(m+l-1, l) C(n-m-l-1, n-m-floor(m/2)-l) (-1)^(n-m-floor(m/2)-l),
    l from 0 to n - m - floor(m/2); zero when that upper limit is negative.
    """
    upper = n - m - m // 2
    if upper < 0:
        return 0
    total = 0
    for l in range(upper + 1):
        total += (gen_binomial(m + l - 1, l)
                  * gen_binomial(n - m - l - 1, upper - l)
                  * (-1) ** (upper - l))
    return total


def parts_count_positive(n: int, m: int) -> int:
    """Arndt compositions of n with m parts, by the positive binomial sum.

    Sum over l of C(floor(m/2)+l-1, l) C(n-2*floor(m/2)-2l-1, floor((m-1)/2)),
    l from 0 to floor((n-m-floor(m/2))/2).  The m = 0 column is the empty
    product of pair kernels, i.e. 1 at n = 0 and 0 otherwise; the displayed
    sum cannot express it because floor((m-1)/2) turns negative.
    """
    if m == 0:
        return 1 if n == 0 else 0
    upper = n - m - m // 2
    if upper < 0:
        return 0
    half = m // 2
    lower_index = (m - 1) // 2
    total = 0
    for l in range(upper // 2 + 1):
        total += (gen_binomial(half + l - 1, l)
                  * gen_binomial(n - 2 * half - 2 * l - 1, lower_index))
    return total


def parts_triangle_by_recurrence(max_n: int,
                                 max_m: Optional[int] = None) -> CountTriangle:
    """Rows 0..max_n of the parts triangle from the three-term recurrence.

    Seeds: count 1 at (0, 0); column m = 1 is identically 1 for n >= 1;
    for n >= 3 and m >= 2,
    a(n,m) = a(n-1,m) + a(n-2,m) - a(n-3,m) + a(n-3,m-2).
    max_m caps the columns (the recurrence never reads above column m).
    """
    rows: Dict[int, Dict[int, int]] = {}
    for n in range(max_n + 1):
        row: Dict[int, int] = {0: 1} if n == 0 else {1: 1}
        hi = n if max_m is None else min(n, max_m)
        for m in range(2, hi + 1):
            if n < 3:
                continue
            v = (rows[n - 1].get(m, 0) + rows[n - 2].get(m, 0)
                 - rows[n - 3].get(m, 0) + rows[n - 3].get(m - 2, 0))
            if v:
                row[m] = v
        rows[n] = row
    return CountTriangle(rows, max_n)


def wz_residual(n: int, m: int, triangle: CountTriangle) -> int:
    """Left side of the WZ-certified three-term relation; identically zero.

    (m - n - 2 + floor(m/2)) a(n+2,m) + (m - floor(m/2)) a(n+1,m) + n a(n,m).
    The triangle must hold rows n..n+2.
    """
    return ((m - n - 2 + m // 2) * triangle.get(n + 2, m)
            + (m - m // 2) * triangle.get(n + 1, m)
            + n * triangle.get(n, m))


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


# Totals: linear recurrences induced by the displayed rational forms.
# total parts: x(1 - x + x^3 - x^4) / (1 - x - x^2)^2
_TOTAL_PARTS_NUM = (0, 1, -1, 0, 1, -1)
_TOTAL_PARTS_DEN = (1, -2, -1, 2, 1)
_TOTAL_PARTS = [0]


def total_parts_closed(n: int) -> int:
    """Total number of parts over all Arndt compositions of n."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    while len(_TOTAL_PARTS) <= n:
        i = len(_TOTAL_PARTS)
        s = _TOTAL_PARTS_NUM[i] if i < len(_TOTAL_PARTS_NUM) else 0
        for j in range(1, len(_TOTAL_PARTS_DEN)):
            if i - j >= 0:
                s -= _TOTAL_PARTS_DEN[j] * _TOTAL_PARTS[i - j]
        _TOTAL_PARTS.append(s)
    return _TOTAL_PARTS[n]


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
    if n == 1:
        return 1
    return lucas(n) - 1 if n % 2 == 0 else lucas(n)
