"""Exhaustive composition generation and brute-force counting.

Everything in this module enumerates actual compositions and tallies them;
there are no generating functions and no closed forms here.  It is the ground
truth that the series and formula paths are checked against.

Counts are exact Python ints (unbounded); an exhaustive stream over weight n
touches 2^(n-1) compositions, so a default cap refuses n beyond
BRUTE_FORCE_CAP unless the caller raises it explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

# The two predicates are bound here as well, so that calls made through this
# module's names can be counted from outside (benchmarks/spans.py does).
from .compositions import (ARNDT, REDUCED_AP, Family,  # noqa: F401
                           is_arndt, is_reduced_ap_representative)

BRUTE_FORCE_CAP = 28


class BruteForceCapExceeded(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


def compositions_of(n: int, cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """Yield every composition of n exactly once, in decreasing lex order.

    The order is lexicographically decreasing on part tuples: (4), (3,1),
    (2,2), (2,1,1), (1,3), (1,2,1), (1,1,2), (1,1,1,1).  For n = 0 the only
    composition is the empty tuple; for n >= 1 there are 2^(n-1).

    Pass cap=None (or a larger value) to enumerate past the default cap.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if cap is not None and n > cap:
        raise BruteForceCapExceeded(
            f"enumerating weight {n} means 2^{n - 1} compositions; the cap "
            f"is {cap} (override it to proceed)")
    if n == 0:
        yield ()
        return
    # Successor rule: strip trailing 1s, decrement the new last part, and
    # append the stripped weight plus one as a single part.
    cur = [n]
    while True:
        yield tuple(cur)
        tail = 0
        while cur and cur[-1] == 1:
            tail += cur.pop()
        if not cur:
            return
        cur[-1] -= 1
        cur.append(tail + 1)


def family_members(n: int, family: Family,
                   cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """The members of a family at weight n, in the order of compositions_of:
    the one stream that every brute-force count and `enumerate` read."""
    return filter(family.member, compositions_of(n, cap))


class CountTriangle:
    """Exact counts indexed by (weight n, statistic m); absent cells are 0.

    max_row is the largest n the triangle holds; reading past it raises
    LookupError, which keeps "not computed" distinct from a legitimate zero.
    """

    def __init__(self, rows: Dict[int, Dict[int, int]], max_row: int):
        self.max_row = max_row
        self._rows = {n: {m: v for m, v in row.items() if v}
                      for n, row in rows.items()}

    def _check(self, n: int):
        if not 0 <= n <= self.max_row:
            raise LookupError(
                f"row {n} outside triangle built for rows 0..{self.max_row}")

    def get(self, n: int, m: int) -> int:
        self._check(n)
        return self._rows.get(n, {}).get(m, 0)

    def row(self, n: int) -> Dict[int, int]:
        self._check(n)
        return dict(self._rows.get(n, {}))

    def row_sum(self, n: int) -> int:
        self._check(n)
        return sum(self._rows.get(n, {}).values())

    def rows(self) -> Dict[int, Dict[int, int]]:
        return {n: self.row(n) for n in range(self.max_row + 1)}

    def __eq__(self, other):
        if not isinstance(other, CountTriangle):
            return NotImplemented
        return self.max_row == other.max_row and self._rows == other._rows

    def __repr__(self):
        return f"CountTriangle(rows 0..{self.max_row})"


# Statistic name -> its value on one composition.  The empty composition has
# last part 0.
STATISTICS = {"parts": len, "last": lambda comp: comp[-1] if comp else 0}


def tally(n: int, family: Family, statistic: str,
          cap: Optional[int] = BRUTE_FORCE_CAP) -> Dict[int, int]:
    """Family members of weight n tallied by a statistic from STATISTICS."""
    value = STATISTICS[statistic]
    row: Dict[int, int] = {}
    for comp in family_members(n, family, cap):
        m = value(comp)
        row[m] = row.get(m, 0) + 1
    return row


def count_by_parts(n: int, family: Family = ARNDT,
                   cap: Optional[int] = BRUTE_FORCE_CAP) -> Dict[int, int]:
    """Family members of weight n tallied by number of parts."""
    return tally(n, family, "parts", cap)


def count_by_last(n: int, family: Family = ARNDT,
                  cap: Optional[int] = BRUTE_FORCE_CAP) -> Dict[int, int]:
    """Family members of weight n tallied by last part (0 for the empty one)."""
    return tally(n, family, "last", cap)


def total_parts(n: int, cap: Optional[int] = BRUTE_FORCE_CAP) -> int:
    """Sum of the number of parts over all Arndt compositions of n."""
    return sum(m * c for m, c in tally(n, ARNDT, "parts", cap).items())


def total_last(n: int, cap: Optional[int] = BRUTE_FORCE_CAP) -> int:
    """Sum of the last part over all Arndt compositions of n.

    The empty composition contributes 0.
    """
    return sum(m * c for m, c in tally(n, ARNDT, "last", cap).items())


def reduced_antipalindromic(n: int,
                            cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """The canonical representative of each flip class of weight n.

    These are the compositions of n whose mirrored pairs all descend from the
    left; that picks exactly one member per flip class of anti-palindromic
    compositions.
    """
    return family_members(n, REDUCED_AP, cap)
