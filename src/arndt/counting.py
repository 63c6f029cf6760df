"""Exhaustive composition generation and brute-force counting.

Everything in this module enumerates actual compositions and tallies them;
there are no generating functions and no closed forms here, and nothing is
imported from the series or formula routes.  It is the ground truth that
those two routes are checked against.

compositions_of yields all 2^(n-1) compositions of weight n;
family_members streams one family's members, and family_blocks the same as
(prefix, tails) blocks.  A family whose condition bounds each part by the
one before it (Arndt, k-Arndt, k-block Arndt; no part for compositions_of)
is walked depth first over the prefixes that the bound allows, and a prefix
that leaves little weight is paired with the stored members of that weight.
A family whose condition is on mirrored pairs is walked over prefixes with
their allowed lengths, each block finished per length and sorted in C.
All paths yield in the same order.  The bound or the mirror rule alone
builds the members: no walk calls a predicate.  The predicates in
compositions define the families, and the tests hold every walk to the
predicate-filtered stream.  tally counts a block at a time, each tail list
in C.

Counts are exact Python ints (unbounded).  A default cap refuses weights
beyond BRUTE_FORCE_CAP on every path unless the caller raises it;
check_weight is that one guard.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional

# The two predicates are bound here only so that benchmarks/spans.py can
# patch these names; nothing in this module calls them.
from .compositions import (ALL_COMPOSITIONS, ARNDT, REDUCED_AP,  # noqa: F401
                           Family, is_arndt, is_reduced_ap_representative)

BRUTE_FORCE_CAP = 28


class BruteForceCapExceeded(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


def check_weight(n: int, cap: Optional[int]):
    """Refuse a negative weight, and one above cap unless cap is None."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if cap is not None and n > cap:
        raise BruteForceCapExceeded(
            f"enumerating weight {n} means 2^{n - 1} compositions; the cap "
            f"is {cap} (override it to proceed)")


def compositions_of(n: int, cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """Yield every composition of n exactly once, in decreasing lex order.

    The order is lexicographically decreasing on part tuples: (4), (3,1),
    (2,2), (2,1,1), (1,3), (1,2,1), (1,1,2), (1,1,1,1).  For n = 0 the only
    composition is the empty tuple; for n >= 1 there are 2^(n-1).

    Pass cap=None (or a larger value) to enumerate past the default cap.
    """
    yield from family_members(n, ALL_COMPOSITIONS, cap)


# A prefix that ends a block with at most this much weight left is finished
# from the stored members of that weight: at most 2^TAIL_WEIGHT - 1 tails.
TAIL_WEIGHT = 12
WHOLE = ((),)  # the tails of a member that the walk finishes by itself


class Stored(list):
    """The members of one weight for one stream, hashed by identity: a
    writer keys what it makes of them on the list."""
    __hash__ = object.__hash__


def _descend(n: int, family: Family, cap: Optional[int],
             tails: Dict[int, Stored]) -> Iterator[tuple]:
    """Yield as blocks, in decreasing lex order, the members of weight n of
    a family with prefix bound (period, drop): in them every part at an
    index j with j % period != 0 is at most the part before it minus drop.

    Depth first, largest part first: a prefix is extended by the largest
    part that its bound and the weight left allow.  Backtracking lowers the
    last part by one, and drops it where it cannot go lower, or where no
    part may follow it.  A nonempty prefix whose length is a multiple of
    period, with r <= TAIL_WEIGHT left, comes with tails[r], the members of
    weight r (one dict serves the stream, filled on use); one of weight n
    with WHOLE.  Every prefix the bound allows is a member, and so is its
    join to a tail: a block end is never bounded by the part before it."""
    check_weight(n, cap)
    period, drop = family.bound
    parts: List[int] = []
    rest = n  # weight not yet placed
    while True:
        ends_block = len(parts) % period == 0
        if rest == 0 or ends_block and parts and rest <= TAIL_WEIGHT:
            if rest and rest not in tails:
                tails[rest] = Stored(_joined(
                    _descend(rest, family, None, tails)))
            yield tuple(parts), tails[rest] if rest else WHOLE
        else:
            top = rest if ends_block else min(rest, parts[-1] - drop)
            if top < 1:  # a lower last part would only lower the bound after it
                rest += parts.pop()
            else:
                parts.append(top)
                rest -= top
                continue
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        rest += 1


def _mirrored_length(parts: List[int], rest: int, length: int,
                     allow: Callable[[int, int], int],
                     least: int) -> Iterator[tuple]:
    """Yield, in decreasing lex order, the tails of weight rest that extend
    `parts` to `length` parts whose parts at indices i >= length - length//2
    are allowed opposite their mirror by the mirror rule `allow`, and whose
    first-half parts are at least `least`.  Depth first, largest part first:
    a part leaves 1 for each later slot and 1 more for each later pair, and
    the last takes the whole rest or the prefix is a dead end.  Backtracking
    lowers the deepest part past the prefix that can go lower."""
    pairs = length // 2
    free = length - pairs  # parts below this index have no mirror yet
    last = length - 1
    parts = list(parts)
    i = fixed = len(parts)  # the index of the next part
    while True:
        top = rest - (last - i)
        if i >= free:
            top = allow(top, parts[last - i])
        elif i < pairs:
            top -= pairs - 1 - i
        if top >= (least if i < pairs else 1) and (i < last or top == rest):
            parts.append(top)
            if i < last:
                rest -= top
                i += 1
                continue
            yield tuple(parts[fixed:])
            parts.pop()
        while i > fixed:
            i -= 1
            lower = parts[i] - 1
            if i >= free:
                lower = allow(lower, parts[last - i])
            if lower >= (least if i < pairs else 1):
                rest += parts[i] - lower
                parts[i] = lower
                i += 1
                break
            rest += parts.pop()
        else:
            return


def _mirrored(n: int, family: Family,
              cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """Yield as blocks, in decreasing lex order, the members of weight n of
    a family with a mirror rule.  Depth first, largest part first, over
    prefixes with the lengths they allow, as in _mirrored_length; a new part
    is tested against its mirror or `least` only, so a prefix that leaves
    nothing is a member once a length fits it.  A nonempty prefix with at
    most TAIL_WEIGHT left is finished for each length it allows, and its
    tails are those runs sorted into one in C."""
    check_weight(n, cap)
    allow = family.mirror
    least = next((x for x in range(1, n + 1) if allow(n, x) >= 1), n + 1)

    def walk(parts: tuple, rest: int, lengths: List[int]) -> Iterator[tuple]:
        i = len(parts)
        for x in range(rest, 0, -1):
            fits = [l for l in lengths
                    if (x == rest if l == i + 1 else
                        x <= rest - (l - 1 - i) - max(0, l // 2 - 1 - i))
                    and (x >= least if i < l // 2 else
                         i < l - l // 2 or allow(x, parts[l - 1 - i]) == x)]
            prefix, left = (*parts, x), rest - x
            if not fits:
                continue
            if left > TAIL_WEIGHT:
                yield from walk(prefix, left, fits)
            elif not left:
                yield prefix, WHOLE
            elif tails := Stored(sorted(chain.from_iterable(
                    _mirrored_length(prefix, left, length, allow, least)
                    for length in fits), reverse=True)):
                yield prefix, tails

    yield from walk((), n, list(range(1, n + 1))) if n else [((), WHOLE)]


def family_blocks(n: int, family: Family,
                  cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """The members of a family at weight n, in the order of compositions_of,
    as (prefix, tails) blocks: the prefix joined to each tail, in order.
    The family's bound or mirror rule builds them; no predicate is called.
    Tails are WHOLE or a Stored list, which a walked family shares among
    its blocks with that weight left, and a mirrored one makes per block."""
    if family.mirror is None:
        return _descend(n, family, cap, {})
    return _mirrored(n, family, cap)


def _joined(blocks: Iterable[tuple]) -> Iterator[tuple]:
    return chain.from_iterable(map(p.__add__, tails) for p, tails in blocks)


def family_members(n: int, family: Family,
                   cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """The members of a family at weight n, in the order of compositions_of:
    the blocks of family_blocks joined in C."""
    return _joined(family_blocks(n, family, cap))


# Statistic name -> (its value on one composition, what a block's prefix
# adds to it for each tail).  The empty composition has last part 0.
STATISTICS = {"parts": (len, len),
              "last": (lambda comp: comp[-1] if comp else 0, lambda p: 0)}


def tally(n: int, family: Family, statistic: str,
          cap: Optional[int] = BRUTE_FORCE_CAP) -> Dict[int, int]:
    """Family members of weight n tallied by a statistic from STATISTICS, a
    tail list counted once in C and shifted per block by its prefix."""
    value, shift = STATISTICS[statistic]
    counted = lru_cache(TAIL_WEIGHT + 1)(
        lambda tails: Counter(map(value, tails)).items())
    row: Counter = Counter()
    for prefix, tails in family_blocks(n, family, cap):
        add = shift(prefix)
        row.update({value(prefix): 1} if tails is WHOLE else
                   {m + add: count for m, count in counted(tails)})
    return dict(row)


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
    """Sum of the last part over all Arndt compositions of n (0 for ())."""
    return sum(m * c for m, c in tally(n, ARNDT, "last", cap).items())


def reduced_antipalindromic(n: int,
                            cap: Optional[int] = BRUTE_FORCE_CAP) -> Iterator[tuple]:
    """The canonical representative of each flip class of weight n: the
    compositions of n whose mirrored pairs all descend from the left, one
    per flip class of anti-palindromic compositions."""
    return family_members(n, REDUCED_AP, cap)
