"""Exhaustive composition generation and brute-force counting.

Everything in this module enumerates actual compositions and tallies them;
there are no generating functions and no closed forms here, and nothing is
imported from the series or formula routes.  It is the ground truth that
those two routes are checked against.

compositions_of yields all 2^(n-1) compositions of weight n; family_members
streams one family's members, and family_blocks the same as (prefix, tails)
blocks.  A family whose condition bounds each part by the one before it
(Arndt, k-Arndt, k-block Arndt; no part for compositions_of) is walked depth
first over the prefixes that the bound allows, and a prefix that leaves
little weight is paired with the members of that weight that _stored holds
for the bound, the same lists for every stream.  A family whose condition is
on mirrored pairs is walked over prefixes with their allowed lengths, and a
prefix that leaves little weight selects its tails from the stored
compositions of that weight, in C, by one bit mask made of cached masks
(lengths, parts refused opposite a mirror, members framed by the last
parts); nothing is sorted.  All paths yield in order.  The bound or the
mirror comparison alone builds the members: no walk calls a predicate.  The
predicates in compositions define the families, and the tests hold every
walk to the predicate-filtered stream.  tally is the one brute-force count:
members by a statistic of compositions.STATISTICS, a block at a time, each
tail list in C.

Counts are exact Python ints (unbounded).  Every brute-force stream starts at
family_blocks, which refuses a negative weight at its first draw.  No stream
takes a cap: the CLI, where a weight comes from outside, refuses one above
its --max-n before it starts a stream.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, compress
from typing import Dict, Iterable, Iterator, List

# The two predicates are bound here only so that benchmarks/spans.py can
# patch these names; nothing in this module calls them.
from .compositions import (ALL_COMPOSITIONS, check_statistic,  # noqa: F401
                           Family, is_arndt, is_reduced_ap_representative)

def compositions_of(n: int) -> Iterator[tuple]:
    """Yield every composition of n exactly once, in decreasing lex order.

    The order is lexicographically decreasing on part tuples: (4), (3,1),
    (2,2), (2,1,1), (1,3), (1,2,1), (1,1,2), (1,1,1,1).  For n = 0 the only
    composition is the empty tuple; for n >= 1 there are 2^(n-1).
    """
    yield from family_members(n, ALL_COMPOSITIONS)


# A prefix that ends a block with at most this much weight left is finished
# from the stored members of that weight: at most 2^TAIL_WEIGHT - 1 tails.
TAIL_WEIGHT = 12
WHOLE = ((),)  # the tails of a member that the walk finishes by itself


class Stored(list):
    """Tails of one weight, read only (a stored list serves every stream),
    hashed by identity: a writer keys what it makes of them on the list."""
    __hash__ = object.__hash__


def _descend(n: int, bound: tuple) -> Iterator[tuple]:
    """Yield as blocks, in decreasing lex order, the members of weight n of
    the families with prefix bound (period, drop): in them every part at an
    index j with j % period != 0 is at most the part before it minus drop.

    Depth first, largest part first: a prefix is extended by the largest
    part that its bound and the weight left allow.  Backtracking lowers the
    last part by one, and drops it where it cannot go lower, or where no
    part may follow it.  A nonempty prefix whose length is a multiple of
    period, with r <= TAIL_WEIGHT left, comes with _stored(r, bound), one
    of weight n with WHOLE.  Every prefix the bound allows is a member, and
    so is its join to a tail: no block end is bounded by the part before."""
    period, drop = bound
    parts: List[int] = []
    rest = n  # weight not yet placed
    while True:
        ends_block = len(parts) % period == 0
        if rest == 0 or ends_block and parts and rest <= TAIL_WEIGHT:
            yield tuple(parts), _stored(rest, bound) if rest else WHOLE
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


@lru_cache(TAIL_WEIGHT)  # one bound's weights: building w reads 1..w - 1
def _stored(weight: int, bound: tuple) -> Stored:
    """The members of weight 1..TAIL_WEIGHT of the families with this prefix
    bound: one list, while cached, for every stream and every mirror."""
    return Stored(_joined(_descend(weight, bound)))


# compress reads a selector of one byte per member: "0" and "1" to 0 and 1.
_SELECT = bytes.maketrans(b"01", b"\0\1")


@lru_cache(2 * TAIL_WEIGHT + 2)
def _frames(rest: int, mirror) -> tuple:
    """(lengths, refused, nonmember): masks over the 2^(rest-1) compositions
    of rest in decreasing lex order, bit 2^(rest-1) - 1 - i for the i-th.
    lengths[L] holds those of L parts; refused[s][v], for v <= rest + 1,
    those whose part s from the end p fails mirror(p, v) (none for v =
    rest + 1, so a larger mirror is read as rest + 1); nonmember[j] those
    whose parts before the last j are no member.  Each is built from
    _frames(rest - x) for each first part x by shifts and ORs: no loop runs
    over the compositions."""
    if not rest:
        return [1], [[0, 0]], [0, 0]
    lengths = [0] * (rest + 1)
    refused = [[0] * (rest + 2) for _ in range(rest + 1)]
    nonmember = [0] * (rest + 2)
    for x in range(rest, 0, -1):  # (x,) + u for each u of weight r
        r = rest - x
        sub_lengths, sub_refused, sub_nonmember = _frames(r, mirror)
        at = (1 << rest - 1) - (1 << r)  # the compositions after these
        for s, m in enumerate(sub_lengths):  # x is part s from the end
            lengths[s + 1] |= m << at
            nonmember[s] |= (sub_refused[s][min(x, r + 1)]
                             | sub_nonmember[s + 1]) << at
            for v, mask in enumerate(refused[s]):
                refused[s][v] = mask | (sub_refused[s][min(v, r + 1)] | (
                    0 if mirror(x, v) else m)) << at
    return lengths, refused, nonmember


def _mirrored(n: int, mirror) -> Iterator[tuple]:
    """Yield as blocks, in decreasing lex order, the members of weight n of
    the family with this mirror comparison.  Depth first, largest part
    first, over prefixes with the lengths l they allow; a new part is tested
    against its mirror or `least` only, so a prefix that leaves nothing is a
    member once a length fits it.  A prefix of j parts with 0 < left <=
    TAIL_WEIGHT is finished by one mask (_frames) over the stored
    compositions of left: for l < 2j a tail of l - j parts faces the prefix, and for
    l >= 2j its last j parts face the prefix reversed around a member."""
    least = 2 - mirror(2, 1)  # the least part that another may face

    def finish(prefix: tuple, left: int, fits: List[int]) -> Stored:
        j = len(prefix)
        lengths, refused, nonmember = _frames(left, mirror)
        keep = sum(lengths[l - j] for l in fits if l < 2 * j)  # disjoint
        if fits[-1] >= 2 * j:  # from 2j up, around a member (so j <= left)
            keep |= sum(lengths[j:]) & ~nonmember[j]
        for s in range(min(j, left)):
            keep &= ~refused[s][min(prefix[s], left + 1)]
        comps = _stored(left, ALL_COMPOSITIONS.bound)
        return Stored(compress(comps, format(keep, f"0{len(comps)}b")
                               .encode().translate(_SELECT)))

    def walk(parts: tuple, rest: int, lengths: List[int]) -> Iterator[tuple]:
        i = len(parts)
        for x in range(rest, 0, -1):
            fits = [l for l in lengths
                    if (x == rest if l == i + 1 else
                        x <= rest - (l - 1 - i) - max(0, l // 2 - 1 - i))
                    and (x >= least if i < l // 2 else
                         i < l - l // 2 or mirror(x, parts[l - 1 - i]))]
            prefix, left = (*parts, x), rest - x
            if not fits:
                continue
            if left > TAIL_WEIGHT:
                yield from walk(prefix, left, fits)
            elif not left:
                yield prefix, WHOLE
            elif tails := finish(prefix, left, fits):
                yield prefix, tails

    yield from walk((), n, list(range(1, n + 1))) if n else [((), WHOLE)]


def family_blocks(n: int, family: Family) -> Iterator[tuple]:
    """Every brute-force stream, refused at its first draw if n < 0: a
    family's members of weight n in the order of compositions_of, as
    (prefix, tails) blocks, built by its bound or mirror comparison, not a
    predicate.  Tails are WHOLE or a Stored list, which a walked family
    shares with every stream of its bound; a mirror makes one per block."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    yield from (_descend(n, family.bound) if family.mirror is None
                else _mirrored(n, family.mirror))


def _joined(blocks: Iterable[tuple]) -> Iterator[tuple]:
    return chain.from_iterable(map(p.__add__, tails) for p, tails in blocks)


def family_members(n: int, family: Family) -> Iterator[tuple]:
    """The members of a family at weight n, in the order of compositions_of:
    the blocks of family_blocks joined in C."""
    return _joined(family_blocks(n, family))


def tally(n: int, family: Family, statistic: str) -> Dict[int, int]:
    """Family members of weight n tallied by a statistic from STATISTICS, a
    tail list counted once in C, added to one row shifted by its prefix."""
    value, shift = check_statistic(statistic)
    counted = lru_cache(TAIL_WEIGHT + 1)(
        lambda tails: Counter(map(value, tails)).items())
    row: Counter = Counter()
    for prefix, tails in family_blocks(n, family):
        if tails is WHOLE:
            row[value(prefix)] += 1
            continue
        add = shift(prefix)
        for m, count in counted(tails):
            row[m + add] += count
    return dict(row)
