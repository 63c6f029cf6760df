"""Integer compositions and membership predicates for Arndt-type families.

A composition of n is a finite sequence of positive integers (its parts)
summing to n.  Compositions are represented as plain tuples of ints; the
empty tuple is the (valid) empty composition of weight 0.  The accessors are
the obvious ones: ``sum(c)`` is the weight, ``len(c)`` the number of parts,
``c[-1]`` the last part (undefined for the empty composition).  STATISTICS
names the two that the paper counts by, for every route.

A family is the named tuple Family(kind, k); the kinds, with ``l = len(c)``:

* Arndt: each complete consecutive pair descends, c[0] > c[1], c[2] > c[3],
  and so on; a trailing unpaired part is unconstrained.
* k-Arndt: the pair descent is by more than k, c[2i] > c[2i+1] + k.  Negative
  k weakens the constraint (k = 0 is the Arndt condition).
* k-block Arndt: every block of k consecutive parts is strictly decreasing,
  and a trailing block of fewer than k parts must be strictly decreasing too
  (k = 2 is the Arndt condition, k = 1 no condition at all).
* anti-palindromic: mirrored parts differ, c[i] != c[l-1-i] for every pair of
  distinct mirrored positions; the middle part of an odd-length composition
  is exempt.
* reduced anti-palindromic representative: every mirrored pair descends from
  the left, c[i] > c[l-1-i].  Anti-palindromic compositions fall into flip
  classes of size 2^(l//2) under swapping mirrored pairs, and each class
  contains exactly one such representative.

All predicates are pure and accept the empty composition (every pair
condition holds vacuously).  Each runs its loops in C, as all() over map() of
an operator function: one shared iterator hands map the two parts of each
consecutive pair, the first half of the parts against reversed(comp) gives
each mirrored pair, and k-block Arndt takes one all() per offset in a block.
"""

from __future__ import annotations

from collections import namedtuple
from operator import gt, lt, ne, sub
from typing import Callable, Dict, Optional, Tuple


def is_arndt(comp) -> bool:
    """True if every complete consecutive pair descends."""
    pairs = iter(comp)  # map draws the two parts of a pair in turn
    return all(map(gt, pairs, pairs))


def is_k_arndt(comp, k: int) -> bool:
    """True if every complete consecutive pair descends by more than k."""
    pairs = iter(comp)
    return all(map(k.__lt__, map(sub, pairs, pairs)))


def is_k_block_arndt(comp, k: int) -> bool:
    """True if every block of k consecutive parts is strictly decreasing.

    A trailing block of fewer than k parts must be strictly decreasing as
    well.  The adjacent parts in a block at offsets r and r + 1 are the
    parts comp[r::k] against comp[r + 1::k], for each r < k - 1.
    """
    if k < 1:  # check_k owns the bound and its message
        check_k("family", "block-arndt", k)
    for r in range(k - 1):
        if not all(map(gt, comp[r::k], comp[r + 1::k])):
            return False
    return True


def is_antipalindromic(comp) -> bool:
    """True if all mirrored parts differ (middle of an odd length exempt)."""
    return all(map(ne, comp[:len(comp) // 2], reversed(comp)))


def is_reduced_ap_representative(comp) -> bool:
    """True if every mirrored pair descends from the left, c[i] > c[l-1-i].

    Such a composition is automatically anti-palindromic and is the canonical
    representative of its flip class.
    """
    return all(map(gt, comp[:len(comp) // 2], reversed(comp)))


def flip_class(comp) -> set:
    """All compositions obtained by swapping any subset of mirrored pairs.

    The input must be anti-palindromic; the result then has exactly
    2^(len(comp)//2) members, exactly one of which passes
    is_reduced_ap_representative.
    """
    if not is_antipalindromic(comp):
        raise ValueError(f"{comp!r} is not anti-palindromic")
    l = len(comp)
    half = l // 2
    out = set()
    for mask in range(1 << half):
        v = list(comp)
        for i in range(half):
            if mask >> i & 1:
                v[i], v[l - 1 - i] = v[l - 1 - i], v[i]
        out.add(tuple(v))
    return out


# Statistic name -> (its value on a composition, what parts placed in front
# of a composition add to that value).  The empty composition has last part 0.
STATISTICS = {"parts": (len, len),
              "last": (lambda comp: comp[-1] if comp else 0, lambda p: 0)}


def check_statistic(name: str) -> tuple:
    """STATISTICS[name]; every route refuses another name by this ValueError."""
    if name not in STATISTICS:
        raise ValueError(f"unknown statistic {name!r}")
    return STATISTICS[name]


def sparse_row(row: list) -> Dict[int, int]:
    """A row of counts, cell m at index m, as {m: count} of its nonzero cells."""
    return {m: count for m, count in enumerate(row) if count}


# Family kind or series name -> its least k, None for any int; an absent
# name takes no k.  A block holds at least one part, a partition at least 0.
TAKES_K = {"k-arndt": None, "block-arndt": 1, "distinct-parts": 0}


def check_k(what: str, name: str, k) -> None:
    """The one k rule of families and series: a k exactly when `name` is in
    TAKES_K, and then an int (not a bool) no smaller than its least k.
    `what` is "family" or "series"."""
    if name not in TAKES_K:
        if k is not None:
            raise ValueError(f"{what} {name!r} takes no parameter k")
    elif type(k) is not int:
        raise ValueError(f"{what} {name!r} needs an integer k")
    elif TAKES_K[name] is not None and k < TAKES_K[name]:
        raise ValueError(f"{what} {name!r} needs k >= {TAKES_K[name]}")


# Family kind -> (membership predicate, prefix bound or None, mirror
# comparison or None).
# The predicate defines the kind.  counting builds the members from the bound
# or the comparison alone, and the tests hold those walks to the predicate.
# A prefix bound maps k to (period, drop): the kind's members are exactly the
# compositions in which every part at an index j with j % period != 0 is at
# most the part before it minus drop ((1, 0) bounds no part).
# A mirror comparison is for the kinds that constrain mirrored pairs, which
# no prefix decides: with the length l fixed, a part p at an index
# i >= l - l//2 is allowed opposite its mirror m = c[l-1-i] when mirror(p, m)
# holds: p != m for anti-palindromic, p < m for reduced representatives.
# Neither allows p == m, so a mirrored pair weighs at least 3.
FAMILY_KINDS = {
    "arndt": (is_arndt, lambda k: (2, 1), None),
    "k-arndt": (is_k_arndt, lambda k: (2, k + 1), None),
    "block-arndt": (is_k_block_arndt, lambda k: (k, 1), None),
    "antipalindromic": (is_antipalindromic, None, ne),
    "reduced-ap": (is_reduced_ap_representative, None, lt),
    "all": (lambda comp: True, lambda k: (1, 0), None),
}


class Family(namedtuple("Family", "kind k", defaults=[None])):
    """A composition family: a kind from FAMILY_KINDS with the k it needs;
    kind 'all' is every composition.  bound, mirror and member read the
    kind's row there when called, so that table alone says what a kind is."""

    __slots__ = ()

    def __new__(cls, kind: str, k: Optional[int] = None):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        check_k("family", kind, k)
        return super().__new__(cls, kind, k)

    @property
    def bound(self) -> Optional[Tuple[int, int]]:
        """(period, drop) from the kind's prefix bound at this k, or None."""
        bound = FAMILY_KINDS[self.kind][1]
        return None if bound is None else bound(self.k)

    @property
    def mirror(self) -> Optional[Callable[[int, int], bool]]:
        return FAMILY_KINDS[self.kind][2]

    def member(self, comp) -> bool:
        test = FAMILY_KINDS[self.kind][0]
        return test(comp) if self.k is None else test(comp, self.k)

    def __str__(self):
        return self.kind if self.k is None else f"{self.kind}(k={self.k})"


ARNDT = Family("arndt")
ANTIPALINDROMIC = Family("antipalindromic")
REDUCED_AP = Family("reduced-ap")
ALL_COMPOSITIONS = Family("all")
