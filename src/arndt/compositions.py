"""Integer compositions and membership predicates for Arndt-type families.

A composition of n is a finite sequence of positive integers (its parts)
summing to n.  Compositions are represented as plain tuples of ints; the
empty tuple is the (valid) empty composition of weight 0.  The accessors are
the obvious ones: ``sum(c)`` is the weight, ``len(c)`` the number of parts,
``c[-1]`` the last part (undefined for the empty composition).

Families handled here, with ``l = len(c)``:

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
condition holds vacuously).  Except for k-block Arndt, each runs its loop in
C, as all() over map() of an operator function: one shared iterator hands
map the two parts of each consecutive pair, and the first half of the parts
against reversed(comp) gives each mirrored pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import gt, ne, sub
from typing import Callable, Optional, Tuple


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
    well.  Adjacent parts in the same block are exactly those whose boundary
    does not fall on a multiple of k.
    """
    if k < 1:  # check_k owns the bound and its message
        check_k("family", "block-arndt", True, k)
    return all(comp[j] > comp[j + 1]
               for j in range(len(comp) - 1) if (j + 1) % k)


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


# Family kind or series name -> the smallest k it accepts, where there is
# one: a block holds at least one part, a partition at least zero parts.
K_AT_LEAST = {"block-arndt": 1, "distinct-parts": 0}


def check_k(what: str, name: str, takes_k: bool, k) -> None:
    """The one k rule of families and series: a k exactly when `name` takes
    one, and then an int (not a bool) no smaller than K_AT_LEAST[name].
    `what` is "family" or "series"."""
    if not takes_k and k is not None:
        raise ValueError(f"{what} {name!r} takes no parameter k")
    if takes_k and type(k) is not int:
        raise ValueError(f"{what} {name!r} needs an integer k")
    least = K_AT_LEAST.get(name)
    if least is not None and k < least:
        raise ValueError(f"{what} {name!r} needs k >= {least}")


# Family kind -> (membership predicate, whether the kind takes a parameter k,
# prefix bound or None, mirror rule or None).
# The predicate defines the kind.  counting builds the members from the bound
# or the mirror rule alone, and the tests hold those walks to the predicate.
# A prefix bound maps k to (period, drop): the kind's members are exactly the
# compositions in which every part at an index j with j % period != 0 is at
# most the part before it minus drop ((1, 0) bounds no part).
# A mirror rule is for the kinds that constrain mirrored pairs, which no
# prefix decides: once the length l is fixed, a part p at an index
# i >= l - l//2 is decided by its mirror m = c[l-1-i].  The rule maps (p, m)
# to the largest part at most p allowed opposite m (below 1 if none): p != m
# for anti-palindromic, p < m for reduced representatives.  A mirror rule
# never allows p == m, so a mirrored pair weighs at least 3.
FAMILY_KINDS = {
    "arndt": (is_arndt, False, lambda k: (2, 1), None),
    "k-arndt": (is_k_arndt, True, lambda k: (2, k + 1), None),
    "block-arndt": (is_k_block_arndt, True, lambda k: (k, 1), None),
    "antipalindromic": (is_antipalindromic, False, None,
                        lambda p, m: p - (p == m)),
    "reduced-ap": (is_reduced_ap_representative, False, None,
                   lambda p, m: min(p, m - 1)),
    "all": (lambda comp: True, False, lambda k: (1, 0), None),
}


@dataclass(frozen=True)
class Family:
    """A composition family: a kind from FAMILY_KINDS, with the integer k
    that kind requires.  Kind 'all' is the unrestricted family (every
    composition is a member).
    """

    kind: str
    k: Optional[int] = None
    # The kind's predicate, looked up once: member() runs per composition.
    _test: Callable = field(init=False, repr=False, compare=False)
    # (period, drop) from the kind's prefix bound at this k, or None.
    bound: Optional[Tuple[int, int]] = field(init=False, repr=False,
                                             compare=False)
    # The kind's mirror rule, or None.
    mirror: Optional[Callable[[int, int], int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        test, takes_k, bound, mirror = FAMILY_KINDS[self.kind]
        check_k("family", self.kind, takes_k, self.k)
        object.__setattr__(self, "_test", test)
        object.__setattr__(self, "bound",
                           None if bound is None else bound(self.k))
        object.__setattr__(self, "mirror", mirror)

    def member(self, comp) -> bool:
        if self.k is None:
            return self._test(comp)
        return self._test(comp, self.k)

    def __str__(self):
        if self.k is None:
            return self.kind
        return f"{self.kind}(k={self.k})"


ARNDT = Family("arndt")
ANTIPALINDROMIC = Family("antipalindromic")
REDUCED_AP = Family("reduced-ap")
ALL_COMPOSITIONS = Family("all")
