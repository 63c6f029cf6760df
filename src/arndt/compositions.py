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
condition holds vacuously).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


def is_arndt(comp) -> bool:
    """True if every complete consecutive pair descends."""
    return all(comp[i] > comp[i + 1] for i in range(0, len(comp) - 1, 2))


def is_k_arndt(comp, k: int) -> bool:
    """True if every complete consecutive pair descends by more than k."""
    return all(comp[i] > comp[i + 1] + k for i in range(0, len(comp) - 1, 2))


def is_k_block_arndt(comp, k: int) -> bool:
    """True if every block of k consecutive parts is strictly decreasing.

    A trailing block of fewer than k parts must be strictly decreasing as
    well.  Adjacent parts in the same block are exactly those whose boundary
    does not fall on a multiple of k.
    """
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    return all(comp[j] > comp[j + 1]
               for j in range(len(comp) - 1) if (j + 1) % k)


def is_antipalindromic(comp) -> bool:
    """True if all mirrored parts differ (middle of an odd length exempt)."""
    l = len(comp)
    return all(comp[i] != comp[l - 1 - i] for i in range(l // 2))


def is_reduced_ap_representative(comp) -> bool:
    """True if every mirrored pair descends from the left, c[i] > c[l-1-i].

    Such a composition is automatically anti-palindromic and is the canonical
    representative of its flip class.
    """
    l = len(comp)
    return all(comp[i] > comp[l - 1 - i] for i in range(l // 2))


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


# Family kind -> (membership predicate, whether the kind takes a parameter k,
# smallest k it accepts or None for any integer).
FAMILY_KINDS = {
    "arndt": (is_arndt, False, None),
    "k-arndt": (is_k_arndt, True, None),
    "block-arndt": (is_k_block_arndt, True, 1),
    "antipalindromic": (is_antipalindromic, False, None),
    "reduced-ap": (is_reduced_ap_representative, False, None),
    "all": (lambda comp: True, False, None),
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

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        test, takes_k, min_k = FAMILY_KINDS[self.kind]
        if not takes_k and self.k is not None:
            raise ValueError(f"family {self.kind!r} takes no parameter k")
        if takes_k and (self.k is None
                        or min_k is not None and self.k < min_k):
            need = "an integer k" if min_k is None else f"k >= {min_k}"
            raise ValueError(f"family {self.kind!r} needs {need}")
        object.__setattr__(self, "_test", test)

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
