"""The catalog of rational generating functions for Arndt-type families.

One constructor per counting statement.  x always marks weight; y marks the
statistic: number of parts everywhere except gf_last_part, where it marks the
last part.  The constructors hard-code the closed rational forms; their
series are validated coefficientwise against brute-force enumeration in the
verification suite, which is the authority if the two ever disagree.

gf_arndt, gf_antipalindromic and gf_k_arndt differ only in the pair kernel,
one call of _pairs each; gf_reduced_ap is gf_arndt under a second name, held
by catalog.reduced-equals-arndt to gf_k_block(2).  gf_last_part,
gf_total_parts, gf_total_last, gf_k_arndt_total and the k-block references
stay literal, for checks against derived forms.
"""

from __future__ import annotations

from typing import Optional

from .compositions import (ALL_COMPOSITIONS, ARNDT, Family, check_k,
                           check_statistic)
from .series import BivariatePolynomial, RationalGF


def _poly(*terms):
    """(deg_x, deg_y, coeff) triples; exponent collisions are summed."""
    return BivariatePolynomial.from_terms(terms)


def _pairs(*kernel) -> RationalGF:
    """A run of descending pairs, each weighed by the kernel K(x) given as
    (deg_x, coeff) terms, then at most one part, by weight and parts:

    (1 - x^2)(1 - x + x y) / ((1 - x)(1 - x^2) - K(x) y^2)
    """
    num = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                (1, 1, 1), (3, 1, -1))
    den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                *((i, 2, -c) for i, c in kernel))
    return RationalGF(num, den)


def gf_arndt() -> RationalGF:
    """Arndt compositions by weight and number of parts: pair kernel x^3."""
    return _pairs((3, 1))


def gf_antipalindromic() -> RationalGF:
    """Anti-palindromic compositions by weight and number of parts: pair
    kernel 2x^3, since each mirrored pair can descend either way."""
    return _pairs((3, 2))


# Reduced anti-palindromic compositions by weight and number of parts: half
# of gf_antipalindromic's pair kernel 2x^3 is x^3, which is gf_arndt's.
gf_reduced_ap = gf_arndt


def gf_last_part() -> RationalGF:
    """Arndt compositions by weight and last part.

    Numerator 1 - x - x^2 - x^2 y + 2 x^3 y + 2 x^4 y - x^5 y - x^4 y^2 over
    (1 - x - x^2)(1 - x y)(1 - x^2 y), the denominator stored expanded.
    """
    num = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (2, 1, -1),
                (3, 1, 2), (4, 1, 2), (5, 1, -1), (4, 2, -1))
    den = (_poly((0, 0, 1), (1, 0, -1), (2, 0, -1))
           * _poly((0, 0, 1), (1, 1, -1))
           * _poly((0, 0, 1), (2, 1, -1)))
    return RationalGF(num, den)


def gf_total_parts() -> RationalGF:
    """Total number of parts over all Arndt compositions of each weight.

    x(1 - x + x^3 - x^4) / (1 - x - x^2)^2, the y-derivative of gf_arndt at
    y = 1 in lowest displayed form.
    """
    num = _poly((1, 0, 1), (2, 0, -1), (4, 0, 1), (5, 0, -1))
    den = (_poly((0, 0, 1), (1, 0, -1), (2, 0, -1))
           * _poly((0, 0, 1), (1, 0, -1), (2, 0, -1)))
    return RationalGF(num, den)


def gf_total_last() -> RationalGF:
    """Sum of last parts over all Arndt compositions of each weight.

    x(1 + x - x^3) / (1 - x - 2x^2 + x^3 + x^4), the y-derivative of
    gf_last_part at y = 1 in lowest displayed form.
    """
    num = _poly((1, 0, 1), (2, 0, 1), (4, 0, -1))
    den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -2), (3, 0, 1), (4, 0, 1))
    return RationalGF(num, den)


def gf_k_arndt(k: int) -> RationalGF:
    """k-Arndt compositions by weight and number of parts, any integer k: pair
    kernel x^(3+k) for k >= 0 and x^2 + x^3 - x^(2-k) for k < 0, where pairs
    whose second part is at most -k impose no constraint."""
    check_k("series", "k-arndt", k)
    return (_pairs((3 + k, 1)) if k >= 0
            else _pairs((2, 1), (3, 1), (2 - k, -1)))


def gf_k_arndt_total(k: int) -> RationalGF:
    """Number of k-Arndt compositions by weight (the y = 1 specialisation).

    (1 - x^2)/(1 - x - x^2 + x^3 - x^(k+3)) for k >= 0 and
    (1 - x^2)/(1 - x - 2x^2 + x^(2-k)) for k < 0.  k = 0 is the Fibonacci
    generating function (1 - x^2)/(1 - x - x^2).
    """
    check_k("series", "k-arndt", k)
    num = _poly((0, 0, 1), (2, 0, -1))
    if k >= 0:
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                    (3 + k, 0, -1))
    else:
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -2), (2 - k, 0, 1))
    return RationalGF(num, den)


def gf_distinct_parts(j: int) -> RationalGF:
    """Partitions with exactly j distinct parts, by weight and part count.

    x^(j(j+1)/2) y^j / prod_{l=1..j} (1 - x^l); the empty partition for
    j = 0.  These are the strictly decreasing blocks a k-block Arndt
    composition is assembled from.
    """
    check_k("series", "distinct-parts", j)
    num = _poly((j * (j + 1) // 2, j, 1))
    den = _poly((0, 0, 1))
    for l in range(1, j + 1):
        den = den * _poly((0, 0, 1), (l, 0, -1))
    return RationalGF(num, den)


def gf_k_block(k: int) -> RationalGF:
    """k-block Arndt compositions by weight and number of parts, k >= 1.

    (sum_{j=0..k-1} J_j) / (1 - J_k) in the distinct-parts series
    J_j = gf_distinct_parts(j) = x^(j(j+1)/2) y^j / D_j: a run of complete
    descending k-blocks followed by one shorter descending block.  Over the
    common denominator D_k = prod_{l=1..k} (1 - x^l) of the J_j this is
    sum_j x^(j(j+1)/2) y^j prod_{j<l<=k} (1 - x^l) / (D_k - x^(k(k+1)/2) y^k)
    """
    check_k("series", "block-arndt", k)
    num, den = BivariatePolynomial(), _poly((0, 0, 1))
    for j in reversed(range(k)):
        den = den * _poly((0, 0, 1), (j + 1, 0, -1))
        num = num + _poly((j * (j + 1) // 2, j, 1)) * den
    return RationalGF(num, den - _poly((k * (k + 1) // 2, k, 1)))


def gf_compositions() -> RationalGF:
    """All compositions by weight and number of parts: (1 - x)/(1 - x - x y)."""
    num = _poly((0, 0, 1), (1, 0, -1))
    den = _poly((0, 0, 1), (1, 0, -1), (1, 1, -1))
    return RationalGF(num, den)


# Series name -> (constructor in this module, whether it is a sequence in x
# alone); compositions.TAKES_K names those that take k.  Constructors are
# looked up by name on every call, so replacing one replaces it for all.
SERIES = {
    "arndt": ("gf_arndt", False),
    "antipalindromic": ("gf_antipalindromic", False),
    "reduced-ap": ("gf_reduced_ap", False),
    "last-part": ("gf_last_part", False),
    "total-parts": ("gf_total_parts", True),
    "total-last": ("gf_total_last", True),
    "k-arndt": ("gf_k_arndt", False),
    "block-arndt": ("gf_k_block", False),
    "distinct-parts": ("gf_distinct_parts", False),
    "compositions": ("gf_compositions", False),
}


def series_gf(name: str, k: Optional[int] = None) -> RationalGF:
    """The GF of a SERIES entry; pass k exactly when the entry takes one,
    and then an int, or get a ValueError (the rule of compositions.check_k).
    """
    make = globals()[SERIES[name][0]]
    check_k("series", name, k)
    return make() if k is None else make(k)


def statistic_series(family: Family, statistic: str) -> Optional[str]:
    """The SERIES name of the GF counting `family` by weight and `statistic`
    (a name in compositions.STATISTICS), or None where the catalog has none."""
    check_statistic(statistic)
    if statistic == "parts":
        return "compositions" if family == ALL_COMPOSITIONS else family.kind
    return "last-part" if family == ARNDT else None


def gf_k_block_reference(k: int) -> RationalGF:
    """Displayed closed forms of gf_k_block for k = 3 and k = 4.

    Kept as independent cross-checks of the assembled construction; other k
    have no displayed closed form.
    """
    if k == 3:
        num = (_poly((0, 0, 1), (3, 0, -1))
               * _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                       (1, 1, 1), (3, 1, -1), (3, 2, 1)))
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (4, 0, 1), (5, 0, 1),
                    (6, 0, -1), (6, 3, -1))
        return RationalGF(num, den)
    if k == 4:
        num = (_poly((0, 0, 1), (4, 0, -1))
               * _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (4, 0, 1),
                       (5, 0, 1), (6, 0, -1), (1, 1, 1), (3, 1, -1),
                       (4, 1, -1), (6, 1, 1), (3, 2, 1), (6, 2, -1),
                       (6, 3, 1)))
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (5, 0, 2), (8, 0, -1),
                    (9, 0, -1), (10, 0, 1), (10, 4, -1))
        return RationalGF(num, den)
    raise ValueError(f"no displayed closed form for k = {k}")


def gf_k_block_total_reference(k: int) -> RationalGF:
    """Displayed y = 1 closed forms of gf_k_block for k = 3 and k = 4."""
    if k == 3:
        num = _poly((0, 0, 1), (2, 0, -1), (5, 0, 1), (6, 0, -1))
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (4, 0, 1), (5, 0, 1),
                    (6, 0, -2))
        return RationalGF(num, den)
    if k == 4:
        num = (_poly((0, 0, 1), (1, 0, -1)) * _poly((0, 0, 1), (1, 0, 1))
               * _poly((0, 0, 1), (2, 0, 1))
               * _poly((0, 0, 1), (2, 0, -1), (5, 0, 1)))
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (5, 0, 2), (8, 0, -1),
                    (9, 0, -1))
        return RationalGF(num, den)
    raise ValueError(f"no displayed closed form for k = {k}")
