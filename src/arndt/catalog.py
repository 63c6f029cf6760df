"""The catalog of rational generating functions for Arndt-type families.

One constructor per counting statement.  x always marks weight; y marks the
statistic: number of parts everywhere except gf_last_part, where it marks the
last part.  The constructors hard-code the closed rational forms; their
series are validated coefficientwise against brute-force enumeration in the
verification suite, which is the authority if the two ever disagree.
"""

from __future__ import annotations

from typing import Optional

from .compositions import ALL_COMPOSITIONS, Family
from .series import BivariatePolynomial, RationalGF


def _poly(*terms):
    """(deg_x, deg_y, coeff) triples; exponent collisions are summed."""
    return BivariatePolynomial.from_terms(terms)


# Shared numerator 1 - x - x^2 + x^3 + x*y - x^3*y of the Arndt-like parts GFs.
def _arndt_numerator():
    return _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                 (1, 1, 1), (3, 1, -1))


def gf_arndt() -> RationalGF:
    """Arndt compositions by weight and number of parts.

    (1 - x - x^2 + x^3 + x y - x^3 y) / (1 - x - x^2 + x^3 - x^3 y^2)
    """
    den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1), (3, 2, -1))
    return RationalGF(_arndt_numerator(), den)


def gf_antipalindromic() -> RationalGF:
    """Anti-palindromic compositions by weight and number of parts.

    Same numerator as gf_arndt over 1 - x - x^2 + x^3 - 2 x^3 y^2: each
    mirrored pair can descend either way, doubling the pair kernel.
    """
    den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1), (3, 2, -2))
    return RationalGF(_arndt_numerator(), den)


def gf_reduced_ap() -> RationalGF:
    """Reduced anti-palindromic compositions by weight and number of parts.

    Halving the pair kernel of gf_antipalindromic gives back exactly the
    polynomials of gf_arndt; the two constructors are interchangeable.
    """
    den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1), (3, 2, -1))
    return RationalGF(_arndt_numerator(), den)


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
    """k-Arndt compositions by weight and number of parts, any integer k.

    Numerator (1 - x^2)(1 - x(1 - y)) in both cases; the denominator kernel
    x^(3+k) y^2 for k >= 0 becomes x^2 y^2 + x^3 y^2 - x^(2-k) y^2 for k < 0,
    where pairs whose second part is at most -k impose no constraint.
    """
    num = _poly((0, 0, 1), (2, 0, -1)) * _poly((0, 0, 1), (1, 0, -1), (1, 1, 1))
    if k >= 0:
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                    (3 + k, 2, -1))
    else:
        den = _poly((0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1),
                    (2, 2, -1), (3, 2, -1), (2 - k, 2, 1))
    return RationalGF(num, den)


def gf_k_arndt_total(k: int) -> RationalGF:
    """Number of k-Arndt compositions by weight (the y = 1 specialisation).

    (1 - x^2)/(1 - x - x^2 + x^3 - x^(k+3)) for k >= 0 and
    (1 - x^2)/(1 - x - 2x^2 + x^(2-k)) for k < 0.  k = 0 is the Fibonacci
    generating function (1 - x^2)/(1 - x - x^2).
    """
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
    if j < 0:
        raise ValueError(f"number of distinct parts must be >= 0, got {j}")
    num = _poly((j * (j + 1) // 2, j, 1))
    den = BivariatePolynomial.one()
    for l in range(1, j + 1):
        den = den * _poly((0, 0, 1), (l, 0, -1))
    return RationalGF(num, den)


def gf_k_block(k: int) -> RationalGF:
    """k-block Arndt compositions by weight and number of parts, k >= 1.

    (sum_{j=0..k-1} J_j) / (1 - J_k) in the distinct-parts series
    J_j = gf_distinct_parts(j): a run of complete descending k-blocks
    followed by one shorter descending block.  Over the common denominator
    D_k = prod_{l=1..k} (1 - x^l) of the J_j this is
    sum_j J_j.num prod_{j<l<=k} (1 - x^l) / (D_k - J_k.num).
    """
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    full = gf_distinct_parts(k)
    num, tail = BivariatePolynomial.zero(), BivariatePolynomial.one()
    for j in reversed(range(k)):
        tail = tail * _poly((0, 0, 1), (j + 1, 0, -1))
        num = num + gf_distinct_parts(j).num * tail
    return RationalGF(num, full.den - full.num)


def gf_compositions() -> RationalGF:
    """All compositions by weight and number of parts: (1 - x)/(1 - x - x y)."""
    num = _poly((0, 0, 1), (1, 0, -1))
    den = _poly((0, 0, 1), (1, 0, -1), (1, 1, -1))
    return RationalGF(num, den)


# Series name -> (constructor in this module, whether it takes k, whether it
# is a sequence in x alone).  Constructors are looked up by name on every
# call, so replacing one in this module replaces it for every caller.
SERIES = {
    "arndt": ("gf_arndt", False, False),
    "antipalindromic": ("gf_antipalindromic", False, False),
    "reduced-ap": ("gf_reduced_ap", False, False),
    "last-part": ("gf_last_part", False, False),
    "total-parts": ("gf_total_parts", False, True),
    "total-last": ("gf_total_last", False, True),
    "k-arndt": ("gf_k_arndt", True, False),
    "block-arndt": ("gf_k_block", True, False),
    "distinct-parts": ("gf_distinct_parts", True, False),
    "compositions": ("gf_compositions", False, False),
}


def series_gf(name: str, k: Optional[int] = None) -> RationalGF:
    """The GF of a SERIES entry; pass k exactly when the entry takes one."""
    constructor, takes_k, _ = SERIES[name]
    make = globals()[constructor]
    return make(k) if takes_k else make()


def parts_series(family: Family) -> str:
    """The SERIES name of a family's GF by weight and number of parts.

    Each restricted family's series carries its kind as name; the
    unrestricted family is counted by all compositions.
    """
    return "compositions" if family == ALL_COMPOSITIONS else family.kind


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
