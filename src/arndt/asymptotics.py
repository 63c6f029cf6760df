"""Dominant-pole asymptotics for the counting sequences.

The transfer formula for a rational series f/g whose smallest-modulus pole is
1/beta with multiplicity nu reads

    [x^n] f(x)/g(x)  ~  nu (-beta)^nu f(1/beta) / g^(nu)(1/beta) * beta^n n^(nu-1).

Estimates here are plain double precision and are meant to be compared
against exact values from the other modules; the expected-value statistics
stay exact (Fraction) and only their limits are floating.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .formulas import fibonacci, total_last_closed, total_parts_closed
from .series import RationalGF

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# Limits of the expected-value statistics as the weight grows.
EXPECTED_PARTS_SLOPE = 3 / math.sqrt(5) - 1
EXPECTED_LAST_LIMIT = math.sqrt(5)

_ROOT_TOLERANCE = 1e-8


class PoleSpec(namedtuple("PoleSpec", "beta multiplicity", defaults=[1])):
    """Growth base beta and multiplicity nu of the pole at 1/beta."""

    __slots__ = ()

    def __new__(cls, beta: float, multiplicity: int = 1):
        if beta <= 0:
            raise ValueError(f"growth base must be positive, got {beta}")
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        return super().__new__(cls, beta, multiplicity)


def dominant_asymptotic(gf: RationalGF, pole: PoleSpec, n: int) -> float:
    """Leading-order estimate of [x^n] of a univariate rational series.

    Checks numerically that 1/beta really is a denominator root of the stated
    multiplicity (lower derivatives vanish, the nu-th does not) and raises
    ValueError otherwise.
    """
    if gf.num.degree_y() or gf.den.degree_y():
        raise ValueError("asymptotics require a univariate (y-free) series")
    x0 = 1.0 / pole.beta
    scale = sum(abs(float(v)) for _, v in gf.den.terms()) or 1.0
    g = gf.den
    for order in range(pole.multiplicity):
        if abs(g.eval_x(x0)) > _ROOT_TOLERANCE * scale:
            raise ValueError(
                f"1/beta = {x0} is not a denominator root of multiplicity "
                f"{pole.multiplicity} (derivative {order} residual too large)")
        g = g.diff_x()
    g_nu = g.eval_x(x0)
    if abs(g_nu) <= _ROOT_TOLERANCE * scale:
        raise ValueError("denominator root exceeds the declared multiplicity")
    nu = pole.multiplicity
    return (nu * (-pole.beta) ** nu * gf.num.eval_x(x0) / g_nu
            * pole.beta ** n * n ** (nu - 1))


def parts_count_asymptotic(n: int, m: int) -> float:
    """a(n, m) ~ n^(m-1) / (2^floor(m/2) (m-1)!) for fixed m >= 1."""
    if m < 1:
        raise ValueError(f"number of parts must be >= 1, got {m}")
    return float(n) ** (m - 1) / (2 ** (m // 2) * math.factorial(m - 1))


def last_count_asymptotic(n: int, m: int) -> float:
    """b(n, m) ~ phi^(n-m-2)/sqrt(5) * (1 + phi^(1-m)) for m >= 1, n >= 2m."""
    if m < 1 or n < 2 * m:
        raise ValueError(
            f"asymptotic form needs m >= 1 and n >= 2m, got n={n}, m={m}")
    phi = GOLDEN_RATIO
    return phi ** (n - m - 2) / math.sqrt(5) * (1 + phi ** (1 - m))


def expected_parts(n: int) -> Fraction:
    """Exact mean number of parts over the Arndt compositions of n (n >= 1).

    Grows like (3/sqrt(5) - 1) n.
    """
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")
    return Fraction(total_parts_closed(n), fibonacci(n))


def expected_last(n: int) -> Fraction:
    """Exact mean last part over the Arndt compositions of n (n >= 1).

    Converges to sqrt(5).
    """
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")
    return Fraction(total_last_closed(n), fibonacci(n))
