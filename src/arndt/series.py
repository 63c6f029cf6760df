"""Exact bivariate polynomials, rational generating functions, and truncated
series expansion.

Coefficients are plain ints: every catalog GF has integer coefficients over
a denominator with constant term 1, so expansion never divides; any other
exact input expands through one rational division.  Integrality of
combinatorial answers is asserted at extraction time, never assumed.
Rational arithmetic is plain cross-multiplication with no gcd normalisation:
the catalog writes each GF over its natural denominator, so degrees stay
small, and the denominator * expansion == numerator round-trip check in the
verification suite guards correctness.

Conventions: exponent pairs are (deg_x, deg_y); a polynomial is "univariate"
when every stored term has deg_y == 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

DEFAULT_ORDER = 64


class BivariatePolynomial:
    """Finitely many exact terms c * x^i * y^j, stored sparsely."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[Tuple[int, int], int] = None):
        clean = {}
        for (i, j), v in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            if v:
                clean[(i, j)] = v
        self._coeffs = clean

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, int, int]]):
        """Build from (deg_x, deg_y, coeff) triples; repeats are summed."""
        coeffs = {}
        for i, j, v in terms:
            key = (i, j)
            coeffs[key] = coeffs.get(key, 0) + v
        return cls(coeffs)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def coefficient(self, i: int, j: int = 0) -> int:
        return self._coeffs.get((i, j), 0)

    def terms(self):
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant(self) -> int:
        return self.coefficient(0, 0)

    def degree_y(self) -> int:
        return max((j for _, j in self._coeffs), default=0)

    def __add__(self, other: "BivariatePolynomial"):
        coeffs = dict(self._coeffs)
        for key, v in other._coeffs.items():
            coeffs[key] = coeffs.get(key, 0) + v
        return BivariatePolynomial(coeffs)

    def __neg__(self):
        return BivariatePolynomial({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other: "BivariatePolynomial"):
        return self + (-other)

    def __mul__(self, other: "BivariatePolynomial"):
        coeffs = {}
        for (i1, j1), v1 in self._coeffs.items():
            for (i2, j2), v2 in other._coeffs.items():
                key = (i1 + i2, j1 + j2)
                coeffs[key] = coeffs.get(key, 0) + v1 * v2
        return BivariatePolynomial(coeffs)

    def scale(self, factor) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {k: v * factor for k, v in self._coeffs.items()})

    def diff_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, j - 1): v * j for (i, j), v in self._coeffs.items() if j})

    def diff_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i - 1, j): v * i for (i, j), v in self._coeffs.items() if i})

    def subst_y1(self) -> "BivariatePolynomial":
        """Substitute y = 1, collapsing to a polynomial in x alone."""
        coeffs = {}
        for (i, _), v in self._coeffs.items():
            coeffs[(i, 0)] = coeffs.get((i, 0), 0) + v
        return BivariatePolynomial(coeffs)

    def truncate_x(self, order: int) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {k: v for k, v in self._coeffs.items() if k[0] <= order})

    def eval_x(self, x):
        """Evaluate a univariate (y-free) polynomial at x."""
        if self.degree_y() != 0:
            raise ValueError("polynomial still involves y")
        return sum((v * x ** i for (i, _), v in self._coeffs.items()),
                   start=0 * x)

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        if not self._coeffs:
            return "BivariatePolynomial(0)"
        bits = []
        for (i, j), v in sorted(self._coeffs.items()):
            term = str(v)
            if i:
                term += f"*x^{i}" if i > 1 else "*x"
            if j:
                term += f"*y^{j}" if j > 1 else "*y"
            bits.append(term)
        return f"BivariatePolynomial({' + '.join(bits)})"


class TruncatedSeries:
    """Exact coefficients c(n, m) of a formal series, kept for n, m <= order."""

    def __init__(self, order: int,
                 coeffs: Dict[Tuple[int, int], int]):
        self.order = order
        self._coeffs = {k: v for k, v in coeffs.items() if v}

    def coefficient(self, n: int, m: int = 0) -> int:
        if n > self.order or m > self.order:
            raise LookupError(f"({n}, {m}) beyond truncation order {self.order}")
        return self._coeffs.get((n, m), 0)

    def row(self, n: int) -> Dict[int, int]:
        """Nonzero coefficients of x^n, keyed by y-degree."""
        if n > self.order:
            raise LookupError(f"row {n} beyond truncation order {self.order}")
        return {m: v for (nn, m), v in self._coeffs.items() if nn == n}

    def integer_rows(self, require_nonnegative: bool = True
                     ) -> Dict[int, Dict[int, int]]:
        """All rows as ints, raising if any coefficient fails integrality."""
        rows: Dict[int, Dict[int, int]] = {n: {} for n in range(self.order + 1)}
        for (n, m), v in self._coeffs.items():
            if v.denominator != 1:
                raise ValueError(f"coefficient at ({n}, {m}) is {v}, not an integer")
            if require_nonnegative and v < 0:
                raise ValueError(f"coefficient at ({n}, {m}) is negative: {v}")
            rows[n][m] = int(v)
        return rows

    def sequence(self) -> List[int]:
        """Integer coefficients of a univariate series, indexed by n."""
        rows = self.integer_rows(require_nonnegative=False)
        for n, row in rows.items():
            if any(m != 0 for m in row):
                raise ValueError(f"series has a y-term in row {n}")
        return [rows[n].get(0, 0) for n in range(self.order + 1)]

    def as_polynomial(self) -> BivariatePolynomial:
        return BivariatePolynomial(dict(self._coeffs))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {len(self._coeffs)} terms)"


class RationalGF:
    """A formal power series numerator/denominator of exact polynomials.

    The denominator's constant term must be nonzero, which makes the quotient
    a well-defined formal power series.  Arithmetic is cross-multiplication;
    equality of the represented series is decided the same way.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivariatePolynomial, den: BivariatePolynomial):
        if den.constant() == 0:
            raise ValueError(
                "denominator constant term is zero; quotient is not a power series")
        self.num = num
        self.den = den

    def __add__(self, other: "RationalGF"):
        return RationalGF(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "RationalGF"):
        return RationalGF(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __mul__(self, other: "RationalGF"):
        return RationalGF(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalGF"):
        # RationalGF.__init__ rejects the quotient if other.num has zero
        # constant term (the result would not be a power series).
        return RationalGF(self.num * other.den, self.den * other.num)

    def series_equal(self, other: "RationalGF") -> bool:
        return self.num * other.den == other.num * self.den

    def expand(self, order: int) -> TruncatedSeries:
        """Exact coefficients up to x-order (and y-order) `order`.

        Solves den * c == num coefficientwise: within each x-row the terms of
        the denominator with deg_x == 0 only ever reference lower y-degrees,
        so rows are filled in increasing (n, m).
        """
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        d00 = self.den.constant()
        den_rest = [(i, j, v) for (i, j), v in self.den.terms()
                    if (i, j) != (0, 0)]
        coeffs = {}
        for n in range(order + 1):
            for m in range(order + 1):
                s = self.num.coefficient(n, m)
                for i, j, v in den_rest:
                    if i <= n and j <= m:
                        prev = coeffs.get((n - i, m - j))
                        if prev is not None:
                            s -= v * prev
                if s:
                    coeffs[(n, m)] = s if d00 == 1 else Fraction(s) / d00
        return TruncatedSeries(order, coeffs)

    def diff_y_at_1(self) -> "RationalGF":
        """d/dy of the series, evaluated at y = 1 (quotient rule)."""
        num = (self.num.diff_y() * self.den
               - self.num * self.den.diff_y()).subst_y1()
        den = (self.den * self.den).subst_y1()
        return RationalGF(num, den)

    def eval_y1(self) -> "RationalGF":
        """Substitute y = 1 in numerator and denominator."""
        return RationalGF(self.num.subst_y1(), self.den.subst_y1())

    def __repr__(self):
        return f"RationalGF({self.num!r} / {self.den!r})"
