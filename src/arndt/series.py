"""Exact bivariate polynomials, rational generating functions, and truncated
series expansion.

Coefficients are ints, over a denominator whose x^0 part is 1: every GF here
counts a class whose atoms weigh at least 1 in x.  BivariatePolynomial and
RationalGF refuse anything else when built, so expansion never divides.
Nonnegativity of combinatorial answers is asserted at extraction time, never
assumed.  Rational arithmetic is plain cross-multiplication with no gcd
normalisation: the catalog writes each GF over its natural denominator, so
degrees stay small, and the denominator * expansion == numerator round-trip
check in the verification suite guards correctness.

An expansion's rows of y-coefficients are streamed by iter_rows, whose stages
(one per factor 1 - x^l of den) keep their own l rows, and stored by expand;
row n is filled only up to the y-degree it can reach: the numerator's, or row
n - i's top plus j for a den term x^i y^j other than its 1.
The stored rows are read as {m: count} of nonnegative ints by integer_rows,
or as the terms of a series in x alone by sequence; integer_row and
sequence_term each state the rule for one row, applied as rows are drawn.

Conventions: exponent pairs are (deg_x, deg_y); a polynomial is "univariate"
when every stored term has deg_y == 0.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, compress, count
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .compositions import sparse_row

DEFAULT_ORDER = 64


class BivariatePolynomial:
    """Finitely many terms c * x^i * y^j, c an int, stored sparsely."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[Tuple[int, int], int] = None):
        clean = {}
        for (i, j), v in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            if type(v) is not int:
                raise ValueError(f"coefficient at ({i}, {j}) is {v!r}, not an int")
            if v:
                clean[(i, j)] = v
        self._coeffs = clean

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, int, int]]):
        """Build from (deg_x, deg_y, coeff) triples; repeats are summed."""
        coeffs = {}
        for i, j, v in terms:
            coeffs[i, j] = coeffs.get((i, j), 0) + v
        return cls(coeffs)

    def coefficient(self, i: int, j: int = 0) -> int:
        return self._coeffs.get((i, j), 0)

    def terms(self):
        return self._coeffs.items()

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

    def diff_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, j - 1): v * j for (i, j), v in self._coeffs.items() if j})

    def diff_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i - 1, j): v * i for (i, j), v in self._coeffs.items() if i})

    def subst_y1(self) -> "BivariatePolynomial":
        """Substitute y = 1, collapsing to a polynomial in x alone."""
        return BivariatePolynomial.from_terms(
            (i, 0, v) for (i, _), v in self._coeffs.items())

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
        bits = [str(v) + "".join(f"*{x}^{e}" if e > 1 else f"*{x}"
                                 for x, e in (("x", i), ("y", j)) if e)
                for (i, j), v in sorted(self._coeffs.items())]
        return f"BivariatePolynomial({' + '.join(bits) or 0})"


def integer_row(n: int, cells: list) -> List[int]:
    """Row n up to its last nonzero cell, a new list of nonnegative ints: a
    row of such ints passes by a check in C; any other names its first
    negative cell."""
    row = cells[:max(compress(count(1), cells), default=0)]
    if min(row, default=0) >= 0:
        return row
    m = next(m for m, v in enumerate(row) if v < 0)
    raise ValueError(f"coefficient at ({n}, {m}) is negative: {row[m]}")


def sequence_term(n: int, cells: list) -> int:
    """Term n of a univariate series: cell 0 of row n, of any sign, 0 for an
    empty row; a nonzero later cell is a y-term."""
    if any(cells[1:]):
        raise ValueError(f"series has a y-term in row {n}")
    return cells[0] if cells else 0


class TruncatedSeries(NamedTuple):
    """Exact c(n, m) for n, m <= order: rows[n][m], or 0 past rows[n]'s end."""

    order: int
    rows: List[list]

    def integer_rows(self) -> Dict[int, dict]:
        """All rows as {m: count} of nonnegative ints, each by integer_row."""
        return {n: sparse_row(integer_row(n, row))
                for n, row in enumerate(self.rows)}

    def sequence(self) -> List[int]:
        """Integer coefficients of a univariate series, each by sequence_term."""
        return [sequence_term(n, row) for n, row in enumerate(self.rows)]

    def as_polynomial(self) -> BivariatePolynomial:
        return BivariatePolynomial({(n, m): v for n, row in enumerate(self.rows)
                                    for m, v in enumerate(row)})


def _peel(xs: Dict[int, int]) -> Tuple[List[int], Dict[int, int]]:
    """Split 1 + sum xs[i] x^i into prod (1 - x^l) * r, largest l first, and
    return the l and r's terms but its 1: 1 - x^l divides exactly while the
    coefficients of each residue class mod l sum to 0."""
    d0, ls = [1, *(xs.get(i, 0) for i in range(1, max(xs) + 1))], []
    for l in reversed(range(1, len(d0))):
        while len(d0) > l and not any(sum(d0[s::l]) for s in range(l)):
            for s in range(l):  # the quotient's class s: running sums
                d0[s::l] = accumulate(d0[s::l])
            del d0[-l:]
            ls.append(l)
    return ls, {i: v for i, v in enumerate(d0) if i and v}


class RationalGF:
    """A formal power series numerator/denominator of int polynomials.

    The denominator's x^0 part must be 1, as it is for every class whose
    atoms weigh at least 1: the quotient is then a formal power series with
    int coefficients, expanded without division.  Arithmetic is
    cross-multiplication; equality of the represented series is decided the
    same way.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivariatePolynomial, den: BivariatePolynomial):
        if [(j, v) for (i, j), v in den.terms() if not i] != [(0, 1)]:
            raise ValueError("denominator's x^0 part is not 1")
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
        # __init__ rejects a quotient whose other.num's x^0 part is not 1.
        return RationalGF(self.num * other.den, self.den * other.num)

    def series_equal(self, other: "RationalGF") -> bool:
        return self.num * other.den == other.num * self.den

    def expand(self, order: int) -> TruncatedSeries:
        """Exact coefficients up to x- and y-order `order`, from iter_rows."""
        return TruncatedSeries(order, list(self.iter_rows(order)))

    def iter_rows(self, order: int) -> Iterator[list]:
        """Rows 0..order of the expansion, each yielded (not to be changed)
        as soon as it is computed.  V = prod (1 - x^l) * series, l from
        _peel, has row n num's row n minus v * (row n - i, of V if j == 0,
        shifted up by j) for each den term v x^i y^j, i >= 1, and each l's
        stage adds its own row n - l."""
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        num: Dict[int, dict] = {}
        for (i, j), v in self.num.truncate_x(order).terms():
            num.setdefault(i, {})[j] = v
        den = [(i, j, v) for (i, j), v in self.den.terms() if i]
        xs = {i: v for i, j, v in den if not j}
        # With an x term in den, the stages fill no row further than den.
        ls, r = _peel(xs) if xs.get(1) else ([], xs)
        shifts = [(i, j, v, 0) for i, j, v in den if j]  # series rows
        shifts += [(i, 0, v, 1) for i, v in r.items()]  # rows of V
        back = deque(maxlen=max((i for i, *_ in shifts), default=0))
        stages = [deque([[]] * l, maxlen=l) for l in ls]
        for n in range(order + 1):
            live = [(back[-i][of], j, v) for i, j, v, of in shifts if i <= n]
            own = num.get(n, {})
            top = max([*own, *(len(p) - 1 + j for p, j, _ in live)], default=-1)
            top = min(top, order)
            row = [own.get(m, 0) for m in range(top + 1)]
            for p, j, v in live:
                cells = enumerate(p[:max(0, top + 1 - j)], j)
                if v == 1:
                    for m, c in cells:
                        row[m] -= c
                elif v == -1:
                    for m, c in cells:
                        row[m] += c
                else:
                    for m, c in cells:
                        row[m] -= v * c
            v_row = row
            for stage in stages:  # stage[0] is its row n - l
                p = stage[0]
                row = [*map(add, row, p), *(row[len(p):] or p[len(row):])]
                stage.append(row)
            back.append((row, v_row))
            yield row

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
