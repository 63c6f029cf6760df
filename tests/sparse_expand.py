"""The sparse expansion that RationalGF.expand replaced, kept as the
reference that the row-by-row expansion is checked against."""

from fractions import Fraction


def sparse_expand(gf, order):
    """{(n, m): c(n, m)} for n, m <= order, nonzero cells only: den * c ==
    num solved cell by cell, in increasing (n, m), over the whole square."""
    d00 = gf.den.coefficient(0, 0)
    den_rest = [(i, j, v) for (i, j), v in gf.den.terms() if (i, j) != (0, 0)]
    coeffs = {}
    for n in range(order + 1):
        for m in range(order + 1):
            s = gf.num.coefficient(n, m)
            for i, j, v in den_rest:
                if i <= n and j <= m:
                    prev = coeffs.get((n - i, m - j))
                    if prev is not None:
                        s -= v * prev
            if s:
                coeffs[(n, m)] = s if d00 == 1 else Fraction(s) / d00
    return coeffs


def cut(coeffs, order):
    """The cells of a sparse expansion that lie within a lower order: a
    cell (n, m) depends only on cells (n', m') with n' <= n and m' <= m."""
    return {(n, m): v for (n, m), v in coeffs.items()
            if n <= order and m <= order}


def rows_of(coeffs, order):
    """A sparse expansion as rows 0..order of {y-degree: coefficient}."""
    rows = {n: {} for n in range(order + 1)}
    for (n, m), v in coeffs.items():
        rows[n][m] = v
    return rows
