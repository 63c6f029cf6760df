"""The row engine that RationalGF.iter_rows ran before it divided by the
denominator's (1 - x^l) factors one at a time, kept as the reference that
the peeled rows are checked against: every term of the expanded
denominator is applied to every cell."""

from collections import deque
from fractions import Fraction
from math import lcm


def unpeeled_rows(gf, order):
    """Rows 0..order of gf's expansion, each filled up to the y-degree it can
    reach: the numerator's, or row n - i's top plus j for a den term x^i y^j
    with i >= 1 (the order, if a term has i == 0 < j)."""
    scale = lcm(*(v.denominator for poly in (gf.num, gf.den)
                  for _, v in poly.terms()))
    d = int(gf.den.coefficient(0, 0) * scale)
    num = {}
    for (i, j), v in gf.num.truncate_x(order).terms():
        num.setdefault(i, {})[j] = int(v * scale) * d ** (i + j)
    den = [(i, j, int(v * scale) * d ** (i + j - 1))
           for (i, j), v in gf.den.terms() if i or j]
    shifts = [(i, j, v) for i, j, v in den if i]
    same_row = [(j, v) for i, j, v in den if not i]
    back = deque(maxlen=max((i for i, _, _ in shifts), default=0))
    for n in range(order + 1):
        live = [(back[-i], j, v) for i, j, v in shifts if i <= n]
        own = num.get(n, {})
        top = max([*own, *(len(p) - 1 + j for p, j, _ in live)], default=-1)
        top = order if same_row else min(top, order)
        row = [own.get(m, 0) for m in range(top + 1)]
        for p, j, v in live:
            for m, c in enumerate(p[:max(0, top + 1 - j)], j):
                row[m] -= v * c
        if same_row:
            for m in range(top + 1):
                row[m] -= sum(v * row[m - j] for j, v in same_row if j <= m)
        back.append(row)
        yield row if d == 1 else [Fraction(e, d ** (n + m + 1))
                                  for m, e in enumerate(row)]
