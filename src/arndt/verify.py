"""Cross-validation suite tying the three computation paths together.

Every check compares independent routes to the same numbers: brute-force
enumeration (ground truth), exact series expansion of the rational forms,
and the closed forms/recurrences.  A check is a generator of (case, got,
want) triples, registered in CHECKS by @_check where it is defined.  One
comparator runs each: it raises CheckFailed at the first got != want, or
returns how many triples it compared, so a check that compared nothing is
told apart from one that passed.  A case is a label, or a format string and
its arguments, formatted only when its comparison fails.

max_n, when given, clamps the desk-scale default range of each check, so a
reduced run like ``verify bijection --max-n 10`` stays cheap.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import asymptotics, bijection, catalog, counting, formulas
from .compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC, ARNDT,
                           REDUCED_AP, Family, flip_class, is_arndt,
                           is_k_arndt, is_k_block_arndt,
                           is_reduced_ap_representative)
from .series import BivariatePolynomial, RationalGF


class CheckFailed(Exception):
    """A cross-validation property does not hold."""


@dataclass(frozen=True)
class Limits:
    max_n: Optional[int] = None

    def upto(self, default: int) -> int:
        if self.max_n is None:
            return default
        return min(default, self.max_n)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    cases: int = 0  # comparisons made; 0 means the check compared nothing


# (area, name, run): run(lim) makes every comparison of the check before it
# returns their number.
CHECKS: List[Tuple[str, str, Callable[[Limits], int]]] = []


def _cut(value) -> str:
    """repr(value), cut after 160 characters to keep a FAIL detail short."""
    text = repr(value)
    return text if len(text) <= 160 else f"{text[:160]}... ({len(text)} chars)"


def _check(area: str, name: str):
    """Register a generator of (case, got, want) triples as a check."""
    def register(cases):
        @functools.wraps(cases)
        def run(lim: Limits) -> int:
            compared = 0
            for case, got, want in cases(lim):
                if got != want:
                    label = case if isinstance(case, str) else \
                        case[0].format(*case[1:])
                    raise CheckFailed(
                        f"{label}: got {_cut(got)}, want {_cut(want)}")
                compared += 1
            return compared
        CHECKS.append((area, name, run))
        return run
    return register


# ---------------------------------------------------------------------------
# composition predicates


@_check("compositions", "family-coincidences")
def check_family_coincidences(lim: Limits):
    """k-Arndt at k=0 and 2-block Arndt both coincide with Arndt."""
    for n in range(lim.upto(14) + 1):
        for comp in counting.compositions_of(n):
            a = is_arndt(comp)
            yield ("is_k_arndt({}, 0)", comp), is_k_arndt(comp, 0), a
            yield ("is_k_block_arndt({}, 2)", comp), is_k_block_arndt(comp, 2), a
    for n in range(lim.upto(12) + 1):
        for comp in counting.compositions_of(n):
            yield ("is_k_block_arndt({}, 1)", comp), \
                is_k_block_arndt(comp, 1), True


@_check("compositions", "flip-classes")
def check_flip_classes(lim: Limits):
    """Flip classes have size 2^(l//2) and a unique canonical representative."""
    for n in range(lim.upto(12) + 1):
        for comp in counting.family_members(n, ANTIPALINDROMIC):
            cls = flip_class(comp)
            yield ("flip class size of {}", comp), len(cls), 1 << (len(comp) // 2)
            yield ("flip class representatives of {}", comp), \
                sum(map(is_reduced_ap_representative, cls)), 1


# ---------------------------------------------------------------------------
# enumeration


@_check("counting", "stream")
def check_stream(lim: Limits):
    """Streams are duplicate-free, complete, and in decreasing lex order."""
    for n in range(lim.upto(12) + 1):
        seen = list(counting.compositions_of(n))
        yield ("distinct compositions of {}", n), len(set(seen)), len(seen)
        yield ("wrong weights at {}", n), [c for c in seen if sum(c) != n], []
        yield ("compositions of {}", n), len(seen), 1 if n == 0 else 2 ** (n - 1)
        yield ("stream order at {}", n), seen, sorted(seen, reverse=True)


@_check("counting", "fibonacci-totals")
def check_fibonacci_totals(lim: Limits):
    """Brute-force Arndt counts by parts and by last part both sum to F(n),
    tallied in one pass over the members of each weight."""
    for n in range(1, lim.upto(22) + 1):
        rows = {statistic: {} for statistic in counting.STATISTICS}
        for comp in counting.family_members(n, ARNDT):
            for statistic, value in counting.STATISTICS.items():
                row, m = rows[statistic], value(comp)
                row[m] = row.get(m, 0) + 1
        for statistic, row in rows.items():
            yield ("{} total at {} vs F(n)", statistic, n), \
                sum(row.values()), formulas.fibonacci(n)


@_check("counting", "reduced-ap-rows")
def check_reduced_ap_rows(lim: Limits):
    """Reduced anti-palindromic counts by parts equal the Arndt counts."""
    for n in range(lim.upto(14) + 1):
        yield ("reduced-ap vs arndt row {}", n), \
            counting.count_by_parts(n, REDUCED_AP), counting.count_by_parts(n)


@_check("counting", "antipalindromic-doubling")
def check_antipalindromic_doubling(lim: Limits):
    """Anti-palindromic counts are 2^(m//2) times the reduced counts."""
    for n in range(lim.upto(12) + 1):
        ap = counting.count_by_parts(n, ANTIPALINDROMIC)
        reduced = counting.count_by_parts(n, REDUCED_AP)
        for m in set(ap) | set(reduced):
            yield ("({}, {}): anti-palindromic vs 2^(m//2) reduced", n, m), \
                ap.get(m, 0), (1 << (m // 2)) * reduced.get(m, 0)


# ---------------------------------------------------------------------------
# series engine


# The k each catalog constructor that takes one is checked at.
_SAMPLE_K = {"gf_k_arndt": (-3, -1, 0, 1, 3), "gf_k_block": (1, 2, 3, 4),
             "gf_distinct_parts": (0, 1, 2, 3)}


def _series(name: str, k: Optional[int] = None) -> Tuple[str, RationalGF]:
    """A catalog series, labelled by its constructor call."""
    constructor, takes_k, _ = catalog.SERIES[name]
    label = f"{constructor}({k})" if takes_k else constructor
    return label, catalog.series_gf(name, k)


def _catalog_gfs() -> List[Tuple[str, RationalGF]]:
    return [_series(name, k)
            for name, (constructor, takes_k, _) in catalog.SERIES.items()
            for k in (_SAMPLE_K[constructor] if takes_k else (None,))]


@_check("series", "round-trip")
def check_round_trip(lim: Limits):
    """denominator * expansion == numerator, truncated, for every catalog GF."""
    order = lim.upto(40)
    for name, gf in _catalog_gfs():
        expansion = gf.expand(order).as_polynomial()
        yield ("{}: den * expansion vs num", name), \
            (gf.den * expansion).truncate_x(order), gf.num.truncate_x(order)


@_check("series", "integrality")
def check_integrality(lim: Limits):
    """Catalog coefficients are nonnegative integers with y-degree <= weight."""
    order = lim.upto(40)
    for name, gf in _catalog_gfs():
        terms = gf.expand(order).as_polynomial().terms()
        yield ("{}: not nonnegative integers", name), \
            [t for t in terms if t[1].denominator != 1 or t[1] < 0], []
        yield ("{}: y-degree above n", name), \
            [t for t in terms if t[0][1] > t[0][0]], []


@_check("series", "expand-linearity")
def check_expand_linearity(lim: Limits):
    """expand(f + g) == expand(f) + expand(g) on random small inputs."""
    rng = random.Random(20230517)
    order = lim.upto(12)

    def random_poly(max_deg, force_constant=False):
        coeffs = {}
        for i in range(max_deg + 1):
            for j in range(max_deg + 1):
                if rng.random() < 0.4:
                    coeffs[(i, j)] = Fraction(rng.randint(-3, 3))
        if force_constant:
            coeffs[(0, 0)] = Fraction(rng.randint(1, 3))
        return BivariatePolynomial(coeffs)

    for trial in range(8):
        f = RationalGF(random_poly(2), random_poly(2, force_constant=True))
        g = RationalGF(random_poly(2), random_poly(2, force_constant=True))
        both = (f + g).expand(order)
        fs, gs = f.expand(order), g.expand(order)
        for n in range(order + 1):
            for m in range(order + 1):
                yield ("trial {}: ({}, {})", trial, n, m), \
                    both.coefficient(n, m), \
                    fs.coefficient(n, m) + gs.coefficient(n, m)


@_check("series", "poly-associativity")
def check_poly_associativity(lim: Limits):
    """(p q) r == p (q r) on random polynomials of degree <= 6."""
    rng = random.Random(987123)

    def random_poly():
        coeffs = {}
        for _ in range(8):
            coeffs[(rng.randint(0, 6), rng.randint(0, 6))] = \
                Fraction(rng.randint(-5, 5))
        return BivariatePolynomial(coeffs)

    for trial in range(10):
        p, q, r = random_poly(), random_poly(), random_poly()
        yield ("trial {}", trial), (p * q) * r, p * (q * r)


# ---------------------------------------------------------------------------
# catalog vs brute force


@_check("catalog", "brute-agreement")
def check_catalog_vs_brute(lim: Limits):
    """Every family's parts GF, as the CLI finds it, has the brute-force
    rows of the family; so has the last-part GF of the Arndt family."""
    families = [(ARNDT, 14), (REDUCED_AP, 14), (ANTIPALINDROMIC, 12),
                (ALL_COMPOSITIONS, 12)]
    families += [(Family("k-arndt", k), 12) for k in range(-3, 4)]
    families += [(Family("block-arndt", k), 12) for k in range(1, 5)]
    cases = [(*_series(catalog.parts_series(family), family.k), family,
              "parts", upto) for family, upto in families]
    cases.append(("gf_last_part", catalog.gf_last_part(), ARNDT, "last", 14))
    for name, gf, family, statistic, upto in cases:
        max_n = lim.upto(upto)
        rows = gf.expand(max_n).integer_rows()
        for n in range(max_n + 1):
            yield ("{} row {}", name, n), rows[n], \
                counting.tally(n, family, statistic)


@_check("catalog", "reduced-equals-arndt")
def check_reduced_equals_arndt(lim: Limits):
    """gf_reduced_ap and gf_arndt are the same polynomial pair."""
    a, b = catalog.gf_arndt(), catalog.gf_reduced_ap()
    yield "gf_reduced_ap numerator vs gf_arndt", b.num, a.num
    yield "gf_reduced_ap denominator vs gf_arndt", b.den, a.den


@_check("catalog", "derivative-identities")
def check_derivative_identities(lim: Limits):
    """The displayed totals GFs equal the y-derivatives at y = 1."""
    derivative = catalog.gf_arndt().diff_y_at_1()
    yield "d/dy gf_arndt at y=1 == gf_total_parts", \
        derivative.series_equal(catalog.gf_total_parts()), True
    derivative = catalog.gf_last_part().diff_y_at_1()
    yield "d/dy gf_last_part at y=1 == gf_total_last", \
        derivative.series_equal(catalog.gf_total_last()), True


@_check("catalog", "block-references")
def check_block_references(lim: Limits):
    """The assembled k-block GFs match their displayed closed forms."""
    prefixes = {3: [1, 1, 1, 2, 2, 3, 4, 6, 8, 13],
                4: [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]}
    for k in (3, 4):
        assembled = catalog.gf_k_block(k)
        yield ("gf_k_block({}) == displayed closed form", k), \
            assembled.series_equal(catalog.gf_k_block_reference(k)), True
        total = catalog.gf_k_block_total_reference(k)
        yield ("gf_k_block({}) at y=1 == displayed closed form", k), \
            assembled.eval_y1().series_equal(total), True
        want = prefixes[k]
        yield ("gf_k_block({}) totals", k), \
            total.expand(len(want) - 1).sequence(), want


@_check("catalog", "k-arndt-y1")
def check_k_arndt_y1(lim: Limits):
    """Setting y = 1 in gf_k_arndt gives the displayed totals GF, |k| <= 5."""
    for k in range(-5, 6):
        yield ("gf_k_arndt({0}) at y=1 == gf_k_arndt_total({0})", k), \
            catalog.gf_k_arndt(k).eval_y1().series_equal(
                catalog.gf_k_arndt_total(k)), True


@_check("catalog", "block2-equals-arndt")
def check_block2_equals_arndt(lim: Limits):
    """gf_k_block(2) and gf_arndt agree coefficientwise."""
    order = lim.upto(30)
    a = catalog.gf_k_block(2).expand(order).integer_rows()
    b = catalog.gf_arndt().expand(order).integer_rows()
    for n in range(order + 1):
        yield ("gf_k_block(2) row {} vs gf_arndt", n), a[n], b[n]


# ---------------------------------------------------------------------------
# closed forms


@_check("formulas", "four-way-agreement")
def check_four_way_agreement(lim: Limits):
    """Alternating sum == positive sum == recurrence == series coefficients."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n)
    rows = catalog.gf_arndt().expand(max_n).integer_rows()
    for n in range(max_n + 1):
        for m in range(n + 1):
            yield ("({}, {}): alternating, positive, recurrence vs series",
                   n, m), (formulas.parts_count_alternating(n, m),
                           formulas.parts_count_positive(n, m),
                           triangle.get(n, m)), (rows[n].get(m, 0),) * 3
    for n in range(lim.upto(14) + 1):
        yield ("recurrence row {} vs brute force", n), triangle.row(n), \
            counting.count_by_parts(n)


@_check("formulas", "wz-residual")
def check_wz_residual(lim: Limits):
    """The three-term relation annihilates the triangle everywhere."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n + 2)
    for n in range(max_n + 1):
        for m in range(n + 3):
            yield ("wz residual at ({}, {})", n, m), \
                formulas.wz_residual(n, m, triangle), 0


@_check("formulas", "row-sums")
def check_row_sums(lim: Limits):
    """Parts rows and last rows both sum to F(n)."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n)
    for n in range(1, max_n + 1):
        want = formulas.fibonacci(n)
        yield ("parts row {} sum vs F(n)", n), triangle.row_sum(n), want
        yield ("last row {} sum vs F(n)", n), \
            sum(formulas.last_count(n, m) for m in range(n + 1)), want


@_check("formulas", "fibonacci-double-sums")
def check_fibonacci_double_sums(lim: Limits):
    """Both double sums evaluate to F(n)."""
    for n in range(1, lim.upto(40) + 1):
        want = formulas.fibonacci(n)
        yield ("alternating double sum at {}", n), \
            formulas.fibonacci_from_alternating_sum(n), want
        yield ("positive double sum at {}", n), \
            formulas.fibonacci_from_positive_sum(n), want


@_check("formulas", "last-closed-forms")
def check_last_closed_forms(lim: Limits):
    """last_count matches the series, the shifted-Fibonacci identity, and
    the cumulative closed forms."""
    max_n = lim.upto(40)
    rows = catalog.gf_last_part().expand(max_n).integer_rows()
    for n in range(max_n + 1):
        yield ("last_count row {} vs series", n), \
            {m: v for m in range(n + 1) if (v := formulas.last_count(n, m))}, \
            rows[n]
    for m in range(1, 9):
        for n in range(2 * m + 2, max_n + 1):
            yield ("last_count({}, {}) vs shifted-Fibonacci identity", n, m), \
                formulas.last_count(n, m), \
                formulas.fibonacci(n - m - 2) + formulas.fibonacci(n - 2 * m - 1)
    for k in range(1, 9):
        for n in range(max_n + 1):
            yield ("last_count_at_most({}, {}) vs summation", n, k), \
                formulas.last_count_at_most(n, k), \
                sum(formulas.last_count(n, j) for j in range(k + 1))
            yield ("last_count_at_least({}, {}) vs summation", n, k), \
                formulas.last_count_at_least(n, k), \
                sum(formulas.last_count(n, j) for j in range(k, n + 1))
    for n in range(1, max_n + 1):
        yield ("last_count_at_most({0}, {0}) vs F({0})", n), \
            formulas.last_count_at_most(n, n), formulas.fibonacci(n)


@_check("formulas", "totals")
def check_totals(lim: Limits):
    """The totals closed forms match the series and brute force."""
    max_n = lim.upto(40)
    for name, closed, gf, brute, known, brute_n in (
            ("total_parts", formulas.total_parts_closed,
             catalog.gf_total_parts, counting.total_parts, {6: 21, 7: 38}, 14),
            ("total_last", formulas.total_last_closed,
             catalog.gf_total_last, counting.total_last, {6: 17, 7: 29}, 20)):
        for n, want in known.items():
            yield ("{}_closed({})", name, n), closed(n), want
        seq = gf().expand(max_n).sequence()
        for n in range(max_n + 1):
            yield ("{}_closed({}) vs series", name, n), closed(n), seq[n]
        for n in range(lim.upto(brute_n) + 1):
            yield ("{}_closed({}) vs brute force", name, n), closed(n), brute(n)


# ---------------------------------------------------------------------------
# bijection


@_check("bijection", "round-trip-bijective")
def check_bijection(lim: Limits):
    """reduced_ap_to_arndt is a weight/parts-preserving bijection with
    identity round trips."""
    yield "worked example (2, 3, 6, 2, 1)", \
        bijection.reduced_ap_to_arndt((2, 3, 6, 2, 1)), (2, 1, 3, 2, 6)
    for n in range(lim.upto(18) + 1):
        image = []
        for comp in counting.reduced_antipalindromic(n):
            out = bijection.reduced_ap_to_arndt(comp)
            yield ("weight and parts of the image of {}", comp), \
                (sum(out), len(out)), (sum(comp), len(comp))
            yield ("round trip at {}", comp), \
                bijection.arndt_to_reduced_ap(out), comp
            image.append(out)
        yield ("distinct images at weight {}", n), len(set(image)), len(image)
        arndt_set = set(counting.family_members(n, ARNDT))
        yield ("image at weight {} vs the Arndt set", n), set(image), arndt_set
        for comp in arndt_set:
            back = bijection.arndt_to_reduced_ap(comp)
            yield ("inverse round trip at {}", comp), \
                bijection.reduced_ap_to_arndt(back), comp


# ---------------------------------------------------------------------------
# asymptotics


class _AtMost:
    """A tolerance, yielded as `want`: an error equals it when no larger."""

    def __init__(self, bound: float):
        self.bound = bound

    def __eq__(self, error):
        return error <= self.bound

    def __repr__(self):
        return f"at most {self.bound:g}"


@_check("asymptotics", "fibonacci-gf")
def check_fibonacci_asymptotic(lim: Limits):
    """The transfer formula tracks F(n) within 0.5% from n = 30 on."""
    gf = catalog.gf_k_arndt_total(0)  # (1 - x^2)/(1 - x - x^2)
    pole = asymptotics.PoleSpec(asymptotics.GOLDEN_RATIO, 1)
    fib_gf = RationalGF(BivariatePolynomial.from_terms([(1, 0, 1)]),
                        BivariatePolynomial.from_terms(
                            [(0, 0, 1), (1, 0, -1), (2, 0, -1)]))
    for n in range(30, 121, 10):
        for name, f in (("fibonacci", fib_gf), ("arndt-total", gf)):
            est = asymptotics.dominant_asymptotic(f, pole, n)
            yield ("{} estimate error at n = {}", name, n), \
                abs(est / formulas.fibonacci(n) - 1), _AtMost(0.005)


@_check("asymptotics", "total-parts-gf")
def check_total_parts_asymptotic(lim: Limits):
    """The double-pole estimate tracks the exact totals at O(1/n) rate.

    The relative error decays like c/n with c about 1.6, calibrated against
    the exact recurrence; 2.5/n leaves margin.  At n = 200 the error is
    under 1%.
    """
    pole = asymptotics.PoleSpec(asymptotics.GOLDEN_RATIO, 2)
    gf = catalog.gf_total_parts()
    rel = {n: abs(asymptotics.dominant_asymptotic(gf, pole, n)
                  / formulas.total_parts_closed(n) - 1) for n in (60, 100, 200)}
    for n, error in rel.items():
        yield ("total-parts error at n = {}", n), error, _AtMost(2.5 / n)
    yield "total-parts error at n = 200", rel[200], _AtMost(0.01)


@_check("asymptotics", "parts-count-ratio")
def check_parts_count_asymptotic(lim: Limits):
    """a(600, m) is within 15% of its asymptotic form for m = 3, 4."""
    triangle = formulas.parts_triangle_by_recurrence(600, max_m=4)
    for m in (3, 4):
        est = asymptotics.parts_count_asymptotic(600, m)
        yield ("a(600, {}) error", m), abs(triangle.get(600, m) / est - 1), \
            _AtMost(0.15)


@_check("asymptotics", "last-count-ratio")
def check_last_count_asymptotic(lim: Limits):
    """b(60, m) is within 0.1% of its asymptotic form for m <= 3."""
    for m in (1, 2, 3):
        est = asymptotics.last_count_asymptotic(60, m)
        yield ("b(60, {}) error", m), \
            abs(formulas.last_count(60, m) / est - 1), _AtMost(0.001)


@_check("asymptotics", "expected-values")
def check_expected_values(lim: Limits):
    """Expected parts and last part approach their displayed limits."""
    slope = float(asymptotics.expected_parts(200)) / 200
    yield "expected parts slope error", \
        abs(slope / asymptotics.EXPECTED_PARTS_SLOPE - 1), _AtMost(0.01)
    last = float(asymptotics.expected_last(60))
    yield "expected last part error at 60", \
        abs(last / asymptotics.EXPECTED_LAST_LIMIT - 1), _AtMost(0.001)
    devs = [abs(float(asymptotics.expected_last(n)) - math.sqrt(5))
            for n in (20, 40, 60)]
    yield "expected-last deviations at 20, 40, 60", devs, \
        sorted(devs, reverse=True)
    yield "expected_last(1)", asymptotics.expected_last(1), 1


# ---------------------------------------------------------------------------
# runner

SCOPES = ("all",) + tuple(dict.fromkeys(area for area, _, _ in CHECKS))


def run_checks(scope: str = "all",
               max_n: Optional[int] = None) -> List[CheckResult]:
    """Run the selected checks and report one result per check."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {SCOPES}")
    lim = Limits(max_n)
    results = []
    for area, name, fn in CHECKS:
        if scope not in ("all", area):
            continue
        full = f"{area}.{name}"
        try:
            cases = fn(lim)
        except CheckFailed as exc:
            results.append(CheckResult(full, False, str(exc)))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(full, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(full, True, cases=cases))
    return results
