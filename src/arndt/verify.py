"""Cross-validation suite tying the three computation paths together.

Every named check compares independent routes to the same numbers:
brute-force enumeration (ground truth), exact series expansion of the
rational forms, and the closed forms/recurrences.  Checks raise CheckFailed
with a short diagnostic; the runner turns that into PASS/FAIL lines for the
CLI.

max_n, when given, clamps the desk-scale default range of each check, so a
reduced run like ``verify bijection --max-n 10`` stays cheap.
"""

from __future__ import annotations

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


def _fail(msg: str):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# composition predicates


def check_family_coincidences(lim: Limits):
    """k-Arndt at k=0 and 2-block Arndt both coincide with Arndt."""
    for n in range(lim.upto(14) + 1):
        for comp in counting.compositions_of(n):
            a = is_arndt(comp)
            if is_k_arndt(comp, 0) != a:
                _fail(f"is_k_arndt(, 0) != is_arndt at {comp}")
            if is_k_block_arndt(comp, 2) != a:
                _fail(f"is_k_block_arndt(, 2) != is_arndt at {comp}")
    for n in range(lim.upto(12) + 1):
        for comp in counting.compositions_of(n):
            if not is_k_block_arndt(comp, 1):
                _fail(f"is_k_block_arndt(, 1) false at {comp}")


def check_flip_classes(lim: Limits):
    """Flip classes have size 2^(l//2) and a unique canonical representative."""
    for n in range(lim.upto(12) + 1):
        for comp in counting.compositions_of(n):
            if not ANTIPALINDROMIC.member(comp):
                continue
            cls = flip_class(comp)
            want = 1 << (len(comp) // 2)
            if len(cls) != want:
                _fail(f"flip class of {comp} has {len(cls)} members, "
                      f"expected {want}")
            reps = [c for c in cls if is_reduced_ap_representative(c)]
            if len(reps) != 1:
                _fail(f"flip class of {comp} has {len(reps)} representatives")


# ---------------------------------------------------------------------------
# enumeration


def check_stream(lim: Limits):
    """Streams are duplicate-free, complete, and in decreasing lex order."""
    for n in range(lim.upto(12) + 1):
        seen = list(counting.compositions_of(n))
        if len(set(seen)) != len(seen):
            _fail(f"duplicate compositions at weight {n}")
        if any(sum(c) != n for c in seen):
            _fail(f"composition with wrong weight at {n}")
        want = 1 if n == 0 else 2 ** (n - 1)
        if len(seen) != want:
            _fail(f"{len(seen)} compositions of {n}, expected {want}")
        if seen != sorted(seen, reverse=True):
            _fail(f"stream at weight {n} is not in decreasing lex order")


def check_fibonacci_totals(lim: Limits):
    """Brute-force Arndt counts by parts and by last part both sum to F(n)."""
    for n in range(1, lim.upto(22) + 1):
        want = formulas.fibonacci(n)
        by_parts = sum(counting.count_by_parts(n, ARNDT).values())
        by_last = sum(counting.count_by_last(n, ARNDT).values())
        if by_parts != want or by_last != want:
            _fail(f"weight {n}: parts total {by_parts}, last total {by_last},"
                  f" expected F({n}) = {want}")


def check_reduced_ap_rows(lim: Limits):
    """Reduced anti-palindromic counts by parts equal the Arndt counts."""
    for n in range(lim.upto(14) + 1):
        arndt_row = counting.count_by_parts(n, ARNDT)
        reduced_row = counting.count_by_parts(n, REDUCED_AP)
        if arndt_row != reduced_row:
            _fail(f"weight {n}: reduced-ap row {reduced_row} != arndt row "
                  f"{arndt_row}")


def check_antipalindromic_doubling(lim: Limits):
    """Anti-palindromic counts are 2^(m//2) times the reduced counts."""
    for n in range(lim.upto(12) + 1):
        ap = counting.count_by_parts(n, ANTIPALINDROMIC)
        reduced = counting.count_by_parts(n, REDUCED_AP)
        for m in set(ap) | set(reduced):
            if ap.get(m, 0) != (1 << (m // 2)) * reduced.get(m, 0):
                _fail(f"weight {n}, {m} parts: {ap.get(m, 0)} anti-palindromic"
                      f" vs {reduced.get(m, 0)} reduced")


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


def check_round_trip(lim: Limits):
    """denominator * expansion == numerator, truncated, for every catalog GF."""
    order = lim.upto(40)
    for name, gf in _catalog_gfs():
        expansion = gf.expand(order).as_polynomial()
        left = (gf.den * expansion).truncate_x(order)
        if left != gf.num.truncate_x(order):
            _fail(f"{name}: denominator * expansion != numerator at order "
                  f"{order}")


def check_integrality(lim: Limits):
    """Catalog coefficients are nonnegative integers with y-degree <= weight."""
    order = lim.upto(40)
    for name, gf in _catalog_gfs():
        try:
            rows = gf.expand(order).integer_rows()
        except ValueError as exc:
            _fail(f"{name}: {exc}")
        for n, row in rows.items():
            bad = [m for m in row if m > n]
            if bad:
                _fail(f"{name}: row {n} has coefficients above y-degree {n}: "
                      f"{bad}")


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
                if both.coefficient(n, m) != fs.coefficient(n, m) + gs.coefficient(n, m):
                    _fail(f"linearity broken at trial {trial}, ({n}, {m})")


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
        if (p * q) * r != p * (q * r):
            _fail(f"associativity broken at trial {trial}")


# ---------------------------------------------------------------------------
# catalog vs brute force


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
            brute = counting.tally(n, family, statistic)
            if rows[n] != brute:
                _fail(f"{name} row {n}: expansion {rows[n]} != brute {brute}")


def check_reduced_equals_arndt(lim: Limits):
    """gf_reduced_ap and gf_arndt are the same polynomial pair."""
    a, b = catalog.gf_arndt(), catalog.gf_reduced_ap()
    if a.num != b.num or a.den != b.den:
        _fail("gf_reduced_ap differs from gf_arndt as polynomials")


def check_derivative_identities(lim: Limits):
    """The displayed totals GFs equal the y-derivatives at y = 1."""
    if not catalog.gf_arndt().diff_y_at_1().series_equal(
            catalog.gf_total_parts()):
        _fail("d/dy gf_arndt at y=1 != gf_total_parts")
    if not catalog.gf_last_part().diff_y_at_1().series_equal(
            catalog.gf_total_last()):
        _fail("d/dy gf_last_part at y=1 != gf_total_last")


def check_block_references(lim: Limits):
    """The assembled k-block GFs match their displayed closed forms."""
    prefixes = {3: [1, 1, 1, 2, 2, 3, 4, 6, 8, 13],
                4: [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]}
    for k in (3, 4):
        assembled = catalog.gf_k_block(k)
        if not assembled.series_equal(catalog.gf_k_block_reference(k)):
            _fail(f"gf_k_block({k}) != displayed closed form")
        total = catalog.gf_k_block_total_reference(k)
        if not assembled.eval_y1().series_equal(total):
            _fail(f"gf_k_block({k}) at y=1 != displayed closed form")
        want = prefixes[k]
        got = total.expand(len(want) - 1).sequence()
        if got != want:
            _fail(f"gf_k_block({k}) totals {got} != displayed {want}")


def check_k_arndt_y1(lim: Limits):
    """Setting y = 1 in gf_k_arndt gives the displayed totals GF, |k| <= 5."""
    for k in range(-5, 6):
        if not catalog.gf_k_arndt(k).eval_y1().series_equal(
                catalog.gf_k_arndt_total(k)):
            _fail(f"gf_k_arndt({k}) at y=1 != gf_k_arndt_total({k})")


def check_block2_equals_arndt(lim: Limits):
    """gf_k_block(2) and gf_arndt agree coefficientwise."""
    order = lim.upto(30)
    a = catalog.gf_k_block(2).expand(order).integer_rows()
    b = catalog.gf_arndt().expand(order).integer_rows()
    if a != b:
        bad = next(n for n in a if a[n] != b[n])
        _fail(f"gf_k_block(2) row {bad}: {a[bad]} != gf_arndt {b[bad]}")


# ---------------------------------------------------------------------------
# closed forms


def check_four_way_agreement(lim: Limits):
    """Alternating sum == positive sum == recurrence == series coefficients."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n)
    rows = catalog.gf_arndt().expand(max_n).integer_rows()
    for n in range(max_n + 1):
        for m in range(n + 1):
            series_v = rows[n].get(m, 0)
            alt = formulas.parts_count_alternating(n, m)
            pos = formulas.parts_count_positive(n, m)
            rec = triangle.get(n, m)
            if not alt == pos == rec == series_v:
                _fail(f"disagreement at ({n}, {m}): alternating {alt}, "
                      f"positive {pos}, recurrence {rec}, series {series_v}")
    brute_n = lim.upto(14)
    for n in range(brute_n + 1):
        brute = counting.count_by_parts(n, ARNDT)
        if brute != triangle.row(n):
            _fail(f"recurrence row {n} {triangle.row(n)} != brute {brute}")


def check_wz_residual(lim: Limits):
    """The three-term relation annihilates the triangle everywhere."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n + 2)
    for n in range(max_n + 1):
        for m in range(n + 3):
            r = formulas.wz_residual(n, m, triangle)
            if r != 0:
                _fail(f"wz residual {r} at ({n}, {m})")


def check_row_sums(lim: Limits):
    """Parts rows and last rows both sum to F(n)."""
    max_n = lim.upto(40)
    triangle = formulas.parts_triangle_by_recurrence(max_n)
    for n in range(1, max_n + 1):
        want = formulas.fibonacci(n)
        parts_sum = triangle.row_sum(n)
        last_sum = sum(formulas.last_count(n, m) for m in range(n + 1))
        if parts_sum != want or last_sum != want:
            _fail(f"weight {n}: parts sum {parts_sum}, last sum {last_sum}, "
                  f"expected {want}")


def check_fibonacci_double_sums(lim: Limits):
    """Both double sums evaluate to F(n)."""
    for n in range(1, lim.upto(40) + 1):
        want = formulas.fibonacci(n)
        alt = formulas.fibonacci_from_alternating_sum(n)
        pos = formulas.fibonacci_from_positive_sum(n)
        if alt != want or pos != want:
            _fail(f"double sums at {n}: {alt}, {pos}, expected {want}")


def check_last_closed_forms(lim: Limits):
    """last_count matches the series, the shifted-Fibonacci identity, and
    the cumulative closed forms."""
    max_n = lim.upto(40)
    rows = catalog.gf_last_part().expand(max_n).integer_rows()
    for n in range(max_n + 1):
        row = {m: v for m in range(n + 1)
               if (v := formulas.last_count(n, m))}
        if row != rows[n]:
            _fail(f"last_count row {n} {row} != series {rows[n]}")
    for m in range(1, 9):
        for n in range(2 * m + 2, max_n + 1):
            want = formulas.fibonacci(n - m - 2) + formulas.fibonacci(n - 2 * m - 1)
            if formulas.last_count(n, m) != want:
                _fail(f"shifted-Fibonacci identity fails at ({n}, {m})")
    for k in range(1, 9):
        for n in range(max_n + 1):
            le = sum(formulas.last_count(n, j) for j in range(k + 1))
            ge = sum(formulas.last_count(n, j) for j in range(k, n + 1))
            if formulas.last_count_at_most(n, k) != le:
                _fail(f"last_count_at_most({n}, {k}) != summation {le}")
            if formulas.last_count_at_least(n, k) != ge:
                _fail(f"last_count_at_least({n}, {k}) != summation {ge}")
    for n in range(1, max_n + 1):
        if formulas.last_count_at_most(n, n) != formulas.fibonacci(n):
            _fail(f"last_count_at_most({n}, {n}) != F({n})")


def check_totals(lim: Limits):
    """The totals closed forms match the series and brute force."""
    max_n = lim.upto(40)
    for name, closed, gf, brute, known, brute_n in (
            ("total_parts", formulas.total_parts_closed,
             catalog.gf_total_parts, counting.total_parts, {6: 21, 7: 38}, 14),
            ("total_last", formulas.total_last_closed,
             catalog.gf_total_last, counting.total_last, {6: 17, 7: 29}, 20)):
        for n, want in known.items():
            if closed(n) != want:
                _fail(f"{name}_closed({n}) != {want}")
        seq = gf().expand(max_n).sequence()
        for n in range(max_n + 1):
            if closed(n) != seq[n]:
                _fail(f"{name}_closed({n}) != series {seq[n]}")
        for n in range(lim.upto(brute_n) + 1):
            if closed(n) != brute(n):
                _fail(f"{name}_closed({n}) != brute force {brute(n)}")


# ---------------------------------------------------------------------------
# bijection


def check_bijection(lim: Limits):
    """reduced_ap_to_arndt is a weight/parts-preserving bijection with
    identity round trips."""
    example = bijection.reduced_ap_to_arndt((2, 3, 6, 2, 1))
    if example != (2, 1, 3, 2, 6):
        _fail(f"worked example maps to {example}")
    for n in range(lim.upto(18) + 1):
        reduced = list(counting.reduced_antipalindromic(n))
        image = []
        for comp in reduced:
            out = bijection.reduced_ap_to_arndt(comp)
            if sum(out) != sum(comp) or len(out) != len(comp):
                _fail(f"map does not preserve weight/parts at {comp}")
            if bijection.arndt_to_reduced_ap(out) != comp:
                _fail(f"round trip fails at {comp}")
            image.append(out)
        if len(set(image)) != len(image):
            _fail(f"map is not injective at weight {n}")
        arndt_set = {c for c in counting.compositions_of(n) if is_arndt(c)}
        if set(image) != arndt_set:
            _fail(f"image at weight {n} is not the Arndt set")
        for comp in arndt_set:
            back = bijection.arndt_to_reduced_ap(comp)
            if bijection.reduced_ap_to_arndt(back) != comp:
                _fail(f"inverse round trip fails at {comp}")


# ---------------------------------------------------------------------------
# asymptotics


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
            exact = formulas.fibonacci(n)
            if abs(est / exact - 1) > 0.005:
                _fail(f"{name} estimate off by more than 0.5% at n = {n}")


def check_total_parts_asymptotic(lim: Limits):
    """The double-pole estimate tracks the exact totals at O(1/n) rate.

    The relative error decays like c/n with c about 1.6, calibrated against
    the exact recurrence; 2.5/n leaves margin.  At n = 200 the error is
    under 1%.
    """
    pole = asymptotics.PoleSpec(asymptotics.GOLDEN_RATIO, 2)
    gf = catalog.gf_total_parts()
    for n in (60, 100, 200):
        est = asymptotics.dominant_asymptotic(gf, pole, n)
        rel = abs(est / formulas.total_parts_closed(n) - 1)
        if rel > 2.5 / n:
            _fail(f"total-parts estimate error {rel:.4f} above {2.5 / n:.4f} "
                  f"at n = {n}")
    rel200 = abs(asymptotics.dominant_asymptotic(gf, pole, 200)
                 / formulas.total_parts_closed(200) - 1)
    if rel200 > 0.01:
        _fail(f"total-parts estimate error {rel200:.4f} above 1% at n = 200")


def check_parts_count_asymptotic(lim: Limits):
    """a(600, m) is within 15% of its asymptotic form for m = 3, 4."""
    triangle = formulas.parts_triangle_by_recurrence(600, max_m=4)
    for m in (3, 4):
        exact = triangle.get(600, m)
        est = asymptotics.parts_count_asymptotic(600, m)
        if abs(exact / est - 1) > 0.15:
            _fail(f"parts asymptotic ratio off by more than 15% at m = {m}")


def check_last_count_asymptotic(lim: Limits):
    """b(60, m) is within 0.1% of its asymptotic form for m <= 3."""
    for m in (1, 2, 3):
        exact = formulas.last_count(60, m)
        est = asymptotics.last_count_asymptotic(60, m)
        if abs(exact / est - 1) > 0.001:
            _fail(f"last asymptotic ratio off by more than 0.1% at m = {m}")


def check_expected_values(lim: Limits):
    """Expected parts and last part approach their displayed limits."""
    slope = float(asymptotics.expected_parts(200)) / 200
    if abs(slope / asymptotics.EXPECTED_PARTS_SLOPE - 1) > 0.01:
        _fail(f"expected parts slope {slope:.6f} not within 1% of "
              f"{asymptotics.EXPECTED_PARTS_SLOPE:.6f}")
    last = float(asymptotics.expected_last(60))
    if abs(last / asymptotics.EXPECTED_LAST_LIMIT - 1) > 0.001:
        _fail(f"expected last part {last:.6f} not within 0.1% of sqrt(5)")
    devs = [abs(float(asymptotics.expected_last(n)) - math.sqrt(5))
            for n in (20, 40, 60)]
    if not (devs[0] >= devs[1] >= devs[2]):
        _fail(f"expected-last deviations {devs} not non-increasing")
    if asymptotics.expected_last(1) != 1:
        _fail("expected_last(1) != 1")


# ---------------------------------------------------------------------------
# registry and runner

CHECKS: List[Tuple[str, str, Callable[[Limits], None]]] = [
    ("compositions", "family-coincidences", check_family_coincidences),
    ("compositions", "flip-classes", check_flip_classes),
    ("counting", "stream", check_stream),
    ("counting", "fibonacci-totals", check_fibonacci_totals),
    ("counting", "reduced-ap-rows", check_reduced_ap_rows),
    ("counting", "antipalindromic-doubling", check_antipalindromic_doubling),
    ("series", "round-trip", check_round_trip),
    ("series", "integrality", check_integrality),
    ("series", "expand-linearity", check_expand_linearity),
    ("series", "poly-associativity", check_poly_associativity),
    ("catalog", "brute-agreement", check_catalog_vs_brute),
    ("catalog", "reduced-equals-arndt", check_reduced_equals_arndt),
    ("catalog", "derivative-identities", check_derivative_identities),
    ("catalog", "block-references", check_block_references),
    ("catalog", "k-arndt-y1", check_k_arndt_y1),
    ("catalog", "block2-equals-arndt", check_block2_equals_arndt),
    ("formulas", "four-way-agreement", check_four_way_agreement),
    ("formulas", "wz-residual", check_wz_residual),
    ("formulas", "row-sums", check_row_sums),
    ("formulas", "fibonacci-double-sums", check_fibonacci_double_sums),
    ("formulas", "last-closed-forms", check_last_closed_forms),
    ("formulas", "totals", check_totals),
    ("bijection", "round-trip-bijective", check_bijection),
    ("asymptotics", "fibonacci-gf", check_fibonacci_asymptotic),
    ("asymptotics", "total-parts-gf", check_total_parts_asymptotic),
    ("asymptotics", "parts-count-ratio", check_parts_count_asymptotic),
    ("asymptotics", "last-count-ratio", check_last_count_asymptotic),
    ("asymptotics", "expected-values", check_expected_values),
]

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
            fn(lim)
        except CheckFailed as exc:
            results.append(CheckResult(full, False, str(exc)))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(full, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(full, True))
    return results
