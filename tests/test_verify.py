from collections import Counter

import pytest

from arndt import asymptotics, catalog, counting, formulas, verify
from arndt.compositions import ARNDT
from arndt.series import BivariatePolynomial, RationalGF
from arndt.verify import run_checks


def test_all_checks_pass_at_reduced_scale():
    results = run_checks("all", max_n=8)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert len(results) == 28


def test_every_check_compares_cases():
    results = run_checks("all", max_n=6)
    assert len(results) == 28
    assert [r.name for r in results if not r.passed or r.cases <= 0] == []


def test_tolerance_failure_shows_the_error(monkeypatch):
    exact = formulas.last_count
    monkeypatch.setattr(asymptotics, "last_count_asymptotic",
                        lambda n, m: exact(n, m) * 1.01)
    results = {r.name: r for r in run_checks("asymptotics")}
    failed = results.pop("asymptotics.last-count-ratio")
    assert not failed.passed
    assert failed.detail.startswith("b(60, 1) error: got 0.0099")
    assert failed.detail.endswith(", want at most 0.001")
    assert all(r.passed for r in results.values())


def test_scope_selects_subset():
    results = run_checks("bijection", max_n=10)
    assert results and all(r.name.startswith("bijection.") for r in results)
    assert all(r.passed for r in results)


def test_unknown_scope():
    with pytest.raises(ValueError):
        run_checks("nonsense")


def test_iter_checks_refuses_bad_input_at_the_call():
    # No next(): the refusal comes where the iterator is made.
    with pytest.raises(ValueError, match="unknown scope 'nonsense'"):
        verify.iter_checks("nonsense")
    with pytest.raises(ValueError, match="nonnegative"):
        verify.iter_checks("all", -1)


def test_negative_max_n_is_refused_before_any_check_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "CHECKS",
                        [("counting", "spy", lambda run: ran.append(run))])
    with pytest.raises(ValueError, match="nonnegative"):
        run_checks("all", max_n=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        next(verify.iter_checks("counting", max_n=-1))
    assert ran == []


@pytest.mark.parametrize("max_n, want", [(None, 40), (10, 10), (50, 40)])
def test_max_n_clamps_each_default_range(monkeypatch, max_n, want):
    monkeypatch.setattr(verify, "CHECKS",
                        [("spy", "range", lambda run: run(40))])
    [result] = run_checks("all", max_n)
    assert result.cases == want


# The comparisons each check makes at its default range; a change to a
# range or to what a check compares shows here.
DEFAULT_CASES = {
    "compositions.family-coincidences": 36864,
    "compositions.flip-classes": 2862,
    "counting.stream": 52,
    "counting.fibonacci-totals": 44,
    "counting.reduced-ap-rows": 15,
    "counting.antipalindromic-doubling": 53,
    "series.round-trip": 20,
    "series.integrality": 20,
    "series.expand-linearity": 1352,
    "series.poly-associativity": 10,
    "catalog.brute-agreement": 266,
    "catalog.reduced-equals-arndt": 2,
    "catalog.derivative-identities": 2,
    "catalog.block-references": 6,
    "catalog.k-arndt-y1": 11,
    "catalog.block2-equals-arndt": 31,
    "formulas.four-way-agreement": 876,
    "formulas.wz-residual": 943,
    "formulas.row-sums": 80,
    "formulas.fibonacci-double-sums": 80,
    "formulas.last-closed-forms": 977,
    "formulas.totals": 122,
    "bijection.round-trip-bijective": 20334,
    "asymptotics.fibonacci-gf": 20,
    "asymptotics.total-parts-gf": 4,
    "asymptotics.parts-count-ratio": 2,
    "asymptotics.last-count-ratio": 3,
    "asymptotics.expected-values": 4,
}


def test_each_check_compares_its_pinned_cases_at_the_default_range():
    results = run_checks("all")
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert {r.name: r.cases for r in results} == DEFAULT_CASES


@pytest.mark.parametrize("warm", [False, True])
def test_corrupted_catalog_is_caught(monkeypatch, warm):
    if warm:  # a run before the patch leaves nothing that the next one reads
        assert all(r.passed for r in run_checks("catalog", max_n=8))
    # drop the x*y term from the numerator: the series then undercounts
    bad_num = BivariatePolynomial.from_terms(
        [(0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1), (3, 1, -1)])
    bad_den = BivariatePolynomial.from_terms(
        [(0, 0, 1), (1, 0, -1), (2, 0, -1), (3, 0, 1), (3, 2, -1)])
    monkeypatch.setattr(catalog, "gf_arndt",
                        lambda: RationalGF(bad_num, bad_den))
    results = run_checks("catalog", max_n=8) + run_checks("formulas", max_n=8)
    failed = [r for r in results if not r.passed]
    assert {"catalog.brute-agreement", "catalog.block2-equals-arndt",
            "formulas.four-way-agreement"} <= {r.name for r in failed}
    # a crash inside an expansion names the GF, like any other failure
    assert [r.name for r in failed if "gf_arndt" not in r.detail] == []


def test_reduced_ap_gf_is_checked_against_an_independent_form(monkeypatch):
    # Both constructors given the anti-palindromic kernel 2x^3 still agree
    # with each other; the check must compare gf_reduced_ap with another form.
    for name in ("gf_arndt", "gf_reduced_ap"):
        monkeypatch.setattr(catalog, name, lambda: catalog._pairs((3, 2)))
    [result] = [r for r in run_checks("catalog")
                if r.name == "catalog.reduced-equals-arndt"]
    assert not result.passed
    assert "gf_reduced_ap" in result.detail


# The route results that one run shares: one key, one computation.


@pytest.mark.parametrize("max_n", [8, None])
def test_a_shared_run_gives_the_results_of_an_unshared_one(monkeypatch,
                                                            max_n):
    shared = run_checks("all", max_n)
    monkeypatch.setattr(verify.Run, "once",
                        lambda run, fn, *args: fn(*args))
    assert run_checks("all", max_n) == shared


def test_a_run_makes_each_route_call_once(monkeypatch):
    calls = Counter()
    tally, expand = counting.tally, RationalGF.expand
    triangle = formulas.parts_triangle_by_recurrence

    def tally_spy(n, family, statistic):
        calls["tally", n, family, statistic] += 1
        return tally(n, family, statistic)

    def expand_spy(gf, order):
        calls[frozenset(gf.num.terms()), frozenset(gf.den.terms()), order] += 1
        return expand(gf, order)

    def triangle_spy(max_n):
        calls["triangle", max_n] += 1
        return triangle(max_n)

    monkeypatch.setattr(counting, "tally", tally_spy)
    monkeypatch.setattr(RationalGF, "expand", expand_spy)
    monkeypatch.setattr(formulas, "parts_triangle_by_recurrence", triangle_spy)
    assert all(r.passed for r in run_checks("all"))
    assert len(calls) > 100
    assert [key for key, count in calls.items() if count > 1] == []
    # the three formulas checks share one triangle, two rows past their range
    assert [key for key in calls if key[0] == "triangle"] == [("triangle", 42)]


def _count_tally_calls(monkeypatch):
    calls = Counter()
    tally = counting.tally

    def tally_spy(*args):
        calls[args] += 1
        return tally(*args)

    monkeypatch.setattr(counting, "tally", tally_spy)
    return calls


def test_a_direct_call_with_a_fresh_run_computes_every_time(monkeypatch):
    calls = _count_tally_calls(monkeypatch)
    for _ in range(2):
        assert verify.check_reduced_ap_rows(verify.Run(3)) == 4
    assert len(calls) == 8 and set(calls.values()) == {2}


def test_two_runs_share_nothing(monkeypatch):
    calls = _count_tally_calls(monkeypatch)
    run_checks("counting", max_n=3)
    once = Counter(calls)
    assert once and set(once.values()) == {1}
    run_checks("counting", max_n=3)
    assert calls == once + once


def test_a_nested_run_leaves_the_outer_runs_results_untouched(monkeypatch):
    key = (counting.tally, 3, ARNDT, "parts")
    runs = []

    def probe(run):
        runs.append(run)
        return len(run.once(*key))

    def nest(run):
        row = run.once(*key)
        outer = dict(run.results)
        assert all(r.passed for r in run_checks("series"))
        assert run.results == outer and run.results[key] is row
        runs.append(run)
        return 1

    monkeypatch.setattr(verify, "CHECKS", [("counting", "nest", nest),
                                           ("series", "probe", probe)])
    assert all(r.passed for r in run_checks("counting"))
    inner, outer = runs
    assert inner is not outer and list(inner.results) == [key]
    assert inner.results[key] is not outer.results[key]
