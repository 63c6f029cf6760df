import pytest

from arndt import asymptotics, catalog, formulas
from arndt.series import BivariatePolynomial, RationalGF
from arndt.verify import Limits, run_checks


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


def test_limits_clamp():
    assert Limits(None).upto(40) == 40
    assert Limits(10).upto(40) == 10
    assert Limits(50).upto(40) == 40


def test_corrupted_catalog_is_caught(monkeypatch):
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
