"""The benchmark tracer patches arndt functions and methods by name; if one
of them is renamed or deleted, installing the tracer fails here."""

from collections import Counter
from pathlib import Path

import pytest

import arndt.cli  # the tracer wraps every layer the CLI loads
from arndt import formulas, verify
from arndt.series import RationalGF

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer
    original = vars(RationalGF)["expand"]
    tracer = Tracer()
    tracer.install()
    try:
        assert vars(RationalGF)["expand"] is not original
    finally:
        tracer.restore()
    assert vars(RationalGF)["expand"] is original


def test_tracer_reads_the_count_triangle(monkeypatch):
    # The tracer's hook on parts_triangle_by_recurrence reads max_row, and
    # the benchmark's probes read row_sum.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        triangle = formulas.parts_triangle_by_recurrence(5)
    finally:
        tracer.restore()
    assert tracer.counters["formulas.triangle_rows"] == 6  # rows 0..5
    assert triangle.max_row == 5
    assert triangle.row_sum(5) == formulas.fibonacci(5)


def test_checks_pass_under_the_tracer(monkeypatch):
    # The tracer wraps each entry of verify.CHECKS and hands the wrapped
    # check what iter_checks passes it; every check must still compare
    # cases and pass, each in its own span.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer
    checks = list(verify.CHECKS)
    tracer = Tracer()
    tracer.install()
    try:
        results = verify.run_checks("catalog", max_n=6)
    finally:
        tracer.restore()
    assert results and [r.name for r in results
                        if not r.passed or r.cases <= 0] == []
    spans = Counter(s[0] for s in tracer.spans
                    if s[0].startswith("verify.check."))
    assert spans == Counter(f"verify.check.{r.name}" for r in results)
    assert verify.CHECKS == checks
    assert all(a[2] is b[2] for a, b in zip(verify.CHECKS, checks))


@pytest.mark.parametrize("family", ["all", "antipalindromic"])
def test_brute_force_stream_is_spanned_until_exhausted(monkeypatch, capsys,
                                                       family):
    # family_blocks is a stream: its span runs from the first block drawn
    # to the last, so the walk and the writing of its members fall in it,
    # not in the cli.main span around it.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import Tracer
    arndt.cli.build_parser()  # built once per process: not what is timed
    tracer = Tracer()
    tracer.install()
    try:
        code = arndt.cli.main(["enumerate", "--n", "14", "--family", family])
    finally:
        tracer.restore()
    assert code == 0 and capsys.readouterr().out
    (main,) = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"]
    blocks = [s for s in tracer.spans
              if s[0] == "counting.family_blocks" and s[3] == main]
    main_s = tracer.spans[main][2] - tracer.spans[main][1]
    assert blocks and max(end - start for _, start, end, _ in blocks) \
        >= main_s / 2
