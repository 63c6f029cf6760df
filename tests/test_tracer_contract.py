"""The benchmark tracer patches arndt functions and methods by name; if one
of them is renamed or deleted, installing the tracer fails here."""

from pathlib import Path

import arndt.cli  # noqa: F401  (the tracer wraps every layer the CLI loads)
from arndt import formulas
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
