"""The benchmark tracer patches arndt functions and methods by name; if one
of them is renamed or deleted, installing the tracer fails here."""

from pathlib import Path

import arndt.cli  # noqa: F401  (the tracer wraps every layer the CLI loads)
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
