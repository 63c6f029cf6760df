"""Every benchmark op, run in process, prints its golden bytes and exit code
and meets the count that the harness derives by another route; a change to
src/ that alters a benchmark output fails here, not only in the benchmark.
Only reads from benchmarks/: its workloads, golden.json and its checker."""

import json
from pathlib import Path

import arndt.cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_benchmark_op_matches_its_golden_record(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from run import Verdict
    from worker import run_op
    from workloads import WORKLOADS, expectations

    golden = json.loads((BENCHMARKS / "golden.json").read_text())
    ops = [op for workload in WORKLOADS.values() for op in workload]
    verdict = Verdict(golden, expectations(ops))
    verdict.check_pass([run_op(arndt.cli, op) for op in ops])
    assert verdict.attempted == len(golden)
    assert verdict.problems == []
