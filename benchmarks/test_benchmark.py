"""Tests of the benchmark itself: the output sink, span arithmetic, tracing,
metric names and the output gate.

    python3 -m pytest benchmarks -q
"""

import hashlib
import json
import random
import re
import signal
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from calibrate import CALIBRATION_REFERENCE_S, SpeedSampler  # noqa: E402
from probes import run_probes  # noqa: E402
from sink import OutputSink  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, expectations, op_key  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- sink -------------------------------------------------------------------

def test_sink_counts_bytes_and_hashes_what_it_is_given():
    sink = OutputSink()
    chunks = ["PASS  a\n", "é→", "\n", "", "FAIL  b: x\nPASS  c\n"]
    for chunk in chunks:
        sink.write(chunk)
    data = "".join(chunks).encode("utf-8")
    assert sink.bytes == len(data)
    assert sink.hexdigest() == hashlib.sha256(data).hexdigest()
    assert sink.lines == 4
    assert (sink.pass_lines, sink.fail_lines) == (2, 1)


def test_sink_prefixes_count_only_at_line_starts():
    sink = OutputSink()
    for chunk in ["x PASS  y\n", "xFAIL", "FAIL\n"]:
        sink.write(chunk)
    assert (sink.pass_lines, sink.fail_lines) == (0, 0)


def test_sink_stamps_the_first_non_empty_write_only():
    sink = OutputSink()
    sink.write("")
    assert sink.first_write is None
    sink.write("a")
    first = sink.first_write
    assert first is not None
    sink.write("b")
    assert sink.first_write == first


def test_print_through_the_sink():
    sink = OutputSink()
    print("hello", 3, file=sink)
    assert sink.hexdigest() == hashlib.sha256(b"hello 3\n").hexdigest()


# -- calibration ------------------------------------------------------------

def test_speed_sampler_samples_while_open_and_then_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.8:
            pass
        t1 = perf_counter()
    assert len(sampler.samples) >= 2
    assert sampler.busy(t0, t1) == pytest.approx(
        sum(s for t, s in sampler.samples if t0 <= t < t1))
    assert sampler.busy(t1 + 1, t1 + 2) == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    speeds = [CALIBRATION_REFERENCE_S / s for _, s in sampler.samples]
    assert sampler.speed() == pytest.approx(sum(speeds) / len(speeds))


def test_speed_without_samples_takes_a_burst():
    sampler = SpeedSampler()
    assert sampler.speed() > 0
    assert len(sampler.samples) > 1


def test_times_and_rates_scale_opposite_ways():
    units = {"a_s": "s", "b_per_s": "1/s", "c": "count"}
    raw = {"a_s": 2.0, "b_per_s": 10.0, "c": 7, "d": 1.0}
    assert run.in_reference_units(raw, units, 0.5) == \
        {"a_s": 1.0, "b_per_s": 20.0, "c": 7, "d": 1.0}


# -- self time --------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["counting.count_by_parts", 2.0, 5.0, 0],
             ["series.RationalGF.expand", 3.0, 4.0, 1]]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_of_siblings_and_overlaps():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["formulas.fibonacci", 1.0, 3.0, 0],
             ["formulas.lucas", 4.0, 6.0, 0],
             ["catalog.gf_arndt", 5.0, 7.0, 0],    # overlaps its sibling
             ["catalog.gf_k_block", 9.0, 12.0, 0]]  # runs past its parent
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0, 3.0])


def test_self_time_without_children_is_the_duration():
    assert self_times([["cli.main", 1.5, 2.0, -1]]) == pytest.approx([0.5])


# -- tracing ----------------------------------------------------------------

def _attribute_snapshot():
    import arndt.compositions
    import arndt.series
    import arndt.verify
    owners = [m for name, m in sys.modules.items()
              if name == "arndt" or name.startswith("arndt.")]
    owners += [arndt.compositions.Family, arndt.series.RationalGF,
               arndt.series.BivariatePolynomial, arndt.series.TruncatedSeries]
    return ({(id(o), k): v for o in owners for k, v in vars(o).items()},
            list(arndt.verify.CHECKS))


def test_traced_pass_restores_attributes_and_keeps_output():
    import arndt.cli
    ops = [["verify", "counting", "--max-n", "9"],
           ["enumerate", "--n", "9", "--family", "all"],
           ["series", "block-arndt", "--k", "3", "--N", "12"],
           ["table", "last", "--N", "30", "--method", "formula"],
           ["bfile", "parts-triangle-flat", "--N", "20"]]
    plain = [worker.run_op(arndt.cli, op) for op in ops]
    before = _attribute_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        traced = [worker.run_op(arndt.cli, op) for op in ops]
    finally:
        tracer.restore()
    after = _attribute_snapshot()
    assert after[1] == before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert [op["sha256"] for op in traced] == [op["sha256"] for op in plain]
    assert [op["exit"] for op in traced] == [0] * len(ops)

    checks = [f"{a}.{n}" for a, n, _ in arndt.verify.CHECKS]
    metrics = layer_metrics(tracer, checks, 1.0, 0)
    assert metrics["counting.streamed"] > 2 ** 8  # enumerate --n 9 alone
    assert 0 < metrics["counting.members"] <= metrics["counting.streamed"]
    assert metrics["series.expand_calls"] == 1
    assert metrics["formulas.triangle_rows"] == 21
    assert metrics["verify.check_s.counting.stream"] > 0
    assert metrics["verify.check_s.series.round-trip"] == 0
    assert metrics["verify.checks_failed"] == 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(ops)
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)


def test_failed_check_is_counted():
    import arndt.verify
    area, name, fn = arndt.verify.CHECKS[0]
    tracer = Tracer()
    tracer.install()
    try:
        def broken(lim):
            raise arndt.verify.CheckFailed("injected")
        arndt.verify.CHECKS[0] = (area, name, tracer._check_wrapper(
            area, name, broken))
        results = arndt.verify.run_checks(area, max_n=3)
    finally:
        tracer.restore()
    assert not results[0].passed
    assert tracer.counters["verify.checks_failed"] == 1
    assert arndt.verify.CHECKS[0][2] is fn


# -- metric names -----------------------------------------------------------

def test_benchmark_json_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), \
        [n for n in names if not NAME.fullmatch(n)]
    metric_names = names[len(SPEC["workloads"]):]
    assert len(set(metric_names)) == len(metric_names)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == \
        set(run.PASS_METRICS) | {"setup_s"}


def test_traced_run_measures_exactly_the_listed_layer_metrics():
    import arndt.verify
    checks = [f"{a}.{n}" for a, n, _ in arndt.verify.CHECKS]
    probes = run_probes()
    assert probes["errors"] == []
    measured = set(layer_metrics(Tracer(), checks, 1.0, 0))
    measured |= set(probes["metrics"]) | {"trace.overhead_s"}
    assert measured == {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(n) for n in measured)


# -- output gate ------------------------------------------------------------

def _fake_cli(text, code=0, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        print(text, end="")
        return code
    return types.SimpleNamespace(main=main)


@pytest.mark.parametrize("fake", [
    _fake_cli("wrong output\n"),
    _fake_cli("", code=3),
    _fake_cli("", exc=ZeroDivisionError("boom")),
])
def test_fake_op_with_wrong_output_is_a_failure(fake):
    op = ["bfile", "arndt-total", "--N", "5000", "--check"]
    verdict = run.Verdict(GOLDEN, expectations([tuple(op)]))
    verdict.check_pass([worker.run_op(fake, op)])
    assert (verdict.attempted, verdict.failed) == (1, 1)


def test_wrong_exit_code_and_fail_lines_are_failures():
    op = ("verify", "all")
    golden = GOLDEN[op_key(op)]
    base = {"op": op_key(op), "error": None, "sha256": golden["sha256"],
            "bytes": golden["bytes"], "exit": 0, "fail_lines": 0,
            "pass_lines": 28}
    expected = expectations([op])[op_key(op)]
    assert run.check_op(base, golden, expected) == []
    for change in ({"exit": 1}, {"fail_lines": 1}, {"pass_lines": 27}):
        assert run.check_op(dict(base, **change), golden, expected)
    assert run.check_op(base, None, expected)


def test_real_op_passes_the_gate():
    import arndt.cli
    op = ("bfile", "arndt-total", "--N", "5000", "--check")
    verdict = run.Verdict(GOLDEN, expectations([op]))
    verdict.check_pass([worker.run_op(arndt.cli, list(op))])
    assert verdict.problems == []


def test_every_op_has_a_golden_record():
    keys = {op_key(op) for ops in WORKLOADS.values() for op in ops}
    assert keys == set(GOLDEN)


def test_enumerate_line_counts_come_from_the_generating_functions():
    got = expectations(WORKLOADS["enumerate-dense"])
    assert got["enumerate --n 20 --family all --format jsonl"] == \
        {"lines": 2 ** 19}
    assert all("lines" in v for k, v in got.items()
               if k.startswith("enumerate"))


def test_seed_permutes_op_order_only():
    ops = WORKLOADS["gf-closed-forms"]
    orders = [run.pass_order(ops, random.Random(seed)) for seed in range(5)]
    assert len({json.dumps(o) for o in orders}) > 1
    assert all(sorted(map(tuple, o)) == sorted(ops) for o in orders)
    assert orders[0] == run.pass_order(ops, random.Random(0))
