"""Benchmark of the `arndt` command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 25 \
        --trace 0

Run from the root of a source checkout; the package is imported from src/.
Every pass runs one workload's ops (workloads.py) through arndt.cli.main in a
fresh worker process, one process at a time, with stdout captured by a
hashing sink.  Each op is checked against its golden exit code, digest and
byte count (golden.json) and, where one exists, a count from another route;
any mismatch is a failed op, and the command then exits 1.

--trace 0 runs passes until --seconds is spent (at least MIN_PASSES) and
reports the end-to-end medians.  --trace 1 runs one untraced pass, one
traced pass and the layer probes, and reports the per-layer metrics and the
tracing overhead.  Times are in reference seconds: scaled to a fixed machine
speed by calibrate.py, with the raw times printed beside them.  The last
line of stdout is one JSON object with the metrics that BENCHMARK.json lists
for the mode.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from workloads import WORKLOADS, expectations, op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

MIN_PASSES = 2
SETUP_SAMPLES = 15
# Every run must end within 180 s; a worker is killed once this is spent.
DEADLINE_S = 170.0

# End-to-end metrics taken from each pass; setup_s comes from set-up runs.
PASS_METRICS = ("wall_s", "first_output_s", "peak_rss_mb")


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts workers one at a time, all within one deadline."""

    def __init__(self):
        self.started = perf_counter()

    def spawn(self, spec: dict) -> dict:
        left = DEADLINE_S - (perf_counter() - self.started)
        if left <= 0:
            raise WorkerFailed("deadline spent before the run finished")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(SRC),
                 json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{spec['mode']} worker overran the deadline")
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise WorkerFailed(f"{spec['mode']} worker exited "
                               f"{proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def check_op(result: dict, golden: dict, expected: dict) -> List[str]:
    """Reasons an op's output is wrong; empty when it is right."""
    problems = []
    if result["error"]:
        problems.append(f"raised {result['error']}")
    if golden is None:
        return problems + ["no golden record"]
    if result["exit"] != golden["exit"]:
        problems.append(f"exit {result['exit']}, golden {golden['exit']}")
    if (result["sha256"], result["bytes"]) != (golden["sha256"],
                                               golden["bytes"]):
        problems.append(f"stdout {result['bytes']} bytes "
                        f"{result['sha256'][:12]}, golden {golden['bytes']} "
                        f"bytes {golden['sha256'][:12]}")
    if result["fail_lines"]:
        problems.append(f"{result['fail_lines']} FAIL lines")
    for field, want in expected.items():
        if result[field] != want:
            problems.append(f"{field} {result[field]}, expected {want}")
    return problems


class Verdict:
    """Tally of attempted and failed ops, with the reasons."""

    def __init__(self, golden: Dict[str, dict], expected: Dict[str, dict]):
        self.golden, self.expected = golden, expected
        self.attempted = 0
        self.problems: List[str] = []

    def check_pass(self, ops: List[dict], reference: Dict[str, dict] = None):
        for op in ops:
            found = check_op(op, self.golden.get(op["op"]),
                             self.expected.get(op["op"], {}))
            if reference is not None and \
                    op["sha256"] != reference[op["op"]]["sha256"]:
                found.append("traced stdout differs from untraced")
            self.note(op["op"], found)

    def note(self, what: str, found: List[str]):
        self.attempted += 1
        if found:
            self.problems.append(f"{what}: {'; '.join(found)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def pass_order(ops, rng: random.Random) -> List[List[str]]:
    """The seed's op order for one pass; the ops themselves never change."""
    return [list(op) for op in rng.sample(ops, len(ops))]


def run_timed(runner: Runner, ops, rng: random.Random, seconds: float,
              verdict: Verdict) -> Dict[str, float]:
    runner.spawn({"mode": "setup"})  # compile bytecode before timing
    setups = [runner.spawn({"mode": "setup"}) for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(runner.spawn({"mode": "pass",
                                    "ops": pass_order(ops, rng)}))
        verdict.check_pass(passes[-1]["ops"])
        elapsed = perf_counter() - t0
        if len(passes) >= MIN_PASSES and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in PASS_METRICS}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    for name in ("raw_wall_s", "speed") + PASS_METRICS:
        print(f"  per pass {name:15s} {_listing(p[name] for p in passes)}")
    for name in ("raw_setup_s", "speed", "setup_s"):
        print(f"  set-up   {name:15s} {_listing(s[name] for s in setups)}")
    return metrics


def run_traced(runner: Runner, ops, rng: random.Random, workload: str,
               seed: int, verdict: Verdict,
               units: Dict[str, str]) -> Dict[str, float]:
    order = pass_order(ops, rng)
    runner.spawn({"mode": "setup"})
    plain = runner.spawn({"mode": "pass", "ops": order})
    verdict.check_pass(plain["ops"])
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    traced = runner.spawn({"mode": "pass", "ops": order, "trace": True,
                           "spans_out": str(spans_out)})
    verdict.check_pass(traced["ops"], {op["op"]: op for op in plain["ops"]})
    probes = runner.spawn({"mode": "probes"})
    verdict.note("layer probes", probes["errors"])
    metrics = in_reference_units(traced["layers"], units, traced["speed"])
    metrics.update(in_reference_units(probes["metrics"], units,
                                      probes["speed"]))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    for name in ("raw_wall_s", "speed", "wall_s"):
        print(f"  untraced, traced {name:10s} "
              f"{_listing([plain[name], traced[name]])}")
    print(f"  spans written to {spans_out.relative_to(ROOT)}")
    return metrics


def in_reference_units(raw: Dict[str, float], units: Dict[str, str],
                       speed: float) -> Dict[str, float]:
    """Scale times and rates measured at `speed` to the reference speed."""
    scale = {"s": speed, "1/s": 1 / speed}
    return {name: value * scale.get(units.get(name), 1)
            for name, value in raw.items()}


def _listing(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the op order of each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arndt" / "cli.py").is_file():
        print(f"error: no arndt package under {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    golden = json.loads((HERE / "golden.json").read_text())
    ops = WORKLOADS[args.workload]
    verdict = Verdict(golden, expectations(ops))
    rng = random.Random(args.seed)
    runner = Runner()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            metrics = run_traced(runner, ops, rng, args.workload, args.seed,
                                 verdict, units)
        else:
            metrics = run_timed(runner, ops, rng, args.seconds, verdict)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units.get(name, '')}")
    print(f"  error_rate {verdict.failed / verdict.attempted:.6g} "
          f"({verdict.failed} of {verdict.attempted} ops failed)")
    for problem in verdict.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not verdict.problems else 1


if __name__ == "__main__":
    sys.exit(main())
