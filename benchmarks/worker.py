"""One benchmark process: set-up timing, a pass over a workload's ops, or
the layer probes.  run.py starts a fresh worker for each, one at a time.

    python3 worker.py <src-dir> '<json spec>'

The spec's "mode" is "setup", "pass" or "probes"; a pass takes "ops" (a list
of argv lists), "trace" (bool) and "spans_out" (a file for the traced spans,
or null).  The worker prints one JSON object on stdout and exits 0; the
commands' own stdout goes to an OutputSink, never to the pipe.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    # Set-up time is a fresh process's import of the CLI plus its parser, so
    # nothing the benchmark needs may be imported before this point.
    sys.path.insert(0, sys.argv[1])
    _t0 = perf_counter()
    import arndt.cli
    arndt.cli.build_parser()
    SETUP_S = perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from typing import List  # noqa: E402

from calibrate import SpeedSampler  # noqa: E402
from sink import OutputSink  # noqa: E402


def run_op(cli, argv: List[str]) -> dict:
    """Run `arndt <argv>` through cli.main with stdout and stderr captured."""
    out = OutputSink()
    error = None
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(OutputSink()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else \
                int(exc.code is not None)
        except Exception as exc:  # a crashed op fails; the pass goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    first = out.first_write if out.first_write is not None else end
    return {"op": " ".join(argv), "exit": code, "error": error,
            "sha256": out.hexdigest(), "bytes": out.bytes, "lines": out.lines,
            "pass_lines": out.pass_lines, "fail_lines": out.fail_lines,
            "start": start, "first_output_s": first - start}


def run_pass(spec: dict) -> dict:
    """Run the ops once; times are in reference seconds (see calibrate.py)."""
    cli = sys.modules["arndt.cli"]
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        with SpeedSampler() as sampler:
            t0 = perf_counter()
            ops = [run_op(cli, argv) for argv in spec["ops"]]
            t1 = perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    speed = sampler.speed()
    first = sum(sampler.reference_seconds(
        op["start"], op["start"] + op["first_output_s"]) for op in ops)
    result = {"wall_s": sampler.reference_seconds(t0, t1),
              "first_output_s": first,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "raw_wall_s": t1 - t0, "speed": speed, "ops": ops}
    if tracer is not None:
        from spans import layer_metrics
        import arndt.verify
        checks = [f"{area}.{name}" for area, name, _ in arndt.verify.CHECKS]
        result["layers"] = layer_metrics(
            tracer, checks, t1 - t0, sum(op["bytes"] for op in ops))
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return result


def main(spec: dict) -> dict:
    mode = spec["mode"]
    if mode == "setup":
        speed = SpeedSampler().speed()
        return {"setup_s": SETUP_S * speed, "raw_setup_s": SETUP_S,
                "speed": speed}
    if mode == "pass":
        return run_pass(spec)
    if mode == "probes":
        from probes import run_probes
        with SpeedSampler() as sampler:
            result = run_probes()
        result["speed"] = sampler.speed()
        return result
    raise ValueError(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[2]))))
