"""Speed calibration: how fast this machine is running Python right now.

On a virtual machine that shares its cores, CPU speed can change by a factor
of two over seconds to minutes as other guests come and go, so raw times
from two runs are not comparable.  A SpeedSampler runs a small fixed kernel
four times a second (from a SIGALRM handler, so no thread is needed) while a
pass runs.  speed() averages CALIBRATION_REFERENCE_S / (kernel time) over
the samples, and a time multiplied by it reads in reference seconds: what it
would have taken with the kernel running at the reference speed.  The
benchmark reports times in reference seconds, and prints the raw times
beside them.

The kernel does what the arndt layers spend their time on (streaming
compositions, testing a predicate, formatting lines, Fraction recurrences)
but uses nothing from the package, so a change to the package never moves
it.  Its own run time (about 1-2% of a pass) is subtracted before scaling.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# Kernel time on the machine the benchmark was defined on (Python 3.11.7, a
# shared 2-vCPU Xeon virtual machine) when it ran fastest.  Any fixed value
# would do: it only sets the scale of the reported times.  It must never
# change, or numbers from two commits stop being comparable.
CALIBRATION_REFERENCE_S = 0.003
INTERVAL_S = 0.25
# A short interval's speed is averaged over the samples this close to it.
PAD_S = 1.0
# Kernel runs taken back to back when a measurement is too short to be
# sampled by the timer (a set-up import, say).
BURST = 20


def kernel() -> int:
    # Streams the compositions of 10 by the successor rule, tests a pair
    # predicate on each and formats the members, as counting and cli do;
    # then solves a linear recurrence in Fractions, as RationalGF.expand does.
    cur, members, out = [10], 0, []
    while True:
        comp = tuple(cur)
        if all(comp[i] > comp[i + 1] for i in range(0, len(comp) - 1, 2)):
            members += 1
            out.append(",".join(map(str, comp)))
        tail = 0
        while cur and cur[-1] == 1:
            tail += cur.pop()
        if not cur:
            break
        cur[-1] -= 1
        cur.append(tail + 1)
    coeffs = {}
    one = Fraction(1)
    den_rest = ((1, Fraction(-1)), (2, Fraction(-1)), (3, Fraction(1)))
    for n in range(200):
        s = one if n == 0 else Fraction(0)
        for i, v in den_rest:
            prev = coeffs.get(n - i)
            if prev is not None:
                s -= v * prev
        coeffs[n] = s / one
    return members + len(out) + coeffs[199].numerator % 7


class SpeedSampler:
    """Context manager that samples the kernel every INTERVAL_S of wall time.

    samples holds (start, seconds) per kernel run.  Use it in the main
    thread, and never nest two.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.run_kernel()

    def run_kernel(self):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end)."""
        return sum(s for t, s in self.samples if start <= t < end)

    def speed(self, start: float = float("-inf"),
              end: float = float("inf")) -> float:
        """Mean of reference / kernel time over the samples taken within
        PAD_S of [start, end), or over all samples if none were.  With no
        samples at all, it first runs a burst of kernels."""
        if not self.samples:
            for _ in range(BURST):
                self.run_kernel()
        near = [s for t, s in self.samples if start - PAD_S <= t < end + PAD_S]
        near = near or [s for _, s in self.samples]
        return sum(CALIBRATION_REFERENCE_S / s for s in near) / len(near)

    def reference_seconds(self, start: float, end: float) -> float:
        """The time from start to end, less kernel time, at reference speed."""
        return (end - start - self.busy(start, end)) * self.speed(start, end)
