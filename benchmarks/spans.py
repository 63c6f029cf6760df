"""Spans around the calls into each layer of the arndt package, recorded from
outside the package by replacing module and class attributes with wrappers.

A span is [name, start, end, parent]: the name is "<layer>.<function>", the
times come from perf_counter(), and parent is the index of the span that was
open when this one began (-1 at the root).  A span opens only where a call
crosses from one layer into another; a call within the caller's own layer
runs unwrapped, so recursion-heavy helpers (fibonacci inside last_count) do
not flood the trace.  A stream (a generator function) holds its span from
its first item until it is exhausted or closed, so the consumer's per-item
work done in between (a membership test, say) is charged to the stream.

Per-item predicates and composition items are counted, never spanned: a span
per composition would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

# Modules whose public functions are wrapped as spans, by layer.  The
# compositions layer holds only per-item predicates (counted below), and
# verify is traced per check through verify.CHECKS.
SPANNED_MODULES = ("cli", "counting", "catalog", "formulas", "bijection",
                   "asymptotics")
# The cli layer is traced at its public entry point only.
CLI_ENTRY = "main"
SERIES_METHODS = {
    "RationalGF": ("expand", "__add__", "__sub__", "__mul__", "__truediv__",
                   "series_equal", "diff_y_at_1", "eval_y1"),
    "BivariatePolynomial": ("__mul__",),
    "TruncatedSeries": ("integer_rows", "sequence"),
}
LAYERS = ("cli", "verify", "counting", "series", "catalog", "formulas",
          "bijection", "asymptotics")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose parent index points at it.  Overlapping
    children are merged before subtracting, and child time outside the
    parent's interval is ignored.
    """
    children: Dict[int, List[tuple]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span and counter store for one traced pass, plus the attribute
    patches that feed it.  install() wraps, restore() puts every original
    back; spans and counters stay in memory until the caller writes them."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (owner, attribute, original)
        self._flushes: List[tuple] = []  # (counter, cell) of count wrappers
        self._checks: List[tuple] = []

    # -- spans and counters --------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:  # a stream abandoned before exhaustion
            self._stack.remove(idx)

    def in_layer(self, layer: str) -> bool:
        return bool(self._stack) and \
            layer_of(self.spans[self._stack[-1]][0]) == layer

    def add(self, counter: str, amount: float = 1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers ------------------------------------------------------

    def call_wrapper(self, name: str, fn: Callable, always: bool = False,
                     hook: Optional[Callable] = None) -> Callable:
        """Span around fn when called from another layer (or always).

        hook(args, result, seconds) runs after every call, spanned or not.
        """
        layer = layer_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spanned = always or not self.in_layer(layer)
            idx = self.open(name) if spanned else -1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                if spanned:
                    self.close(idx)
            if hook is not None:
                hook(args, result, seconds)
            return result
        return wrapper

    def stream_wrapper(self, name: str, fn: Callable,
                       counter: Optional[str] = None) -> Callable:
        """Span from a stream's first item to its end; counts its items."""
        layer = layer_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1 if self.in_layer(layer) else self.open(name)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                if idx >= 0:
                    self.close(idx)
                if counter:
                    self.add(counter, items)
        return wrapper

    def count_wrapper(self, counter: str, fn: Callable) -> Callable:
        """Count the calls of a predicate that return true; no span."""
        cell = [0]
        self._flushes.append((counter, cell))

        @functools.wraps(fn)
        def wrapper(*args):
            hit = fn(*args)
            if hit:
                cell[0] += 1
            return hit
        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, replacement: Callable):
        """Replace fn under every name an arndt module binds it to, so calls
        through `from .x import f` bindings are traced as well."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "arndt" or mod_name.startswith("arndt."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self.patch(module, attr, replacement)

    def install(self):
        """Wrap the arndt layers.  Call restore() when the pass ends."""
        import arndt.compositions
        import arndt.counting
        import arndt.series
        import arndt.verify

        self._checks = list(arndt.verify.CHECKS)
        hooks = self._hooks()
        for mod_name in SPANNED_MODULES:
            module = sys.modules[f"arndt.{mod_name}"]
            for attr, fn in list(vars(module).items()):
                if not _public_function(module, attr, fn):
                    continue
                if mod_name == "cli" and attr != CLI_ENTRY:
                    continue
                name = f"{mod_name}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    counter = ("counting.streamed"
                               if fn is arndt.counting.compositions_of
                               else None)
                    wrapped = self.stream_wrapper(name, fn, counter)
                else:
                    wrapped = self.call_wrapper(name, fn,
                                                hook=hooks.get(name))
                self.patch_function(fn, wrapped)
        for cls_name, methods in SERIES_METHODS.items():
            cls = getattr(arndt.series, cls_name)
            for meth in methods:
                name = f"series.{cls_name}.{meth}"
                self.patch(cls, meth, self.call_wrapper(
                    name, vars(cls)[meth], hook=hooks.get(name)))
        family = arndt.compositions.Family
        self.patch(family, "member",
                   self.count_wrapper("counting.members", family.member))
        for pred in ("is_arndt", "is_reduced_ap_representative"):
            self.patch(arndt.counting, pred, self.count_wrapper(
                "counting.members", vars(arndt.counting)[pred]))
        for i, (area, name, fn) in enumerate(self._checks):
            arndt.verify.CHECKS[i] = (area, name,
                                      self._check_wrapper(area, name, fn))

    def restore(self):
        """Put every wrapped attribute back and fold counters in."""
        import arndt.verify

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        arndt.verify.CHECKS[:] = self._checks
        for counter, cell in self._flushes:
            self.add(counter, cell[0])
        self._flushes = []
        leftovers = [(owner, attr) for owner, attr, original in self._patches
                     if vars(owner)[attr] is not original]
        self._patches = []
        if leftovers:
            raise RuntimeError(f"attributes not restored: {leftovers}")

    def _check_wrapper(self, area: str, name: str, fn: Callable) -> Callable:
        inner = self.call_wrapper(f"verify.check.{area}.{name}", fn,
                                  always=True)

        @functools.wraps(fn)
        def wrapper(lim):
            try:
                return inner(lim)
            except Exception:
                self.add("verify.checks_failed")
                raise
        return wrapper

    def _hooks(self) -> Dict[str, Callable]:
        def expand(args, series, seconds):
            gf, order = args[0], series.order
            self.add("series.expand_calls")
            self.add("series.expand_s", seconds)
            self.add("series.coeffs_out", len(series.as_polynomial().terms()))
            self.add("series.expand_work",
                     (order + 1) ** 2 * len(gf.den.terms()))

        def mul(args, result, seconds):
            self.add("series.mul_calls")
            self.add("series.mul_s", seconds)

        def triangle(args, result, seconds):
            self.add("formulas.triangle_rows", result.max_row + 1)

        def bijection_map(args, result, seconds):
            self.add("bijection.maps")

        return {
            "series.RationalGF.expand": expand,
            "series.BivariatePolynomial.__mul__": mul,
            "formulas.parts_triangle_by_recurrence": triangle,
            "bijection.reduced_ap_to_arndt": bijection_map,
            "bijection.arndt_to_reduced_ap": bijection_map,
        }


def _public_function(module, attr: str, fn) -> bool:
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def layer_metrics(tracer: Tracer, check_names: List[str], wall_s: float,
                  stdout_bytes: int) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    check_names are "<area>.<name>" for every verify check, so that every
    workload reports the same metric names (0 for checks it never ran).
    """
    spans, counters = tracer.spans, tracer.counters
    selfs = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    inclusive: Dict[str, float] = {}
    for (name, start, end, parent), own in zip(spans, selfs):
        busy[layer_of(name)] += own
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)

    def count(name):
        return counters.get(name, 0)

    out: Dict[str, float] = {}
    for check in check_names:
        out[f"verify.check_s.{check}"] = inclusive.get(f"verify.check.{check}",
                                                       0.0)
    out["verify.checks_failed"] = count("verify.checks_failed")
    out["counting.streamed"] = count("counting.streamed")
    out["counting.members"] = count("counting.members")
    out["counting.member_ratio"] = (count("counting.members")
                                    / max(count("counting.streamed"), 1))
    out["counting.busy_s"] = busy["counting"]
    out["series.expand_calls"] = count("series.expand_calls")
    out["series.expand_s"] = count("series.expand_s")
    out["series.coeffs_out"] = count("series.coeffs_out")
    out["series.coeffs_per_s"] = (count("series.coeffs_out")
                                  / count("series.expand_s")
                                  if count("series.expand_s") else 0.0)
    out["series.expand_work"] = count("series.expand_work")
    out["series.mul_calls"] = count("series.mul_calls")
    out["series.mul_s"] = count("series.mul_s")
    out["catalog.build_s"] = sum(v for k, v in inclusive.items()
                                 if layer_of(k) == "catalog")
    out["formulas.busy_s"] = busy["formulas"]
    out["formulas.triangle_rows"] = count("formulas.triangle_rows")
    out["cli.self_s"] = busy["cli"]
    out["cli.stdout_bytes"] = stdout_bytes
    out["bijection.maps"] = count("bijection.maps")
    out["bijection.busy_s"] = busy["bijection"]
    out["asymptotics.busy_s"] = busy["asymptotics"]
    for layer in LAYERS:
        out[f"{layer}.share"] = busy[layer] / wall_s if wall_s else 0.0
    out["trace.spans"] = len(spans)
    return out
