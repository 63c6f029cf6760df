"""Layer probes: fixed, workload-independent measurements of one layer each.

They run only in the traced run, in a process of their own, so they never
inflate the end-to-end numbers.  Each probe also checks its answer against
another route and reports an error when they differ.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from workloads import gf_count

STREAM_WEIGHT = 22
MEMBER_WEIGHT = 20
# One family per kind; the parameterised kinds use the workloads' k values.
MEMBER_FAMILIES = (("arndt", None), ("k-arndt", -3), ("block-arndt", 3),
                   ("antipalindromic", None), ("reduced-ap", None),
                   ("all", None))
K_BLOCK_RANGE = range(2, 10)
RECURRENCE_ROWS = 400
BINOMIAL_ROW = 200


def run_probes() -> Dict[str, object]:
    """Return {"metrics": {...}, "errors": [...]}; arndt must be importable."""
    from arndt import catalog, counting, formulas
    from arndt.compositions import Family

    metrics: Dict[str, float] = {}
    errors: List[str] = []

    t0 = perf_counter()
    streamed = sum(1 for _ in counting.compositions_of(STREAM_WEIGHT))
    metrics["counting.stream_per_s"] = streamed / (perf_counter() - t0)
    if streamed != 2 ** (STREAM_WEIGHT - 1):
        errors.append(f"stream of weight {STREAM_WEIGHT} gave {streamed}")

    comps = list(counting.compositions_of(MEMBER_WEIGHT))
    for kind, k in MEMBER_FAMILIES:
        family = Family(kind, k)
        member = family.member
        t0 = perf_counter()
        members = sum(1 for c in comps if member(c))
        metrics[f"compositions.member_per_s.{kind}"] = \
            len(comps) / (perf_counter() - t0)
        want = gf_count(kind, k, MEMBER_WEIGHT)
        if members != want:
            errors.append(f"{family} has {members} members of weight "
                          f"{MEMBER_WEIGHT}; its GF says {want}")
    del comps

    for k in K_BLOCK_RANGE:
        t0 = perf_counter()
        gf = catalog.gf_k_block(k)
        metrics[f"catalog.k_block_build_s.{k}"] = perf_counter() - t0
        metrics[f"catalog.k_block_den_terms.{k}"] = len(gf.den.terms())

    t0 = perf_counter()
    triangle = formulas.parts_triangle_by_recurrence(RECURRENCE_ROWS)
    metrics["formulas.recurrence_rows_per_s"] = \
        (RECURRENCE_ROWS + 1) / (perf_counter() - t0)
    if triangle.row_sum(RECURRENCE_ROWS) != \
            formulas.fibonacci(RECURRENCE_ROWS):
        errors.append(f"recurrence row {RECURRENCE_ROWS} does not sum to F(n)")

    n = BINOMIAL_ROW
    t0 = perf_counter()
    alternating = [formulas.parts_count_alternating(n, m)
                   for m in range(n + 1)]
    positive = [formulas.parts_count_positive(n, m) for m in range(n + 1)]
    metrics["formulas.binomial_row_s"] = perf_counter() - t0
    if alternating != positive or sum(positive) != formulas.fibonacci(n):
        errors.append(f"binomial sums disagree on row {n}")
    return {"metrics": metrics, "errors": errors}

