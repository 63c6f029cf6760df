"""The benchmark's workloads: fixed lists of `arndt` command lines.

A pass runs every op of a workload once, in an order drawn from the seed;
the inputs never change, so each op's output can be checked against the
digest recorded in golden.json.  Why each workload exists is recorded in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Op = Tuple[str, ...]

WORKLOADS: Dict[str, List[Op]] = {
    "verify-all": [
        ("verify", "all"),
    ],
    "enumerate-dense": [
        ("enumerate", "--n", "20", "--family", "all", "--format", "jsonl"),
        ("enumerate", "--n", "20", "--family", "k-arndt", "--k", "-3",
         "--format", "csv"),
        ("enumerate", "--n", "21", "--family", "antipalindromic"),
        ("table", "last", "--N", "19", "--method", "brute", "--family",
         "k-arndt", "--k", "-3", "--format", "csv"),
    ],
    "gf-closed-forms": [
        ("series", "block-arndt", "--k", "3", "--N", "200"),
        ("series", "block-arndt", "--k", "6", "--N", "160"),
        ("series", "block-arndt", "--k", "9", "--N", "120"),
        ("series", "last-part", "--N", "200", "--format", "csv"),
        ("series", "k-arndt", "--k", "-3", "--N", "200", "--format", "jsonl"),
        ("table", "parts", "--N", "200"),
        ("series", "total-last", "--N", "800", "--format", "bfile"),
        ("table", "parts", "--N", "400", "--method", "formula"),
        ("table", "last", "--N", "400", "--method", "formula", "--format",
         "csv"),
        # Builds 2000 recurrence rows where about 80 suffice: a known
        # defect kept visible on purpose, so this size must not shrink.
        ("bfile", "parts-triangle-flat", "--N", "2000"),
        ("bfile", "last-sum", "--N", "5000"),
        ("bfile", "arndt-total", "--N", "5000", "--check"),
    ],
}

# `verify all` runs this many checks; each must print one PASS line.
VERIFY_CHECKS = 28


def op_key(op: Op) -> str:
    return " ".join(op)


def _option(op: Op, flag: str):
    return op[op.index(flag) + 1] if flag in op else None


def expectations(ops: List[Op]) -> Dict[str, dict]:
    """Output properties each op must have, derived by another route.

    `enumerate` prints one line per member, so its line count must equal
    the coefficient sum of the family's generating function at weight n;
    `verify all` must print one PASS line per check.  Other ops are held
    to their golden digests only.
    """
    out: Dict[str, dict] = {}
    for op in ops:
        if op[0] == "enumerate":
            k = _option(op, "--k")
            out[op_key(op)] = {"lines": gf_count(
                _option(op, "--family"), None if k is None else int(k),
                int(_option(op, "--n")))}
        elif op[:2] == ("verify", "all"):
            out[op_key(op)] = {"pass_lines": VERIFY_CHECKS}
    return out


def gf_count(kind: str, k, n: int) -> int:
    """Members of a family at weight n, by its generating function."""
    from arndt import catalog

    if kind == "k-arndt":
        gf = catalog.gf_k_arndt(k)
    elif kind == "block-arndt":
        gf = catalog.gf_k_block(k)
    else:
        gf = {"arndt": catalog.gf_arndt,
              "antipalindromic": catalog.gf_antipalindromic,
              "reduced-ap": catalog.gf_reduced_ap,
              "all": catalog.gf_compositions}[kind]()
    return sum(gf.expand(n).integer_rows()[n].values())
