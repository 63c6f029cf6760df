"""Command line interface: enumeration, triangle tables, series expansion,
OEIS b-file export, and the cross-validation suite.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 verification failure or brute-force cap exceeded, 2 usage error,
3 reference-prefix mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Dict, List, Optional, Tuple

from . import catalog, counting, formulas, verify
from .compositions import ARNDT, FAMILY_KINDS, Family
from .counting import BRUTE_FORCE_CAP, BruteForceCapExceeded
from .series import DEFAULT_ORDER

FORMAT_CHOICES = ("plain", "csv", "jsonl")
BFILE_CHOICES = ("arndt-total", "parts-triangle-flat", "last-sum")


def _int_at_least(lowest: int):
    """An argparse type: an integer no smaller than `lowest`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be at least {lowest}, got {value}")
        return value
    parse.__name__ = "int"  # a non-number reads "invalid int value: ..."
    return parse


def _check_k(parser, what: str, name: str, takes_k: bool, k):
    if takes_k and k is None:
        parser.error(f"{what} '{name}' requires --k")
    if not takes_k and k is not None:
        parser.error(f"{what} '{name}' does not take --k")


def _family(args, parser) -> Family:
    _check_k(parser, "family", args.family, FAMILY_KINDS[args.family][1],
             args.k)
    try:
        return Family(args.family, args.k)
    except ValueError as exc:
        parser.error(str(exc))


def _print_compositions(comps, fmt: str):
    for comp in comps:
        if fmt == "plain":
            print(f"({','.join(map(str, comp))})")
        elif fmt == "csv":
            print(",".join(map(str, comp)))
        else:
            print(json.dumps(list(comp)))


def _print_triangle(rows: Dict[int, Dict[int, int]], fmt: str):
    """Rows of (n -> {m: count}); zero cells are implicit."""
    if fmt == "csv":
        print("n,m,count")
        for n in sorted(rows):
            for m in sorted(rows[n]):
                print(f"{n},{m},{rows[n][m]}")
        return
    if fmt == "jsonl":
        for n in sorted(rows):
            counts = {str(m): rows[n][m] for m in sorted(rows[n])}
            print(json.dumps({"n": n, "counts": counts}))
        return
    # plain: an aligned grid; each row runs to its last nonzero column.
    max_m = max((max(row) for row in rows.values() if row), default=0)
    width = max([len(str(max_m)), len("n\\m")]
                + [len(str(v)) for row in rows.values() for v in row.values()])
    header = "  ".join(["n\\m".rjust(width)]
                       + [str(m).rjust(width) for m in range(max_m + 1)])
    print(header)
    for n in sorted(rows):
        row = rows[n]
        hi = max(row) if row else 0
        cells = [str(row.get(m, 0)).rjust(width) for m in range(hi + 1)]
        print("  ".join([str(n).rjust(width)] + cells))


def _print_sequence(values: List[Tuple[int, int]], fmt: str):
    if fmt == "csv":
        print("n,value")
        for n, v in values:
            print(f"{n},{v}")
    elif fmt == "jsonl":
        for n, v in values:
            print(json.dumps({"n": n, "value": v}))
    else:
        for n, v in values:
            print(f"{n} {v}")


def cmd_enumerate(args, parser) -> int:
    family = _family(args, parser)
    _print_compositions(
        filter(family.member, counting.compositions_of(args.n, args.max_n)),
        args.format)
    return 0


def cmd_table(args, parser) -> int:
    family = _family(args, parser)
    if args.kind == "last" and args.method in ("gf", "formula") \
            and family != ARNDT:
        parser.error("the last-part table has gf/formula paths only for "
                     f"--family {ARNDT.kind}; use --method brute")
    if args.kind == "parts" and args.method == "formula" \
            and family != ARNDT:
        parser.error(f"the formula path covers --family {ARNDT.kind} only")
    if args.method == "brute":
        rows = {n: counting.tally(n, family, args.kind, args.max_n)
                for n in range(args.n + 1)}
    elif args.method == "formula":
        if args.kind == "parts":
            rows = formulas.parts_triangle_by_recurrence(args.n).rows()
        else:
            rows = {n: {m: v for m in range(n + 1)
                        if (v := formulas.last_count(n, m))}
                    for n in range(args.n + 1)}
    else:
        gf = (catalog.series_gf(catalog.parts_series(family), family.k)
              if args.kind == "parts" else catalog.gf_last_part())
        rows = gf.expand(args.n).integer_rows()
    _print_triangle(rows, args.format)
    return 0


def cmd_series(args, parser) -> int:
    _, takes_k, univariate = catalog.SERIES[args.name]
    _check_k(parser, "series", args.name, takes_k, args.k)
    try:
        gf = catalog.series_gf(args.name, args.k)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "bfile" and not univariate:
        sequences = ", ".join(name for name, entry in catalog.SERIES.items()
                              if entry[2])
        parser.error("the bfile format applies only to univariate "
                     f"sequences ({sequences})")
    series = gf.expand(args.n)
    if univariate:
        fmt = "plain" if args.format == "bfile" else args.format
        _print_sequence(list(enumerate(series.sequence())), fmt)
    else:
        _print_triangle(series.integer_rows(), args.format)
    return 0


def _load_reference(name: str) -> Tuple[dict, Dict[int, int]]:
    data = resources.files("arndt.data")
    meta = json.loads(data.joinpath("oeis.json").read_text())[name]
    prefix: Dict[int, int] = {}
    for line in data.joinpath(meta["file"]).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, val = line.split()
        prefix[int(idx)] = int(val)
    return meta, prefix


def _bfile_values(name: str, count: int) -> List[Tuple[int, int]]:
    if name == "arndt-total":
        return [(n, formulas.fibonacci(n)) for n in range(1, count + 1)]
    if name == "last-sum":
        return [(n, formulas.total_last_closed(n)) for n in range(1, count + 1)]
    # parts-triangle-flat: row n >= 1 runs over m = 1..(2n + 1) // 3, the
    # most parts an Arndt composition of n can have, so build only the rows
    # that cover `count` terms.
    rows, terms = 0, 0
    while terms < count:
        rows += 1
        terms += (2 * rows + 1) // 3
    triangle = formulas.parts_triangle_by_recurrence(rows)
    flat = [triangle.get(n, m) for n in range(1, rows + 1)
            for m in range(1, (2 * n + 1) // 3 + 1)]
    return list(enumerate(flat[:count], start=1))


def cmd_bfile(args, parser) -> int:
    values = _bfile_values(args.sequence, args.n)
    for n, v in values:
        print(f"{n} {v}")
    if not args.check:
        return 0
    meta, prefix = _load_reference(args.sequence)
    compared = 0
    for n, v in values:
        if n not in prefix:
            continue
        if prefix[n] != v:
            print(f"error: {args.sequence} differs from {meta['a_number']} "
                  f"at index {n}: computed {v}, reference {prefix[n]}",
                  file=sys.stderr)
            return 3
        compared += 1
    print(f"checked {compared} terms against the {meta['a_number']} prefix: OK",
          file=sys.stderr)
    return 0


def cmd_verify(args, parser) -> int:
    results = verify.run_checks(args.scope, args.max_n)
    failed = 0
    for r in results:
        if r.passed:
            print(f"PASS  {r.name}")
        else:
            failed += 1
            print(f"FAIL  {r.name}: {r.detail}")
    total = len(results)
    if failed:
        print(f"{failed} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arndt",
        description="Enumerate, tabulate, and cross-verify Arndt-type "
                    "integer compositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    size = _int_at_least(0)
    k_kinds = "/".join(kind for kind, entry in FAMILY_KINDS.items()
                       if entry[1])

    p = sub.add_parser("enumerate",
                       help="list the members of a family at one weight")
    p.add_argument("--n", type=size, required=True, help="weight to enumerate")
    p.add_argument("--family", choices=FAMILY_KINDS, default=ARNDT.kind)
    p.add_argument("--k", type=int, help=f"parameter for {k_kinds}")
    p.add_argument("--format", choices=FORMAT_CHOICES, default="plain")
    p.add_argument("--max-n", type=size, default=BRUTE_FORCE_CAP,
                   help="raise the brute-force cap")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="triangle of counts for weights 0..N")
    p.add_argument("kind", choices=counting.STATISTICS,
                   help="statistic: number of parts, or last part")
    p.add_argument("--N", dest="n", type=size, required=True,
                   help="largest weight")
    p.add_argument("--family", choices=FAMILY_KINDS, default=ARNDT.kind)
    p.add_argument("--k", type=int)
    p.add_argument("--method", choices=("gf", "brute", "formula"),
                   default="gf")
    p.add_argument("--format", choices=FORMAT_CHOICES, default="plain")
    p.add_argument("--max-n", type=size, default=BRUTE_FORCE_CAP,
                   help="raise the brute-force cap (brute method)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("series",
                       help="coefficients of a catalog generating function")
    p.add_argument("name", choices=catalog.SERIES)
    p.add_argument("--k", type=int)
    p.add_argument("--N", "--order", dest="n", type=size, default=DEFAULT_ORDER,
                   help=f"truncation order (default {DEFAULT_ORDER})")
    p.add_argument("--format", choices=FORMAT_CHOICES + ("bfile",),
                   default="plain")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("bfile",
                       help="emit a sequence in OEIS b-file format")
    p.add_argument("sequence", choices=BFILE_CHOICES)
    p.add_argument("--N", dest="n", type=_int_at_least(1), required=True,
                   help="number of terms (b-file index runs from 1)")
    p.add_argument("--check", action="store_true",
                   help="compare against the bundled reference prefix")
    p.set_defaults(func=cmd_bfile)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("scope", nargs="?", choices=verify.SCOPES, default="all")
    p.add_argument("--max-n", type=size, default=None,
                   help="clamp the per-check weight ranges")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BruteForceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
