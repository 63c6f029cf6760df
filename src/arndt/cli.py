"""Command line interface: enumeration, triangle tables, series expansion,
OEIS b-file export, and the cross-validation suite.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 verification failure or brute-force cap exceeded, 2 usage error,
3 reference-prefix mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from itertools import chain, islice, repeat, starmap
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


def _family(args, parser) -> Family:
    try:
        return Family(args.family, args.k)
    except ValueError as exc:
        parser.error(str(exc))


# The characters one write of _write_lines aims at: larger chunks raise the
# peak memory (by 1.3 MB at 4096 composition lines) and gain no time.
CHUNK_CHARS = 1 << 15
# Format -> (opening, separator, closing) of a composition's line; the jsonl
# line is json.dumps of the parts as a list.
_COMPOSITION_SHAPES = {"plain": ("(", ",", ")"), "csv": ("", ",", ""),
                       "jsonl": ("[", ", ", "]")}


def _write_lines(lines: Iterable[str], opening: str = "", closing: str = ""):
    """Write lines to stdout, each between opening and closing and followed
    by a newline, one write per chunk.  The first chunk is one line and each
    next one at most twice the last, so a stream's first line is out before
    its second is computed; chunks stop growing at about CHUNK_CHARS, judged
    by the mean length of the last chunk's lines."""
    lines = iter(lines)
    between = closing + "\n" + opening
    size = 1
    while True:
        chunk = list(islice(lines, size))
        if not chunk:
            return
        text = f"{opening}{between.join(chunk)}{closing}\n"
        sys.stdout.write(text)
        size = max(1, min(2 * size, size * CHUNK_CHARS // len(text)))


class _PartText(dict):
    """part -> str(part), each made once: a stream repeats few parts."""

    def __missing__(self, part: int) -> str:
        self[part] = text = str(part)
        return text


def _write_compositions(blocks: Iterable[tuple], fmt: str):
    """Write a line per member of each (prefix, tails) block of
    counting.family_blocks, in the given format: the prefix's text, made
    once, joined in C to the text of each tail, made once per tail list and
    call (the empty tail's is "").  The writer adds opening and closing."""
    opening, separator, closing = _COMPOSITION_SHAPES[fmt]
    part_text = _PartText().__getitem__
    # Room for the TAIL_WEIGHT lists and WHOLE that a walked stream shares.
    tail_texts = functools.lru_cache(counting.TAIL_WEIGHT + 1)(
        lambda tails: [separator.join(["", *map(part_text, tail)])
                       for tail in tails])

    def lines(prefix, tails):
        return map(separator.join(map(part_text, prefix)).__add__,
                   tail_texts(tails))

    _write_lines(chain.from_iterable(starmap(lines, blocks)), opening, closing)


def _write_triangle(rows: Iterable[Tuple[int, Dict[int, int]]], fmt: str):
    """Write a triangle given as (n, {m: count}) pairs in increasing n; zero
    cells are implicit.  csv and jsonl write each row as soon as it is drawn,
    in one write; the plain grid reads every row first, because its column
    width depends on all of them."""
    write = sys.stdout.write
    if fmt == "plain":
        _write_lines(_grid_lines(list(rows)))
    elif fmt == "csv":
        write("n,m,count\n")
        for n, row in rows:
            write("".join(f"{n},{m},{row[m]}\n" for m in sorted(row)))
    else:
        for n, row in rows:
            counts = {str(m): row[m] for m in sorted(row)}
            write(json.dumps({"n": n, "counts": counts}) + "\n")


def _grid_lines(rows: List[Tuple[int, Dict[int, int]]]) -> Iterator[str]:
    """An aligned grid; each row runs to its last nonzero column."""
    max_m = max((max(row) for _, row in rows if row), default=0)
    width = max([len(str(max_m)), len("n\\m")]
                + [len(str(v)) for _, row in rows for v in row.values()])
    yield "  ".join(["n\\m".rjust(width)]
                    + [str(m).rjust(width) for m in range(max_m + 1)])
    for n, row in rows:
        hi = max(row) if row else 0
        cells = [str(row.get(m, 0)).rjust(width) for m in range(hi + 1)]
        yield "  ".join([str(n).rjust(width)] + cells)


# Format -> the line of one term (n, value); a csv sequence has a header.
# The jsonl line is json.dumps({"n": n, "value": value}) for int terms.
_SEQUENCE_LINES = {"plain": "{} {}", "csv": "{},{}",
                   "jsonl": '{{"n": {}, "value": {}}}'}


def _sequence_lines(values: Iterable[Tuple[int, int]],
                    fmt: str) -> Iterator[str]:
    header = ["n,value"] if fmt == "csv" else []
    return chain(header, starmap(_SEQUENCE_LINES[fmt].format, values))


def cmd_enumerate(args, parser) -> int:
    blocks = counting.family_blocks(args.n, _family(args, parser), args.max_n)
    _write_compositions(blocks, args.format)
    return 0


def cmd_table(args, parser) -> int:
    family = _family(args, parser)
    # Brute force covers every family; gf the parts of every family; the
    # rest only Arndt.
    if family != ARNDT and (args.method == "formula" or args.kind == "last"
                            and args.method == "gf"):
        parser.error(f"the {args.kind} table has a {args.method} path only "
                     f"for --family {ARNDT.kind}; use --method brute")
    if args.method == "brute":
        # Refuse before any row is written, at the first weight refused.
        counting.check_weight(min(args.n, args.max_n + 1), args.max_n)
        rows = ((n, counting.tally(n, family, args.kind, args.max_n))
                for n in range(args.n + 1))
    elif args.method == "formula":
        if args.kind == "parts":
            rows = formulas.parts_rows_by_recurrence(args.n)
        else:
            rows = ((n, formulas.last_row(n)) for n in range(args.n + 1))
    else:
        gf = (catalog.series_gf(catalog.parts_series(family), family.k)
              if args.kind == "parts" else catalog.gf_last_part())
        rows = gf.expand(args.n).integer_rows().items()
    _write_triangle(rows, args.format)
    return 0


def cmd_series(args, parser) -> int:
    univariate = catalog.SERIES[args.name][2]
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
        _write_lines(_sequence_lines(enumerate(series.sequence()), fmt))
    else:
        _write_triangle(series.integer_rows().items(), args.format)
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
    # most parts an Arndt composition of n can have; rows are drawn only
    # until `count` terms are out.
    flat = chain.from_iterable(
        map(row.get, range(1, (2 * n + 1) // 3 + 1), repeat(0))
        for n, row in formulas.parts_rows_by_recurrence(count) if n)
    return list(enumerate(islice(flat, count), start=1))


def cmd_bfile(args, parser) -> int:
    values = _bfile_values(args.sequence, args.n)
    _write_lines(_sequence_lines(values, "plain"))
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
    total = failed = skipped = 0
    for r in verify.iter_checks(args.scope, args.max_n):
        total += 1
        if not r.passed:
            failed += 1
            line = f"FAIL  {r.name}: {r.detail}"
        elif r.cases == 0:
            skipped += 1
            line = f"SKIP  {r.name}: compared 0 cases"
        else:
            line = f"PASS  {r.name}"
        print(line, flush=True)  # each line as its check ends
    summary = (f"{failed} of {total} checks failed" if failed
               else f"{total - skipped} of {total} checks passed" if skipped
               else f"all {total} checks passed")
    print(summary + (f", {skipped} skipped" if skipped else ""))
    return 1 if failed else 0


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
