"""Command line interface: enumeration, triangle tables, series expansion,
OEIS b-file export, and the cross-validation suite.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 verification failure, brute-force cap exceeded or stdout closed early by
its reader (silently), 2 usage error, 3 reference-prefix mismatch.  The cap
is the CLI's: enumerate and table --method brute refuse a weight above
--max-n (default BRUTE_FORCE_CAP) before any stream starts.  `main` may be
called many times in one process; build_parser() returns the one parser
they share, which callers must not change.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, compress, count, islice, starmap
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import catalog, counting, formulas, verify
from .compositions import ARNDT, FAMILY_KINDS, STATISTICS, TAKES_K, Family
from .series import DEFAULT_ORDER, integer_row, sequence_term

FORMAT_CHOICES = ("plain", "csv", "jsonl")
BRUTE_FORCE_CAP = 28  # the default --max-n


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


def _refuse(n: int, max_n: int) -> int:
    """Refuse weight n, above the brute-force cap max_n: exit code 1."""
    print(f"error: enumerating weight {n} means 2^{n - 1} compositions; the "
          f"cap is {max_n} (override it to proceed)", file=sys.stderr)
    return 1


def _usage(parser, make: Callable, *args):
    """make(*args), a ValueError from it turned into a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        parser.error(str(exc))


# The characters one write of _write_lines aims at: larger chunks raise the
# peak memory (by 1.3 MB at 4096 composition lines) and gain no time.  An
# item may be a whole block of lines, so one chunk may exceed it.
CHUNK_CHARS = 1 << 15
# Format -> (opening, separator, closing) of a composition's line; the jsonl
# line is json.dumps of the parts as a list.
_COMPOSITION_SHAPES = {"plain": ("(", ",", ")"), "csv": ("", ",", ""),
                       "jsonl": ("[", ", ", "]")}


def _write_lines(lines: Iterable[str]):
    """Write items to stdout, each followed by a newline, one write per
    chunk; an item may hold several lines.  The first chunk is one item and
    each next one at most twice the last, so a stream's first item is out
    before its second is computed; chunks stop growing at about CHUNK_CHARS,
    judged by the mean length of the last chunk's items."""
    lines = iter(lines)
    size = 1
    while True:
        chunk = list(islice(lines, size))
        if not chunk:
            return
        text = "\n".join(chunk) + "\n"
        sys.stdout.write(text)
        size = max(1, min(2 * size, size * CHUNK_CHARS // len(text)))


class _Texts(dict):
    """key -> make(key), each made once: a stream repeats few parts, and
    few tails."""

    def __init__(self, make: Callable[..., str]):
        self.make = make

    def __missing__(self, key) -> str:
        self[key] = text = self.make(key)
        return text


def _write_compositions(blocks: Iterable[tuple], fmt: str):
    """Write a line per member of each (prefix, tails) block of
    counting.family_blocks, in the given format: head + tail text + closing,
    where head is opening + prefix text, a block joined in C as one item.
    Each part's and tail's text is made once per call (the empty tail's is
    ""), and each tail list's texts once per list and call."""
    opening, separator, closing = _COMPOSITION_SHAPES[fmt]
    part_text = _Texts(str).__getitem__
    tail_text = _Texts(lambda tail: separator.join(
        ["", *map(part_text, tail)])).__getitem__
    # Room for the TAIL_WEIGHT lists and WHOLE that a walked stream shares.
    tail_texts = functools.lru_cache(counting.TAIL_WEIGHT + 1)(
        lambda tails: list(map(tail_text, tails)))

    def text(prefix, tails):
        head = opening + separator.join(map(part_text, prefix))
        return head + (closing + "\n" + head).join(tail_texts(tails)) + closing

    _write_lines(starmap(text, blocks))


def _write_triangle(rows: Iterable[Tuple[int, List[int]]], fmt: str):
    """Write (n, row n) pairs in increasing n, each row a list, cell m at
    index m, up to its last nonzero cell.  csv and jsonl write a row's
    nonzero cells as soon as it is drawn, in one write; the plain grid holds
    every row first, because its column width depends on all of them."""
    if fmt == "plain":
        return _write_lines(_grid_lines(list(rows)))
    write = sys.stdout.write
    head = "n,m,count\n" if fmt == "csv" else ""  # written with row 0
    for n, row in rows:
        cells = compress(enumerate(row), row)
        if fmt == "csv":
            write(head + "".join(starmap(f"{n},{{}},{{}}\n".format, cells)))
            head = ""
        else:  # the line json.dumps({"n": n, "counts": {"m": count, ...}})
            write('{"n": %d, "counts": {%s}}\n'
                  % (n, ", ".join(starmap('"{}": {}'.format, cells))))


def _grid_width(rows: List[Tuple[int, List[int]]], top_m: int) -> int:
    """The width of the widest text in the grid of _grid_lines: a label, or
    the largest or most negative cell, as no other int's text is longer."""
    cells = [end(row or [0]) for _, row in rows for end in (max, min)] + [0]
    widest = [top_m, max(cells), min(cells), *(n for n, _ in rows)]
    return max(len("n\\m"), *(len(str(v)) for v in widest))


def _grid_lines(rows: List[Tuple[int, List[int]]]) -> Iterator[str]:
    """An aligned grid; each row runs to its last nonzero column (or 0)."""
    top_m = max([1, *(len(row) for _, row in rows)]) - 1
    width = _grid_width(rows, top_m)
    yield "  ".join(["n\\m".rjust(width)]
                    + [str(m).rjust(width) for m in range(top_m + 1)])
    for n, row in rows:
        yield "  ".join([str(n).rjust(width)]
                        + [str(c).rjust(width) for c in row or [0]])


# Format -> the line of one term (n, value); a csv sequence has a header.
# The jsonl line is json.dumps({"n": n, "value": value}) for int terms.
_SEQUENCE_LINES = {"plain": "{} {}", "csv": "{},{}",
                   "jsonl": '{{"n": {}, "value": {}}}'}


def _sequence_lines(values: Iterable[Tuple[int, int]],
                    fmt: str) -> Iterator[str]:
    lines = starmap(_SEQUENCE_LINES[fmt].format, values)
    if fmt == "csv":  # one item with term 0: no write of the header alone
        lines = chain(map("n,value\n".__add__, islice(lines, 1)), lines)
    return lines


def cmd_enumerate(args, parser) -> int:
    family = _usage(parser, Family, args.family, args.k)
    if args.n > args.max_n:
        return _refuse(args.n, args.max_n)
    blocks = counting.family_blocks(args.n, family)
    _write_compositions(blocks, args.format)
    return 0


def cmd_table(args, parser) -> int:
    family = _usage(parser, Family, args.family, args.k)
    if args.method == "brute":
        # Refuse before any row is written, at the first weight refused.
        if args.n > args.max_n:
            return _refuse(args.max_n + 1, args.max_n)
        tallies = (counting.tally(n, family, args.kind)
                   for n in range(args.n + 1))
        rows = enumerate([t.get(m, 0) for m in range(max(t, default=-1) + 1)]
                         for t in tallies)
    elif args.method == "formula":
        rows = formulas.statistic_rows(family, args.kind, args.n)
    else:
        series = catalog.statistic_series(family, args.kind)
        gf = series and catalog.series_gf(series, family.k)
        rows = gf and enumerate(map(integer_row, count(), gf.iter_rows(args.n)))
    if rows is None:  # brute force covers every family, the others may not
        parser.error(f"the {args.kind} table has a {args.method} path only "
                     f"for --family {ARNDT.kind}; use --method brute")
    _write_triangle(rows, args.format)
    return 0


def cmd_series(args, parser) -> int:
    univariate = catalog.SERIES[args.name][1]
    gf = _usage(parser, catalog.series_gf, args.name, args.k)
    if args.format == "bfile" and not univariate:
        sequences = ", ".join(name for name, entry in catalog.SERIES.items()
                              if entry[1])
        parser.error("the bfile format applies only to univariate "
                     f"sequences ({sequences})")
    if univariate:
        fmt = "plain" if args.format == "bfile" else args.format
        terms = starmap(sequence_term, enumerate(gf.iter_rows(args.n)))
        _write_lines(_sequence_lines(enumerate(terms), fmt))
    else:
        rows = map(integer_row, count(), gf.iter_rows(args.n))
        _write_triangle(enumerate(rows), args.format)
    return 0


def _load_reference(name: str) -> Tuple[dict, Dict[int, int]]:
    from importlib import resources  # it imports inspect from Python 3.12 on
    data = resources.files("arndt.data")
    meta = json.loads(data.joinpath("oeis.json").read_text())[name]
    lines = data.joinpath(meta["file"]).read_text().splitlines()
    kept = (line.split() for line in lines if not line.lstrip().startswith("#"))
    return meta, {int(idx): int(val) for idx, val in filter(None, kept)}


def cmd_bfile(args, parser) -> int:
    meta, prefix = _load_reference(args.sequence) if args.check else ({}, {})
    covered = []  # the terms that the prefix covers, checked once written

    def keep(term):
        if term[0] in prefix:
            covered.append(term)
        return term

    terms = map(keep, formulas.bfile_texts(args.sequence, args.n))
    _write_lines(_sequence_lines(terms, "plain"))
    if not args.check:
        return 0
    for n, text in covered:
        if str(prefix[n]) != text:
            print(f"error: {args.sequence} differs from {meta['a_number']} "
                  f"at index {n}: computed {text}, reference {prefix[n]}",
                  file=sys.stderr)
            return 3
    print(f"checked {len(covered)} terms against the {meta['a_number']} "
          "prefix: OK", file=sys.stderr)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call and shared by every
    later call and `main`; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="arndt",
        description="Enumerate, tabulate, and cross-verify Arndt-type "
                    "integer compositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    size = _int_at_least(0)
    k_kinds = "/".join(kind for kind in TAKES_K if kind in FAMILY_KINDS)

    p = sub.add_parser("enumerate",
                       help="list the members of a family at one weight")
    p.add_argument("--n", type=size, required=True, help="weight to enumerate")
    p.add_argument("--family", choices=FAMILY_KINDS, default=ARNDT.kind)
    p.add_argument("--k", type=int, help=f"parameter for {k_kinds}")
    p.add_argument("--format", choices=FORMAT_CHOICES, default="plain")
    p.add_argument("--max-n", type=size, default=BRUTE_FORCE_CAP,
                   help="raise the brute-force cap")
    p.set_defaults(func=cmd_enumerate, parser=p)

    p = sub.add_parser("table", help="triangle of counts for weights 0..N")
    p.add_argument("kind", choices=STATISTICS,
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
    p.set_defaults(func=cmd_table, parser=p)

    p = sub.add_parser("series",
                       help="coefficients of a catalog generating function")
    p.add_argument("name", choices=catalog.SERIES)
    p.add_argument("--k", type=int)
    p.add_argument("--N", "--order", dest="n", type=size, default=DEFAULT_ORDER,
                   help=f"truncation order (default {DEFAULT_ORDER})")
    p.add_argument("--format", choices=FORMAT_CHOICES + ("bfile",),
                   default="plain")
    p.set_defaults(func=cmd_series, parser=p)

    p = sub.add_parser("bfile",
                       help="emit a sequence in OEIS b-file format")
    p.add_argument("sequence", choices=formulas.BFILES)
    p.add_argument("--N", dest="n", type=_int_at_least(1), required=True,
                   help="number of terms (b-file index runs from 1)")
    p.add_argument("--check", action="store_true",
                   help="compare against the bundled reference prefix")
    p.set_defaults(func=cmd_bfile, parser=p)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("scope", nargs="?", choices=verify.SCOPES, default="all")
    p.add_argument("--max-n", type=size, default=None,
                   help="clamp the per-check weight ranges")
    p.set_defaults(func=cmd_verify, parser=p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact terms may run past the interpreter's limit on the digits of an
    # int's text (0 where there is none); the limit stays on for the parsing
    # of user input above.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, args.parser)  # the command's own parser
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry():
    try:
        code = main()
        sys.stdout.flush()  # a closed reader raises here, not at exit
    except BrokenPipeError:  # the reader closed early: exit 1, silently
        # Python flushes stdout at exit; on devnull that cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
