import argparse
import io
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from conftest import TABLE_LAST, TABLE_PARTS
from arndt import catalog, cli, counting, formulas, verify
from arndt.compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC, ARNDT,
                                FAMILY_KINDS, REDUCED_AP, STATISTICS, TAKES_K,
                                Family, sparse_row)
from arndt.series import RationalGF
from arndt.verify import _SAMPLE_K


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_plain_triangle(text):
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:                      # skip the n\m header
        tokens = line.split()
        n = int(tokens[0])
        rows[n] = {m: int(v) for m, v in enumerate(tokens[1:]) if int(v)}
    return rows


def parse_csv_triangle(text):
    lines = text.splitlines()
    assert lines[0] == "n,m,count"
    rows = {}
    for line in lines[1:]:
        n, m, v = map(int, line.split(","))
        rows.setdefault(n, {})[m] = v
    return rows


def test_enumerate_arndt_6(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--family", "arndt")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 8
    assert lines[0] == "(6)"
    assert lines[-1] == "(2,1,2,1)"


def test_enumerate_weight_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert out == "()\n"


def test_enumerate_block_arndt(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "10",
                       "--family", "block-arndt", "--k", "3")
    assert code == 0
    assert len(out.splitlines()) == 18


def test_enumerate_formats_agree(capsys):
    _, plain, _ = run(capsys, "enumerate", "--n", "5")
    _, csv_out, _ = run(capsys, "enumerate", "--n", "5", "--format", "csv")
    _, jsonl, _ = run(capsys, "enumerate", "--n", "5", "--format", "jsonl")
    from_plain = [line[1:-1] for line in plain.splitlines()]
    assert from_plain == csv_out.splitlines()
    from_jsonl = [",".join(map(str, json.loads(line)))
                  for line in jsonl.splitlines()]
    assert from_jsonl == csv_out.splitlines()


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "29")
    assert code == 1
    assert "cap" in err


# The --k that each parameterised family kind is run with.
K_ARGS = {"k-arndt": ["--k", "-3"], "block-arndt": ["--k", "3"]}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_weight_past_the_cap_is_refused_before_any_walk(capsys, monkeypatch,
                                                          kind):
    # enumerate names the weight asked for, a brute-force table the first
    # weight past --max-n; neither starts a walk or writes to stdout.
    walks = []
    for walk in ("_descend", "_mirrored"):
        monkeypatch.setattr(counting, walk,
                            lambda *args: walks.append(args) or iter(()))
    family = ["--family", kind, *K_ARGS.get(kind, [])]
    for argv, n, cap in [
            (["enumerate", "--n", "29"], 29, 28),
            (["enumerate", "--n", "12", "--max-n", "11"], 12, 11),
            *((["table", stat, "--N", "40", "--method", "brute"], 29, 28)
              for stat in STATISTICS),
            *((["table", stat, "--N", "14", "--method", "brute",
                "--max-n", "11"], 12, 11) for stat in STATISTICS)]:
        assert run(capsys, *argv, *family) == (1, "", (
            f"error: enumerating weight {n} means 2^{n - 1} compositions;"
            f" the cap is {cap} (override it to proceed)\n")), argv
    assert walks == []


def test_enumerate_streams_its_output(capsys, monkeypatch):
    def descend(n, bound):
        yield (3,), counting.WHOLE
        # the first member is printed before the second is generated
        assert capsys.readouterr().out == "(3)\n"
        yield (2,), counting.Stored([(1,)])

    monkeypatch.setattr(counting, "_descend", descend)
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--family", "all")
    assert code == 0
    assert out == "(2,1)\n"
    monkeypatch.undo()
    # the cap is still enforced before anything is printed
    code, out, _ = run(capsys, "enumerate", "--n", "29", "--family", "all")
    assert code == 1
    assert out == ""


def test_enumerate_streams_pruned_members(capsys, monkeypatch):
    descend = counting._descend

    def spy(*args):
        stream = descend(*args)
        yield next(stream)
        # the first member is printed before the second is generated
        assert capsys.readouterr().out == "(3)\n"
        yield from stream

    monkeypatch.setattr(counting, "_descend", spy)
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out == "(2,1)\n"
    monkeypatch.undo()
    # the CLI refuses a pruned family past the cap before printing anything
    code, out, _ = run(capsys, "enumerate", "--n", "29")
    assert code == 1
    assert out == ""


# The csv header and row 0 of `table last`, and row 0 as a jsonl line.
ROW_0 = {"csv": "n,m,count\n0,0,1\n", "jsonl": '{"n": 0, "counts": {"0": 1}}\n'}


@pytest.mark.parametrize("fmt", sorted(ROW_0))
@pytest.mark.parametrize("method, owner, name", [
    ("brute", counting, "tally"), ("formula", formulas, "last_row")],
    ids=["brute", "formula"])
def test_table_streams_its_rows(capsys, monkeypatch, fmt, method, owner,
                                name):
    argv = ("table", "last", "--N", "3", "--method", method, "--format", fmt)
    _, whole, _ = run(capsys, *argv)
    real = getattr(owner, name)
    seen = []

    def spy(n, *args):
        if n == len(seen) < 2:
            # stdout is empty when row 0 is asked for, csv header included,
            # and holds row 0 before row 1 is computed
            seen.append(capsys.readouterr().out)
        return real(n, *args)

    monkeypatch.setattr(owner, name, spy)
    code, rest, _ = run(capsys, *argv)
    assert code == 0
    assert seen == ["", ROW_0[fmt]]
    assert "".join(seen) + rest == whole


@pytest.mark.parametrize("fmt", sorted(ROW_0))
def test_formula_parts_table_streams_its_rows(capsys, monkeypatch, fmt):
    argv = ("table", "parts", "--N", "3", "--method", "formula", "--format",
            fmt)
    _, whole, _ = run(capsys, *argv)
    real = formulas.parts_rows_by_recurrence

    def spy(max_n):
        rows = real(max_n)
        yield next(rows)
        # row 0 is on stdout before row 1 is computed
        assert capsys.readouterr().out == ROW_0[fmt]
        yield from rows

    monkeypatch.setattr(formulas, "parts_rows_by_recurrence", spy)
    code, rest, _ = run(capsys, *argv)
    assert code == 0
    assert ROW_0[fmt] + rest == whole


# The command lines of test_gf_rows_stream, each with its first write.
GF_STREAMS = {
    **{f"series last-part --format {fmt}": ROW_0[fmt] for fmt in ROW_0},
    "series total-last --format bfile": "0 0\n",
    "series total-last --format csv": "n,value\n0,0\n",
    **{f"table last --method gf --format {fmt}": ROW_0[fmt] for fmt in ROW_0}}


@pytest.mark.parametrize("command", sorted(GF_STREAMS))
def test_gf_rows_stream(capsys, monkeypatch, command):
    argv, first = command.split() + ["--N", "3"], GF_STREAMS[command]
    _, whole, _ = run(capsys, *argv)
    real = RationalGF.iter_rows

    def spy(gf, order):
        rows = real(gf, order)
        yield next(rows)
        # row 0 (term 0) is on stdout before row 1 is computed
        assert capsys.readouterr().out == first
        yield from rows

    monkeypatch.setattr(RationalGF, "iter_rows", spy)
    code, rest, _ = run(capsys, *argv)
    assert code == 0
    assert first + rest == whole


# Runs the command in argv[1:] with the tracer started after the imports,
# and prints the traced peak to stderr.
_TRACED_COMMAND = """
import sys, tracemalloc
from arndt import cli
tracemalloc.start()
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


def test_streamed_series_holds_a_window_of_rows():
    # The den of total-last reaches back 4 rows, so the stream holds at most
    # 5 raw rows of one int each, below L(5000), about 0.5 KiB: 2.5 KiB.  On
    # top come the parser and the command (0.23 MiB traced at --N 5) and one
    # chunk of _write_lines, at most about 2 * CHUNK_CHARS characters held as
    # items, text and bytes: 0.2 MiB.  The bound is twice their 0.43 MiB sum,
    # less than the 1.6 MiB that the 5001 rows of the stored series take.
    # Traced peak (Python 3.11): 0.40 MiB, and 3.3 MiB for the stored path.
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMAND, "series", "total-last",
         "--N", "5000", "--format", "bfile"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    code, peak = map(int, result.stderr.split())
    assert code == 0
    assert peak <= 2 ** 20, peak


def test_formula_grid_holds_list_rows():
    # The plain grid holds all 401 rows of the parts recurrence before its
    # first line, because its width depends on every cell; as lists of ints
    # they take about 1.7 MB less than as {m: count} dicts.  Traced peak
    # (Python 3.11): 3.34 MB with list rows, 5.03 MB with dict rows.
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMAND, "table", "parts", "--N",
         "400", "--method", "formula"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    code, peak = map(int, result.stderr.split())
    assert code == 0
    assert peak < 4 * 10 ** 6, peak


# Command lines that write a triangle, by every method of `table` and by a
# bivariate `series`, one with empty rows.
TRIANGLE_COMMANDS = [
    "table parts --N 9 --method brute", "table last --N 9 --method brute "
    "--family k-arndt --k -3 --format csv", "table parts --N 30 --method "
    "formula --format jsonl", "table last --N 30 --method formula",
    "table parts --N 30", "table last --N 30 --format csv",
    "series block-arndt --k 3 --N 30", "series distinct-parts --k 3 --N 12"]


@pytest.mark.parametrize("command", TRIANGLE_COMMANDS)
def test_triangle_rows_reach_the_writer_as_lists(capsys, monkeypatch,
                                                 command):
    _, whole, _ = run(capsys, *command.split())
    real = cli._write_triangle
    handed = []

    def spy(rows, fmt):
        handed.extend(rows)
        real(handed, fmt)

    monkeypatch.setattr(cli, "_write_triangle", spy)
    code, out, _ = run(capsys, *command.split())
    assert (code, out) == (0, whole)
    assert [n for n, _ in handed] == list(range(len(handed)))
    assert all(type(row) is list and (not row or row[-1])
               for _, row in handed)


def test_formula_table_takes_its_rows_from_formulas(capsys, monkeypatch):
    # The CLI keeps no rule of which family has a formula table: rows that
    # formulas.statistic_rows offers for another family are printed.
    offered = [(0, [1]), (1, [0, 2]), (2, [0, 3, 4]), (3, [0, 0, 5])]
    asked = []

    def rows(family, statistic, max_n):
        asked.append((family, statistic, max_n))
        return iter(offered)

    monkeypatch.setattr(formulas, "statistic_rows", rows)
    code, out, _ = run(capsys, "table", "parts", "--N", "3", "--method",
                       "formula", "--family", "k-arndt", "--k", "1")
    assert code == 0
    assert asked == [(Family("k-arndt", 1), "parts", 3)]
    assert parse_plain_triangle(out) == {n: sparse_row(row)
                                         for n, row in offered}


def test_table_past_the_cap_writes_and_tallies_nothing(capsys, monkeypatch):
    tallied = []
    monkeypatch.setattr(counting, "tally", lambda *args: tallied.append(args))
    for fmt in cli.FORMAT_CHOICES:
        code, out, err = run(capsys, "table", "last", "--N", "12", "--method",
                             "brute", "--max-n", "10", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error: enumerating weight 11 means 2^10 compositions;"
                       " the cap is 10 (override it to proceed)\n")
    assert tallied == []


def test_table_parts_plain(capsys):
    code, out, _ = run(capsys, "table", "parts", "--N", "10")
    assert code == 0
    assert parse_plain_triangle(out) == TABLE_PARTS


def test_table_last_plain(capsys):
    code, out, _ = run(capsys, "table", "last", "--N", "10")
    assert code == 0
    assert parse_plain_triangle(out) == TABLE_LAST


def test_table_methods_byte_identical(capsys):
    outputs = {}
    for method in ("gf", "brute", "formula"):
        for kind in ("parts", "last"):
            _, out, _ = run(capsys, "table", kind, "--N", "14",
                            "--method", method)
            outputs.setdefault(kind, set()).add(out)
    assert len(outputs["parts"]) == 1
    assert len(outputs["last"]) == 1


@pytest.mark.parametrize("statistic", list(STATISTICS))
@pytest.mark.parametrize("family", [
    Family(kind, k) for kind in FAMILY_KINDS
    for k in _SAMPLE_K.get(kind, (None,))], ids=str)
def test_gf_table_follows_the_catalog(capsys, family, statistic):
    argv = ["table", statistic, "--N", "4", "--family", family.kind]
    argv += [] if family.k is None else ["--k", str(family.k)]
    if catalog.statistic_series(family, statistic) is None:
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--method", "gf")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: arndt table ")
        assert err.splitlines()[-1] == (
            f"arndt table: error: the {statistic} table has a gf path only "
            "for --family arndt; use --method brute")
    else:
        code, out, _ = run(capsys, *argv, "--method", "gf")
        assert code == 0
        assert out == run(capsys, *argv, "--method", "brute")[1]


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, "table", "parts", "--N", "9")
    _, second, _ = run(capsys, "table", "parts", "--N", "9")
    assert first == second


def test_table_formats_same_content(capsys):
    _, plain, _ = run(capsys, "table", "parts", "--N", "9")
    _, csv_out, _ = run(capsys, "table", "parts", "--N", "9",
                        "--format", "csv")
    _, jsonl, _ = run(capsys, "table", "parts", "--N", "9",
                      "--format", "jsonl")
    want = parse_plain_triangle(plain)
    assert parse_csv_triangle(csv_out) == want
    from_jsonl = {}
    for line in jsonl.splitlines():
        rec = json.loads(line)
        from_jsonl[rec["n"]] = {int(m): v for m, v in rec["counts"].items()}
    assert from_jsonl == want


def test_table_k_family(capsys):
    code, out, _ = run(capsys, "table", "parts", "--N", "10",
                       "--family", "k-arndt", "--k", "3", "--method", "brute")
    assert code == 0
    rows = parse_plain_triangle(out)
    assert sum(rows[10].values()) == 10


def test_table_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "table", "parts", "--N", "5", "--family", "k-arndt")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "table", "last", "--N", "5", "--family", "antipalindromic")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "table", "parts", "--N", "5", "--family", "arndt",
            "--k", "2")
    assert exc.value.code == 2


def test_series_arndt(capsys):
    code, out, _ = run(capsys, "series", "arndt", "--N", "6")
    assert code == 0
    rows = parse_plain_triangle(out)
    assert rows[6] == {1: 1, 2: 2, 3: 4, 4: 1}


def test_series_arndt_order_zero(capsys):
    code, out, _ = run(capsys, "series", "arndt", "--N", "0")
    assert code == 0
    assert parse_plain_triangle(out) == {0: {0: 1}}


def test_grid_label_column_fits_the_largest_n(capsys):
    # every cell is 0 or 1, so only the row labels 1000 and 1001 need width 4
    code, out, _ = run(capsys, "series", "distinct-parts", "--k", "1",
                       "--N", "1001")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1003
    label_ends = {line.index(line.split()[0]) + len(line.split()[0])
                  for line in lines}
    assert label_ends == {4}


def test_series_k_arndt_negative(capsys):
    code, out, _ = run(capsys, "series", "k-arndt", "--k", "-3", "--N", "4")
    assert code == 0
    assert parse_plain_triangle(out)[4] == {1: 1, 2: 3, 3: 3, 4: 1}


def test_series_univariate(capsys):
    code, out, _ = run(capsys, "series", "total-parts", "--N", "7")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [0, 1, 1, 3, 6, 11, 21, 38]


def test_series_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "series", "k-arndt", "--N", "4")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "series", "arndt", "--k", "1")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "series", "unknown-name")
    assert exc.value.code == 2


def test_bfile_outputs(capsys):
    code, out, err = run(capsys, "bfile", "arndt-total", "--N", "7", "--check")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 2", "4 3", "5 5", "6 8",
                                "7 13"]
    assert "A000045" in err and "OK" in err

    code, out, err = run(capsys, "bfile", "last-sum", "--N", "7", "--check")
    assert code == 0
    assert [int(l.split()[1]) for l in out.splitlines()] == [1, 2, 4, 6, 11,
                                                             17, 29]
    code, out, err = run(capsys, "bfile", "parts-triangle-flat", "--N", "37",
                         "--check")
    assert code == 0
    assert len(out.splitlines()) == 37
    assert "A354787" in err


def test_bfile_parts_triangle_flat_builds_only_needed_rows(capsys,
                                                          monkeypatch):
    # reference: flatten the full triangle of 300 rows, row by row
    full = formulas.parts_triangle_by_recurrence(300)
    flat = [full[n].get(m, 0) for n in range(1, 301)
            for m in range(1, max(full[n]) + 1)]
    for count in range(1, 301):
        code, out, _ = run(capsys, "bfile", "parts-triangle-flat",
                           "--N", str(count))
        assert code == 0
        assert out == "".join(f"{i} {v}\n"
                              for i, v in enumerate(flat[:count], start=1))

    drawn = []
    real = formulas.parts_rows_by_recurrence

    def spy(max_n):
        for n, row in real(max_n):
            drawn.append(n)
            yield n, row

    monkeypatch.setattr(formulas, "parts_rows_by_recurrence", spy)
    code, out, _ = run(capsys, "bfile", "parts-triangle-flat", "--N", "2000")
    assert code == 0
    assert len(out.splitlines()) == 2000
    assert drawn and len(drawn) <= 80


def test_bfile_triangle_mismatch_exits_3(capsys, monkeypatch):
    real = formulas.parts_rows_by_recurrence

    def off_by_one_at_row_5(max_n):
        for n, row in real(max_n):
            yield n, ([row[0], row[1] + 1, *row[2:]] if n == 5 else row)

    monkeypatch.setattr(formulas, "parts_rows_by_recurrence",
                        off_by_one_at_row_5)
    code, _, err = run(capsys, "bfile", "parts-triangle-flat", "--N", "37",
                       "--check")
    assert code == 3
    # Rows 1..4 give 1 + 1 + 2 + 3 terms, so row 5 starts at index 8.
    assert "A354787 at index 8: computed 2, reference 1" in err


def test_statistic_names_are_stated_alike():
    # compositions.STATISTICS names the statistics, which `table` offers as
    # its kinds and catalog.statistic_series, formulas.statistic_rows and
    # counting.tally read; compositions.check_statistic refuses any other.
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    kind = next(action for action in commands.choices["table"]._actions
                if action.dest == "kind")
    assert list(kind.choices) == list(STATISTICS)
    for statistic in STATISTICS:
        assert catalog.statistic_series(ARNDT, statistic) is not None
        assert formulas.statistic_rows(ARNDT, statistic, 3) is not None
    for other in ("", "Parts", "last-part", "sum"):
        for lookup in (catalog.statistic_series,
                       lambda *args: formulas.statistic_rows(*args, 3),
                       lambda *args: counting.tally(5, *args)):
            with pytest.raises(ValueError, match=f"unknown statistic {other!r}"):
                lookup(ARNDT, other)


def test_bfile_names_are_stated_once():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    sequence = next(action for action in commands.choices["bfile"]._actions
                    if action.dest == "sequence")
    assert tuple(sequence.choices) == formulas.BFILES
    data = resources.files("arndt.data")
    references = json.loads(data.joinpath("oeis.json").read_text())
    assert sorted(references) == sorted(formulas.BFILES)
    for meta in references.values():
        assert data.joinpath(meta["file"]).is_file(), meta["file"]


def test_bfile_streams_its_terms(capsys, monkeypatch):
    real = formulas.bfile_texts
    seen = []

    def spy(sequence, count):
        for n, text in real(sequence, count):
            if n == count:
                # the first line is on stdout before the last term is drawn
                seen.append(capsys.readouterr().out)
            yield n, text

    monkeypatch.setattr(formulas, "bfile_texts", spy)
    code, rest, _ = run(capsys, "bfile", "arndt-total", "--N", "5000")
    assert code == 0
    assert seen and seen[0].startswith("1 1\n2 1\n")
    assert len((seen[0] + rest).splitlines()) == 5000


@pytest.mark.parametrize("argv, first, closed_form", [
    (("bfile", "arndt-total", "--N", "21000"), 1, formulas.fibonacci),
    (("series", "total-last", "--N", "20600", "--format", "bfile"), 0,
     formulas.total_last_closed)], ids=["bfile", "series"])
def test_terms_past_the_int_digit_limit_are_printed(capsys, argv, first,
                                                    closed_form,
                                                    unlimited_int_text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        code, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4300  # restored by main
    finally:
        sys.set_int_max_str_digits(limit)
    lines = out.splitlines()
    last = int(argv[argv.index("--N") + 1])
    assert (code, err) == (0, "")
    assert len(lines) == last - first + 1
    assert lines[-1] == f"{last} {closed_form(last)}"
    assert len(lines[-1]) > 4300


def test_bfile_empty(capsys):
    # a b-file of zero terms is refused rather than checked vacuously
    for sequence in ("arndt-total", "parts-triangle-flat", "last-sum"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bfile", sequence, "--N", "0")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# The formatting each composition line had before the line table: the
# reference for the bytes that cli._write_compositions writes.
REFERENCE_LINE = {"plain": lambda c: f"({','.join(map(str, c))})",
                  "csv": lambda c: ",".join(map(str, c)),
                  "jsonl": lambda c: json.dumps(list(c))}


def sampled_two_digit_compositions(count, n=20, seed=20):
    """Random compositions of n with few cuts and a part of at least 10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cuts = sorted(rng.sample(range(1, n), rng.randrange(4)))
        comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        if max(comp) >= 10:
            out.append(comp)
    return out


def one_member_blocks(comps):
    return [(comp, counting.WHOLE) for comp in comps]


@pytest.mark.parametrize("fmt", cli.FORMAT_CHOICES)
def test_composition_lines_equal_the_reference_formatting(capsys, fmt):
    reference = REFERENCE_LINE[fmt]

    def written(blocks):
        cli._write_compositions(iter(blocks), fmt)
        return capsys.readouterr().out

    for n in range(15):  # n = 0 is the empty composition
        comps = list(counting.compositions_of(n))
        for blocks in (one_member_blocks(comps),
                       counting.family_blocks(n, ALL_COMPOSITIONS)):
            assert written(blocks) == "".join(reference(c) + "\n"
                                              for c in comps), n
    sample = sampled_two_digit_compositions(500)
    assert written(one_member_blocks(sample)) == \
        "".join(reference(c) + "\n" for c in sample)


@pytest.mark.parametrize("fmt", cli.FORMAT_CHOICES)
def test_mirrored_block_lines_equal_the_reference_formatting(capsys, fmt):
    # A mirrored stream's blocks carry a fresh tail list each, of tails
    # that recur from block to block.
    for family in (ANTIPALINDROMIC, REDUCED_AP):
        for n in range(15):
            cli._write_compositions(counting.family_blocks(n, family), fmt)
            assert capsys.readouterr().out == "".join(
                REFERENCE_LINE[fmt](c) + "\n"
                for c in counting.compositions_of(n) if family.member(c)), \
                (str(family), n)


class CountedTail(tuple):
    """A tail that counts how often any tail of its kind is iterated."""
    iterations = 0

    def __iter__(self):
        CountedTail.iterations += 1
        return super().__iter__()


def test_one_text_is_made_per_distinct_tail(capsys):
    blocks = [(prefix, tails if tails is counting.WHOLE else
               counting.Stored(map(CountedTail, tails)))
              for prefix, tails in counting.family_blocks(16, ANTIPALINDROMIC)]
    members = [prefix + tail for prefix, tails in blocks for tail in tails]
    distinct = {tail for _, tails in blocks if tails is not counting.WHOLE
                for tail in tails}
    # 2,787 distinct tails among 7,473: one text per tail would be more.
    assert len(distinct) < sum(len(t) for _, t in blocks) // 2
    for fmt in cli.FORMAT_CHOICES:
        CountedTail.iterations = 0
        cli._write_compositions(iter(blocks), fmt)
        assert capsys.readouterr().out == \
            "".join(REFERENCE_LINE[fmt](c) + "\n" for c in members), fmt
        assert CountedTail.iterations == len(distinct), fmt


def test_tail_texts_are_made_once_per_call(capsys):
    # The same stored tails, and fresh ones, written in each format in turn:
    # a tail's text kept from an earlier call has that call's separator.
    comps = list(counting.compositions_of(13))
    kept = list(counting.family_blocks(13, ALL_COMPOSITIONS))
    for fmt in ("plain", "csv", "jsonl", "plain"):
        for blocks in (kept, counting.family_blocks(13, ALL_COMPOSITIONS)):
            cli._write_compositions(iter(blocks), fmt)
            assert capsys.readouterr().out == \
                "".join(REFERENCE_LINE[fmt](c) + "\n" for c in comps), fmt


# The tails of every block that fresh_tail_blocks makes.
TAILS_OF_5 = list(counting.compositions_of(5))


def fresh_tail_blocks(count, alive):
    """count blocks, each a prefix with a fresh Stored list of TAILS_OF_5.
    Before it makes each list, it appends to alive how many of the lists
    made so far are still referenced."""
    made = []
    for i in range(count):
        alive.append(sum(ref() is not None for ref in made))
        tails = counting.Stored(TAILS_OF_5)
        made.append(weakref.ref(tails))
        yield (i % 7 + 1, i % 3 + 1), tails


def test_tail_caches_hold_a_bounded_number_of_lists(capsys, monkeypatch):
    # A mirrored stream's tail lists are fresh per block: neither the
    # writer nor tally may keep each of them.
    members = [prefix + tail for prefix, tails in fresh_tail_blocks(1000, [])
               for tail in tails]
    for fmt in cli.FORMAT_CHOICES:
        alive = []
        cli._write_compositions(fresh_tail_blocks(1000, alive), fmt)
        assert capsys.readouterr().out == \
            "".join(REFERENCE_LINE[fmt](c) + "\n" for c in members), fmt
        assert max(alive) <= counting.TAIL_WEIGHT + 1, fmt
    for statistic, value in (("parts", len), ("last", lambda c: c[-1])):
        alive = []
        monkeypatch.setattr(counting, "family_blocks",
                            lambda *args: fresh_tail_blocks(1000, alive))
        assert counting.tally(12, ALL_COMPOSITIONS, statistic) == \
            dict(Counter(map(value, members))), statistic
        assert max(alive) <= counting.TAIL_WEIGHT + 1, statistic


def test_sequence_lines_equal_the_reference_formatting():
    terms = [(0, 0), (1, -1), (7, 13), (5000, 7 ** 900)]
    assert list(cli._sequence_lines(terms, "jsonl")) == \
        [json.dumps({"n": n, "value": v}) for n, v in terms]
    # The csv header is one item with term 0, so it is never written alone.
    assert list(cli._sequence_lines(terms, "csv")) == \
        ["n,value\n0,0"] + [f"{n},{v}" for n, v in terms[1:]]
    assert list(cli._sequence_lines(terms, "plain")) == \
        [f"{n} {v}" for n, v in terms]


@pytest.mark.parametrize("width", [1, 99, 999, 3 * cli.CHUNK_CHARS])
def test_lines_are_written_in_growing_bounded_chunks(monkeypatch, width):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr("sys.stdout", Recorder())
    lines = [str(i % 10) * width
             for i in range(4 * cli.CHUNK_CHARS // width + 1)]
    cli._write_lines(lines)
    assert "".join(writes) == "".join(line + "\n" for line in lines)
    sizes = [text.count("\n") for text in writes]
    assert sizes[0] == 1
    if 8 * (width + 1) <= cli.CHUNK_CHARS:
        assert sizes[:4] == [1, 2, 4, 8]
    assert all(b <= 2 * a for a, b in zip(sizes, sizes[1:]))
    # A chunk stays within CHUNK_CHARS unless one line alone is longer,
    # and full-length chunks reach at least half of it.
    assert all(len(text) <= max(cli.CHUNK_CHARS, width + 1)
               for text in writes)
    assert max(map(len, writes)) > min(cli.CHUNK_CHARS, width) // 2
    writes.clear()
    cli._write_lines([])
    assert writes == []


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "-1"),
    ("enumerate", "--n", "5", "--max-n", "-2"),
    ("table", "parts", "--N", "-1"),
    ("table", "last", "--N", "4", "--method", "brute", "--max-n", "-1"),
    ("series", "arndt", "--N", "-1"),
    ("series", "arndt", "--order", "-1"),
    ("verify", "all", "--max-n", "-1"),
    ("bfile", "arndt-total", "--N", "0", "--check"),
    ("bfile", "arndt-total", "--N", "-3"),
])
def test_sizes_out_of_range_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"arndt {argv[0]}: error: argument")


@pytest.mark.parametrize("argv, names", [
    (("enumerate", "--n", "5", "--family", "k-arndt"), "family 'k-arndt'"),
    (("enumerate", "--n", "5", "--k", "1"), "family 'arndt'"),
    (("enumerate", "--n", "5", "--family", "block-arndt", "--k", "0"),
     "family 'block-arndt' needs k >= 1"),
    (("series", "block-arndt", "--k", "0"),
     "series 'block-arndt' needs k >= 1"),
    (("table", "parts", "--N", "5", "--family", "block-arndt"),
     "family 'block-arndt'"),
    (("table", "last", "--N", "5", "--family", "all", "--k", "2"),
     "family 'all'"),
    (("series", "distinct-parts", "--N", "5"), "series 'distinct-parts'"),
    (("series", "total-parts", "--k", "1"), "series 'total-parts'"),
    (("table", "last", "--N", "5", "--family", "antipalindromic"),
     "the last table"),
    (("table", "last", "--N", "5", "--family", "k-arndt", "--k", "1",
      "--method", "formula"), "the last table"),
    (("table", "parts", "--N", "5", "--family", "reduced-ap",
      "--method", "formula"), "the parts table"),
    (("series", "arndt", "--N", "4", "--format", "bfile"), "the bfile format"),
])
def test_family_series_and_route_errors_are_one_line(capsys, argv, names):
    # Found after parsing, each is still the command's own usage error.
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"usage: arndt {argv[0]} "), err
    last = err.splitlines()[-1]
    assert last.startswith(f"arndt {argv[0]}: error:") and names in last, last


def test_series_bfile_format(capsys):
    code, out, _ = run(capsys, "series", "total-last", "--N", "7",
                       "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 1", "2 2", "3 4", "4 6", "5 11",
                                "6 17", "7 29"]
    with pytest.raises(SystemExit) as exc:
        run(capsys, "series", "arndt", "--N", "4", "--format", "bfile")
    assert exc.value.code == 2


def test_bfile_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "bfile_texts", lambda sequence, count:
                        ((n, "999") for n in range(1, count + 1)))
    code, _, err = run(capsys, "bfile", "last-sum", "--N", "5", "--check")
    assert code == 3
    assert "index 1" in err


def test_verify_reduced_scope(capsys):
    code, out, _ = run(capsys, "verify", "bijection", "--max-n", "10")
    assert code == 0
    assert "PASS  bijection.round-trip-bijective" in out
    assert out.strip().endswith("checks passed")


def test_verify_all_reduced(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "8")
    assert code == 0
    assert out.count("PASS") == 28
    assert out.strip().endswith("all 28 checks passed")


def test_verify_empty_range_is_skip_not_pass(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "0")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("PASS")] == [
        "SKIP  counting.fibonacci-totals: compared 0 cases",
        "SKIP  formulas.row-sums: compared 0 cases",
        "SKIP  formulas.fibonacci-double-sums: compared 0 cases",
        "25 of 28 checks passed, 3 skipped"]
    assert len(lines) == 29


def test_verify_prints_each_line_as_its_check_ends(capsys, monkeypatch):
    def first(lim):
        return 1

    def second(lim):
        assert capsys.readouterr().out == "PASS  spy.first\n"
        return 1

    monkeypatch.setattr(verify, "CHECKS",
                        [("spy", "first", first), ("spy", "second", second)])
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert out == "PASS  spy.second\nall 2 checks passed\n"


def test_verify_fail_detail_is_one_bounded_line(capsys, monkeypatch):
    stream = counting.compositions_of

    def misordered(n):
        return reversed(list(stream(n))) if n == 12 else stream(n)

    monkeypatch.setattr(counting, "compositions_of", misordered)
    code, out, _ = run(capsys, "verify", "counting", "--max-n", "12")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith(
        "FAIL  counting.stream: stream order at 12: got [(1, 1, 1, 1, ")
    assert ", want [(12,), (11, 1), " in fails[0]
    assert len(fails[0]) < 450
    assert out.splitlines()[-1] == "1 of 4 checks failed"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from arndt import catalog
    from arndt.series import BivariatePolynomial, RationalGF
    bad = RationalGF(
        BivariatePolynomial.from_terms([(0, 0, 1)]),
        BivariatePolynomial.from_terms([(0, 0, 1), (1, 0, -1), (2, 0, -1),
                                        (3, 0, 1), (3, 2, -1)]))
    monkeypatch.setattr(catalog, "gf_arndt", lambda: bad)
    code, out, _ = run(capsys, "verify", "catalog", "--max-n", "8")
    assert code == 1
    assert "FAIL" in out and "gf_arndt" in out


def test_enumerate_help_names_the_family_kinds_that_take_k(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside the help line
    with pytest.raises(SystemExit) as exit_:
        cli.main(["enumerate", "--help"])
    assert exit_.value.code == 0
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.lstrip().startswith("--k K")]
    named = line.split("parameter for ", 1)[1].split("/")
    assert sorted(named) == sorted(set(FAMILY_KINDS) & set(TAKES_K))


def test_python_m_arndt_prints_what_cli_main_prints(capsys):
    argv = ["enumerate", "--n", "5", "--family", "reduced-ap"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out.encode()
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-m", "arndt", *argv],
                            capture_output=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert (result.returncode, result.stdout, result.stderr) == (0, want, b"")


def test_cli_imports_neither_dataclasses_nor_inspect():
    # Both are slow to import and the CLI's start-up needs neither; -S keeps
    # the site hooks from importing them first.
    src = Path(cli.__file__).resolve().parents[1]
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
             "import arndt.cli; arndt.cli.build_parser(); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_main_builds_no_parser_once_the_parser_is_built(capsys, monkeypatch):
    # cli.main parses with the one parser of the process.
    cli.build_parser()
    made = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in (["enumerate", "--n", "3"], ["series", "arndt", "--N", "4"],
                 ["verify", "counting", "--max-n", "4"]):
        assert run(capsys, *argv)[0] == 0
    assert made == []


def test_help_reads_the_terminal_width_of_each_call(capsys, monkeypatch):
    # The shared parser formats help at the width of the call, as a parser
    # built in a fresh process for that width does.
    src = Path(cli.__file__).resolve().parents[1]
    texts = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["enumerate", "--help"])
        assert exit_.value.code == 0
        texts.append(capsys.readouterr().out)
        fresh = subprocess.run(
            [sys.executable, "-m", "arndt", "enumerate", "--help"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src), COLUMNS=columns))
        assert texts[-1] == fresh.stdout
    assert texts[0] != texts[1]


@pytest.mark.parametrize("argv", [
    ["verify", "counting"], ["enumerate", "--n", "22", "--family", "all"]])
def test_a_reader_that_closes_early_ends_the_command_with_exit_1(argv):
    # One line read and the pipe closed while the command still writes:
    # exit 1, and no traceback (nothing at all) on stderr.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "arndt", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
