import json

import pytest

from conftest import TABLE_LAST, TABLE_PARTS
from arndt import cli, counting, formulas


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


def test_enumerate_streams_its_output(capsys, monkeypatch):
    def compositions_of(n, cap):
        yield (3,)
        # the first member is printed before the second is generated
        assert capsys.readouterr().out == "(3)\n"
        yield (2, 1)

    monkeypatch.setattr(counting, "compositions_of", compositions_of)
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out == "(2,1)\n"
    monkeypatch.undo()
    # the cap is still enforced before anything is printed
    code, out, _ = run(capsys, "enumerate", "--n", "29", "--family", "all")
    assert code == 1
    assert out == ""


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
    flat = [full.get(n, m) for n in range(1, 301)
            for m in range(1, max(full.row(n)) + 1)]
    for count in range(1, 301):
        code, out, _ = run(capsys, "bfile", "parts-triangle-flat",
                           "--N", str(count))
        assert code == 0
        assert out == "".join(f"{i} {v}\n"
                              for i, v in enumerate(flat[:count], start=1))

    built = []
    real = formulas.parts_triangle_by_recurrence

    def spy(max_n, max_m=None):
        built.append(max_n)
        return real(max_n, max_m)

    monkeypatch.setattr(formulas, "parts_triangle_by_recurrence", spy)
    code, out, _ = run(capsys, "bfile", "parts-triangle-flat", "--N", "2000")
    assert code == 0
    assert len(out.splitlines()) == 2000
    assert built and max(built) <= 80


def test_bfile_empty(capsys):
    # a b-file of zero terms is refused rather than checked vacuously
    for sequence in ("arndt-total", "parts-triangle-flat", "last-sum"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bfile", sequence, "--N", "0")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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
    monkeypatch.setattr(formulas, "total_last_closed", lambda n: 999)
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
