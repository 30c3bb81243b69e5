import csv
import io

import pytest

from pwmjel import (
    CI_METHODS,
    DistSpec,
    MissingColumnError,
    PwmInputError,
    ajel_confidence_interval,
    confidence_intervals,
    jel_confidence_interval,
    jel_test,
    load_csv_column,
    make_rng,
    plugin_el_ci,
    ratio_test,
    ratio_tests,
    sample,
    ustat_estimate,
)
from pwmjel.cli import main

SAMPLE = """month,rain,flag
jan,11.2,a
feb,13.9,b
mar,,c
apr,NA,d
may,8.75,e
jun,not-a-number,f
jul,9.5,g
"""


@pytest.fixture
def rain_csv(tmp_path):
    p = tmp_path / "rain.csv"
    p.write_text(SAMPLE)
    return p


def test_load_skips_blank_na_and_junk(rain_csv):
    data = load_csv_column(rain_csv, "rain")
    assert data.name == "rain"
    assert list(data.values) == [11.2, 13.9, 8.75, 9.5]
    assert data.skipped == 3


def test_load_reads_each_cell_as_float_does(tmp_path):
    # float() strips whitespace and accepts underscores; NA tokens and other
    # words fail it, and nan, inf and overflow are skipped as non-finite
    cells = [" NA ", "N/A", " nan", "NaN", " inf ", "-Infinity", "1_000", "\t2.5\t",
             " ", "NULL", '"4.5"', "1e400", "-0.0"]
    p = tmp_path / "cells.csv"
    with open(p, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "x"])
        writer.writerows([i, cell] for i, cell in enumerate(cells))
        fh.write("short\n\n7,8.0\n")  # a short row and a blank line
    data = load_csv_column(p, "x")
    assert data.values.tolist() == [1000.0, 2.5, -0.0, 8.0]
    assert str(data.values[2]) == "-0.0"
    assert data.skipped == 11


def test_load_missing_column_lists_fields(rain_csv):
    with pytest.raises(MissingColumnError) as err:
        load_csv_column(rain_csv, "snow")
    msg = str(err.value)
    assert "snow" in msg and "rain" in msg and "month" in msg


def test_load_missing_file(tmp_path):
    with pytest.raises(PwmInputError):
        load_csv_column(tmp_path / "nope.csv", "rain")


def test_load_no_numeric_rows(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("rain\nNA\n\n")
    with pytest.raises(PwmInputError, match="no numeric"):
        load_csv_column(p, "rain")


def test_load_handles_bom(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfrain\n1.0\n2.0\n")
    assert list(load_csv_column(p, "rain").values) == [1.0, 2.0]


@pytest.mark.parametrize("body", [
    b"rain\n1.0\n\xff\n2.0\n",  # not UTF-8
    b"rain\n1.0\n" + b"9" * 131_073 + b"\n",  # over csv.field_size_limit()
], ids=["not-utf8", "oversized-field"])
def test_load_unparseable_file_is_an_input_error(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_bytes(body)
    with pytest.raises(PwmInputError, match="bad.csv"):
        load_csv_column(p, "rain")


def _column_csv(tmp_path, name, values):
    """A one-column CSV file that loads back to exactly ``values``."""
    p = tmp_path / f"{name}.csv"
    p.write_text(name + "\n" + "".join(f"{float(v)!r}\n" for v in values))
    return str(p)


def _cli_rows(capsys, *argv):
    """Exit code and the ``--format csv`` rows of one CLI call, by method."""
    code = main([*argv, "--format", "csv", "--quiet"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    return code, {row["method"]: row for row in rows}


def test_analyze_column_constant_errors_inline(capsys, tmp_path):
    path = _column_csv(tmp_path, "c", [2.0] * 10)
    code, rows = _cli_rows(capsys, "ci", "--input", path, "--column", "c", "--r", "1",
                           "--methods", "JEL,AJEL,DNEL")
    # degenerate data kills the jackknife methods but DNEL still answers
    assert code == 0
    for method in ("JEL", "AJEL"):
        assert "identical" in rows[method]["error"]
        assert [rows[method][f] for f in ("estimate", "lower", "upper", "length")] == [""] * 4
    assert rows["DNEL"]["error"] == "" and rows["DNEL"]["lower"] != ""


def test_test_column_inline_errors(capsys, tmp_path):
    path = _column_csv(tmp_path, "c", [2.0] * 10)
    code, rows = _cli_rows(capsys, "test", "--input", path, "--column", "c", "--r", "1",
                           "--null", "0.9", "--methods", "JEL,VXL")
    assert code == 0
    assert "identical" in rows["JEL"]["error"]
    assert [rows["JEL"][f] for f in ("statistic", "threshold", "p_value", "reject")] == [""] * 4
    assert rows["VXL"]["error"] == "" and rows["VXL"]["reject"] in ("true", "false")


@pytest.mark.parametrize("rule", ("centered", "literal"))
@pytest.mark.parametrize("a_n", (None, 2.0))
def test_rows_equal_the_per_method_functions(capsys, tmp_path, rule, a_n):
    # every field of the CLI's csv rows is the repr of the per-method result
    x = sample(DistSpec("exponential", 1.0), 60, make_rng(71))
    path = _column_csv(tmp_path, "x", x)
    level, beta0, alpha = 0.90, 0.8, 0.10
    per_method = {
        "JEL": (lambda: jel_confidence_interval(x, 1, level),
                lambda: jel_test(x, 1, beta0, alpha)),
        "AJEL": (lambda: ajel_confidence_interval(x, 1, level, rule=rule, a_n=a_n),
                 lambda: ratio_test(x, 1, beta0, alpha, "AJEL", rule, a_n)),
        **{m: (lambda m=m: plugin_el_ci(x, 1, level, m),
               lambda m=m: ratio_test(x, 1, beta0, alpha, m))
           for m in ("DNEL", "VXL")},
    }
    options = ["--input", path, "--column", "x", "--r", "1", "--ajel-rule", rule,
               *([] if a_n is None else ["--an", repr(a_n)])]
    ci_code, ci_rows = _cli_rows(capsys, "ci", *options, "--level", repr(level))
    test_code, test_rows = _cli_rows(capsys, "test", *options, "--null", repr(beta0),
                                     "--alpha", repr(alpha))
    assert ci_code == test_code == 0
    assert list(ci_rows) == list(test_rows) == list(CI_METHODS)
    for method, (interval, test) in per_method.items():
        ci, res = interval(), test()
        assert ci_rows[method] == {
            "column": "x", "method": ci.method, "r": "1",
            "estimate": repr(ci.point_estimate), "lower": repr(ci.lower),
            "upper": repr(ci.upper), "length": repr(ci.length), "error": ""}
        assert test_rows[method] == {
            "column": "x", "method": res.method, "r": "1",
            "statistic": repr(res.statistic), "threshold": repr(res.threshold),
            "p_value": repr(res.p_value), "reject": str(res.reject).lower(), "error": ""}
    for method in ("JEL", "AJEL"):
        assert float(ci_rows[method]["estimate"]) == pytest.approx(ustat_estimate(x, 1),
                                                                   rel=1e-12)


def test_load_reads_columns_under_padded_header_names(tmp_path):
    p = tmp_path / "padded.csv"
    p.write_text("a, b , c\n1, 2, 3\n4,5,6\n")
    assert list(load_csv_column(p, "b").values) == [2.0, 5.0]
    assert list(load_csv_column(p, "c").values) == [3.0, 6.0]


def test_load_row_rules(tmp_path):
    p = tmp_path / "rules.csv"
    # blank lines are ignored, short rows and non-finite cells are skipped,
    # and a duplicated name reads its last column
    p.write_text("x,y,y\n1,2,3\n\n4\n5,6,inf\n7,8,-Infinity\n9,10,11\n")
    assert list(load_csv_column(p, "x").values) == [1.0, 4.0, 5.0, 7.0, 9.0]
    y = load_csv_column(p, "y")
    assert list(y.values) == [3.0, 11.0] and y.skipped == 3


def test_bad_options_raise_before_any_method_runs():
    # at least one method would answer each call: the options alone fail it
    values = [sample(DistSpec("exponential", 1.0), 40, make_rng(3))]
    inf = float("inf")
    calls = (
        lambda: confidence_intervals(values, 1, 1.5, CI_METHODS),
        lambda: confidence_intervals(values, 1, 0.95, ("JEL", "WALD")),
        lambda: confidence_intervals(values, 1, 0.95, ()),
        lambda: confidence_intervals(values, 1, 0.95, CI_METHODS, rule="nope"),
        lambda: confidence_intervals(values, 1, 0.95, CI_METHODS, a_n=inf),
        lambda: ratio_tests(values, 1, 0.8, 0.0, CI_METHODS),
        lambda: ratio_tests(values, 1, inf, 0.05, CI_METHODS),
        lambda: ratio_tests(values, 1, 0.8, 0.05, ("VXL", "WALD")),
        lambda: ratio_tests(values, 1, 0.8, 0.05, CI_METHODS, a_n=-1.0),
    )
    for call in calls:
        with pytest.raises(PwmInputError):
            call()
