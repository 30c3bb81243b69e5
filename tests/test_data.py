import pytest

from pwmjel import (
    CI_METHODS,
    AnalysisRow,
    ColumnDataset,
    DistSpec,
    MissingColumnError,
    PwmInputError,
    TestRow as ResultRow,
    ajel_confidence_interval,
    ajel_test,
    analyze_column,
    jel_confidence_interval,
    jel_test,
    load_csv_column,
    make_rng,
    plugin_el_ci,
    plugin_el_test,
    sample,
    test_column as run_test_column,
    ustat_estimate,
)

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


def test_analyze_column_matches_library(tmp_path):
    p = tmp_path / "x.csv"
    vals = [0.4, 1.7, 0.9, 2.8, 0.2, 1.1, 3.4, 0.7, 1.9, 0.5, 2.2, 1.4]
    p.write_text("x\n" + "\n".join(str(v) for v in vals) + "\n")
    data = load_csv_column(p, "x")
    rows = analyze_column(data, 1, 0.90, ("JEL", "DNEL"))
    by_method = {row.method: row for row in rows}
    ci = jel_confidence_interval(vals, 1, 0.90)
    jel = by_method["JEL"]
    assert jel.error is None
    assert (jel.lower, jel.upper) == (ci.lower, ci.upper)
    assert jel.estimate == pytest.approx(ustat_estimate(vals, 1), rel=1e-12)
    assert jel.length == pytest.approx(ci.length, rel=1e-12)
    assert by_method["DNEL"].error is None


def test_analyze_column_constant_errors_inline(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("c\n" + "2.0\n" * 10)
    data = load_csv_column(p, "c")
    rows = analyze_column(data, 1, 0.95, ("JEL", "AJEL", "DNEL"))
    by_method = {row.method: row for row in rows}
    # degenerate data kills the jackknife methods but DNEL still answers
    assert by_method["JEL"].error is not None
    assert by_method["AJEL"].error is not None
    assert by_method["DNEL"].error is None
    assert by_method["JEL"].lower is None


def test_analyze_bad_method_name(rain_csv):
    data = load_csv_column(rain_csv, "rain")
    with pytest.raises(PwmInputError):
        analyze_column(data, 1, 0.95, ("JEL", "WALD"))


def test_test_column_matches_library(tmp_path):
    p = tmp_path / "x.csv"
    vals = [0.4, 1.7, 0.9, 2.8, 0.2, 1.1, 3.4, 0.7, 1.9, 0.5, 2.2, 1.4]
    p.write_text("x\n" + "\n".join(str(v) for v in vals) + "\n")
    data = load_csv_column(p, "x")
    rows = run_test_column(data, 1, 0.8, 0.05, ("JEL",))
    (row,) = rows
    ref = jel_test(vals, 1, 0.8, alpha=0.05)
    assert row.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert row.p_value == pytest.approx(ref.p_value, rel=1e-12)
    assert row.reject == ref.reject
    assert row.threshold == pytest.approx(ref.threshold, rel=1e-12)
    assert row.error is None


def test_test_column_inline_errors(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("c\n" + "2.0\n" * 10)
    data = load_csv_column(p, "c")
    rows = run_test_column(data, 1, 0.9, 0.05, ("JEL", "VXL"))
    by_method = {row.method: row for row in rows}
    assert by_method["JEL"].error is not None
    assert by_method["VXL"].error is None


@pytest.mark.parametrize("rule", ("centered", "literal"))
@pytest.mark.parametrize("a_n", (None, 2.0))
def test_rows_equal_the_per_method_functions(rule, a_n):
    x = sample(DistSpec("exponential", 1.0), 60, make_rng(71))
    data = ColumnDataset("x", x, 0)
    level, beta0, alpha = 0.90, 0.8, 0.10
    per_method = {
        "JEL": (lambda: jel_confidence_interval(x, 1, level),
                lambda: jel_test(x, 1, beta0, alpha)),
        "AJEL": (lambda: ajel_confidence_interval(x, 1, level, rule=rule, a_n=a_n),
                 lambda: ajel_test(x, 1, beta0, alpha, rule=rule, a_n=a_n)),
        **{m: (lambda m=m: plugin_el_ci(x, 1, level, m),
               lambda m=m: plugin_el_test(x, 1, beta0, alpha, m))
           for m in ("DNEL", "VXL")},
    }
    ci_rows = analyze_column(data, 1, level, CI_METHODS, ajel_rule=rule, a_n=a_n)
    test_rows = run_test_column(data, 1, beta0, alpha, CI_METHODS, ajel_rule=rule, a_n=a_n)
    assert [row.method for row in ci_rows] == [row.method for row in test_rows] == list(CI_METHODS)
    for ci_row, test_row in zip(ci_rows, test_rows):
        interval, test = per_method[ci_row.method]
        ci, res = interval(), test()
        assert ci_row == AnalysisRow("x", ci.method, 1, ci.point_estimate, ci.lower,
                                     ci.upper, ci.length, None)
        assert test_row == ResultRow("x", res.method, 1, res.statistic, res.threshold,
                                     res.p_value, res.reject, None)


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
    data = ColumnDataset("x", sample(DistSpec("exponential", 1.0), 40, make_rng(3)), 0)
    inf = float("inf")
    calls = (
        lambda: analyze_column(data, 1, 1.5, CI_METHODS),
        lambda: analyze_column(data, 1, 0.95, CI_METHODS, ajel_rule="nope"),
        lambda: analyze_column(data, 1, 0.95, CI_METHODS, a_n=inf),
        lambda: run_test_column(data, 1, 0.8, 0.0, CI_METHODS),
        lambda: run_test_column(data, 1, inf, 0.05, CI_METHODS),
        lambda: run_test_column(data, 1, 0.8, 0.05, CI_METHODS, a_n=-1.0),
    )
    for call in calls:
        with pytest.raises(PwmInputError):
            call()
