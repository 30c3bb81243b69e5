import argparse
import csv
import io
import subprocess
import sys

import pytest

from pwmjel import (
    ADJUSTMENT_RULES,
    CI_METHODS,
    PwmError,
    confidence_intervals,
    jel_confidence_interval,
    jel_test,
    load_csv_column,
    ratio_tests,
    ustat_estimate,
)
from pwmjel.cli import build_parser, main

VALS = [0.4, 1.7, 0.9, 2.8, 0.2, 1.1, 3.4, 0.7, 1.9, 0.5, 2.2, 1.4]


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("flow\n" + "\n".join(str(v) for v in VALS) + "\n")
    return str(p)


@pytest.fixture
def const_csv(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("c\n" + "2.0\n" * 10)
    return str(p)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_csv_full_precision(capsys, data_csv):
    code, out, _ = run_main(
        capsys, "estimate", "--input", data_csv, "--column", "flow",
        "--r", "1", "--method", "ustat", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["estimate"]) == ustat_estimate(VALS, 1)
    assert row["method"] == "ustat" and row["r"] == "1"


def test_estimate_markdown_rounds(capsys, data_csv):
    code, out, _ = run_main(
        capsys, "estimate", "--input", data_csv, "--column", "flow",
        "--r", "1", "--method", "dn",
    )
    assert code == 0
    assert out.startswith("| column | method | r | estimate |")
    from pwmjel import dn_estimate

    assert f"{dn_estimate(VALS, 1):.4f}" in out


def test_estimate_jackknife_equals_ustat(capsys, data_csv):
    code, out, _ = run_main(
        capsys, "estimate", "--input", data_csv, "--column", "flow",
        "--r", "1", "--method", "jackknife", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["estimate"]) == pytest.approx(ustat_estimate(VALS, 1), rel=1e-12)


def test_ci_csv_matches_library(capsys, data_csv):
    code, out, _ = run_main(
        capsys, "ci", "--input", data_csv, "--column", "flow",
        "--r", "1", "--level", "0.9", "--methods", "JEL", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    ref = jel_confidence_interval(VALS, 1, 0.9)
    assert float(row["lower"]) == ref.lower
    assert float(row["upper"]) == ref.upper
    assert row["error"] == ""


def test_ci_inline_error_keeps_exit_zero(capsys, const_csv):
    # DNEL still answers on a constant column, so the run succeeds
    code, out, _ = run_main(
        capsys, "ci", "--input", const_csv, "--column", "c",
        "--r", "1", "--methods", "DNEL,JEL", "--format", "csv", "--quiet",
    )
    assert code == 0
    rows = {row["method"]: row for row in csv.DictReader(io.StringIO(out))}
    assert rows["DNEL"]["error"] == "" and rows["JEL"]["error"] != ""


def test_ci_prints_a_whole_line_interval_with_exit_zero(capsys, tmp_path):
    # six values put the centered AJEL ratio's plateau below the 95% threshold
    p = tmp_path / "six.csv"
    p.write_text("flow\n" + "\n".join(str(v) for v in VALS[:6]) + "\n")
    code, out, _ = run_main(capsys, "ci", "--input", str(p), "--column", "flow", "--r", "1",
                            "--methods", "JEL,AJEL", "--format", "csv")
    assert code == 0
    rows = {row["method"]: row for row in csv.DictReader(io.StringIO(out))}
    assert (rows["AJEL"]["lower"], rows["AJEL"]["upper"], rows["AJEL"]["length"]) == (
        "-inf", "inf", "inf")
    assert rows["AJEL"]["error"] == "" and float(rows["JEL"]["length"]) < float("inf")


def test_ci_all_methods_fail_exits_3(capsys, const_csv):
    code, _, _ = run_main(
        capsys, "ci", "--input", const_csv, "--column", "c",
        "--r", "1", "--methods", "JEL,AJEL", "--quiet",
    )
    assert code == 3


def test_every_method_failing_on_its_input_exits_2(capsys, tmp_path):
    # a bad order, or one the 40-row column is too small for, fails each
    # method with a PwmInputError: a bad flag, not a numeric failure
    p = tmp_path / "forty.csv"
    p.write_text("x\n" + "\n".join(str(1.0 + 0.1 * k) for k in range(40)) + "\n")
    for flags in (["--r", "-1"], ["--r", "0", "--methods", "JEL,AJEL"],
                  ["--r", "50", "--methods", "JEL"]):
        for command in (["ci"], ["test", "--null", "1.0"]):
            code, out, _ = run_main(capsys, *command, "--input", str(p), "--column", "x",
                                    *flags, "--format", "csv")
            assert code == 2, (command, flags)
            assert all(row["error"] for row in csv.DictReader(io.StringIO(out)))


def test_ci_ajel_rule_flags_change_result(capsys, data_csv):
    rows = {}
    for rule in ("centered", "literal"):
        code, out, _ = run_main(
            capsys, "ci", "--input", data_csv, "--column", "flow",
            "--r", "1", "--level", "0.5", "--methods", "AJEL",
            "--ajel-rule", rule, "--format", "csv",
        )
        assert code == 0
        rows[rule] = list(csv.DictReader(io.StringIO(out)))[0]
    assert rows["centered"]["lower"] != rows["literal"]["lower"]


def test_test_csv_matches_library(capsys, data_csv):
    code, out, _ = run_main(
        capsys, "test", "--input", data_csv, "--column", "flow",
        "--r", "1", "--null", "0.9", "--methods", "JEL", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    ref = jel_test(VALS, 1, 0.9)
    assert float(row["statistic"]) == ref.statistic
    assert row["reject"] == str(ref.reject).lower()


@pytest.mark.parametrize("source, column", [("data_csv", "flow"), ("const_csv", "c")])
def test_ci_and_test_print_markdown_by_default(capsys, request, source, column):
    # on the constant column the JEL methods fail and print their error
    path = request.getfixturevalue(source)
    values = load_csv_column(path, column).values
    (intervals,) = confidence_intervals([values], 1, 0.95, CI_METHODS)
    (tests,) = ratio_tests([values], 1, 1.2, 0.05, CI_METHODS)
    assert any(isinstance(ci, PwmError) for ci in intervals) == (column == "c")
    code, out, _ = run_main(capsys, "ci", "--input", path, "--column", column, "--r", "1")
    assert code == 0
    assert out == (f"| column | {' | '.join(CI_METHODS)} |\n| --- | --- | --- | --- | --- |\n"
                   f"| {column} | " + " | ".join(
                       f"error: {ci}" if isinstance(ci, PwmError)
                       else f"({ci.lower:.4f}, {ci.upper:.4f}) length {ci.length:.4f}"
                       for ci in intervals) + " |\n")
    code, out, _ = run_main(capsys, "test", "--input", path, "--column", column, "--r", "1",
                            "--null", "1.2")
    assert code == 0
    assert out.splitlines()[2:] == [
        f"| {column} | {method} | 1 |  |  |  |  | {res} |" if isinstance(res, PwmError)
        else (f"| {column} | {method} | 1 | {res.statistic:.4f} | {res.threshold:.4f} | "
              f"{res.p_value:.4f} | {str(res.reject).lower()} |  |")
        for method, res in zip(CI_METHODS, tests)]


def test_missing_file_exits_2(capsys):
    code, _, err = run_main(
        capsys, "estimate", "--input", "/does/not/exist.csv",
        "--column", "x", "--r", "1", "--method", "dn",
    )
    assert code == 2 and "error:" in err


def test_missing_column_exits_2(capsys, data_csv):
    code, _, err = run_main(
        capsys, "ci", "--input", data_csv, "--column", "snow", "--r", "1",
    )
    assert code == 2 and "snow" in err


@pytest.mark.parametrize("body", [b"x\n1.0\n\xff\n", b"x\n" + b"9" * 131_073 + b"\n"],
                         ids=["not-utf8", "oversized-field"])
def test_unparseable_csv_exits_2(capsys, tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_bytes(body)
    code, _, err = run_main(capsys, "ci", "--input", str(p), "--column", "x", "--r", "1")
    assert code == 2 and "bad.csv" in err


def test_bad_flag_exits_2(data_csv):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", data_csv, "--column", "flow",
              "--r", "1", "--method", "median"])
    assert exc.value.code == 2
    # simulate always writes both report formats, so it takes no --format
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "run.cfg", "--out", "o", "--format", "csv"])
    assert exc.value.code == 2


def test_out_of_range_flag_values_exit_2(capsys, data_csv):
    # flag garbage is an input error, not a per-method numeric failure
    for argv in (
        ["ci", "--input", data_csv, "--column", "flow", "--r", "1",
         "--level", "1.5"],
        ["ci", "--input", data_csv, "--column", "flow", "--r", "1",
         "--methods", "AJEL", "--an", "-2"],
        ["test", "--input", data_csv, "--column", "flow", "--r", "1",
         "--null", "0.9", "--alpha", "0"],
        ["test", "--input", data_csv, "--column", "flow", "--r", "1",
         "--null", "inf"],
    ):
        code, _, err = run_main(capsys, *argv)
        assert code == 2 and "error:" in err, argv


def test_skip_note_and_quiet(capsys, tmp_path):
    p = tmp_path / "gappy.csv"
    # a fully blank line is dropped by the csv reader before the loader
    # sees it, so both skips here need visible junk
    p.write_text("x\n1.0\nnot-a-number\nNA\n2.0\n3.0\n4.0\n5.0\n")
    code, _, err = run_main(
        capsys, "estimate", "--input", str(p), "--column", "x",
        "--r", "1", "--method", "dn",
    )
    assert code == 0 and "skipped 2" in err
    code, _, err = run_main(
        capsys, "estimate", "--input", str(p), "--column", "x",
        "--r", "1", "--method", "dn", "--quiet",
    )
    assert code == 0 and err == ""


def test_simulate_writes_reports(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kind = coverage_length\nfamily = exp\nparam = 1\n"
        "r = 1\nn_list = 25\nreps = 12\nmethods = JEL\nseed = 3\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_main(
        capsys, "simulate", "--config", str(cfg), "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.md").exists()
    assert "report.csv" in out and "rows in" in out
    header = (out_dir / "report.csv").read_text().splitlines()[0]
    assert header == "dist,r,n,method,metric,value,stderr"


def test_simulate_seed_and_reps_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kind = coverage_length\nfamily = exp\nparam = 1\n"
        "r = 1\nn_list = 25\nreps = 12\nmethods = JEL\nseed = 3\n"
    )
    outs = {}
    for tag, extra in {
        "base": [],
        "same": [],
        "seed": ["--seed", "4"],
        "reps": ["--reps", "16"],
    }.items():
        d = tmp_path / tag
        code, _, _ = run_main(
            capsys, "simulate", "--config", str(cfg), "--out", str(d),
            "--quiet", *extra,
        )
        assert code == 0
        outs[tag] = (d / "report.csv").read_text()
    assert outs["base"] == outs["same"]
    assert outs["base"] != outs["seed"]
    assert outs["base"] != outs["reps"]


def test_simulate_thread_count_does_not_change_bytes(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kind = size\nfamily = lognormal\nparam = 1\n"
        "r = 1\nn_list = 20\nreps = 16\nmethods = JEL,DNEL\nseed = 6\n"
    )
    texts = []
    for threads in ("1", "2"):
        d = tmp_path / f"t{threads}"
        code, _, _ = run_main(
            capsys, "simulate", "--config", str(cfg), "--out", str(d),
            "--threads", threads, "--quiet",
        )
        assert code == 0
        texts.append((d / "report.csv").read_bytes())
    assert texts[0] == texts[1]


def test_simulate_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = size\nfamily = weibull\nparam = 1\n")
    code, _, err = run_main(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
    )
    assert code == 2 and "weibull" in err
    cfg.write_text("kind = size\nfamily = exp\nparam = abc\n")
    code, _, err = run_main(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
    )
    assert code == 2 and "'param' needs a real number, got 'abc'" in err


def test_simulate_moment_beyond_the_float_range_exits_3(capsys, tmp_path):
    # the true beta_1 of lognormal(80) is about e^3200
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = size\nfamily = lognormal\nparam = 80\nr = 1\nn_list = 25\nreps = 1\n")
    code, _, err = run_main(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert err.startswith("error: ") and "exceeds the float range" in err


def test_simulate_variance_draws_beyond_the_float_range_exit_3(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = variance\nfamily = lognormal\nparam = 1000\nr = 1\nn_list = 25\nreps = 2\n")
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, _, err = run_main(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
        )
    assert code == 3
    assert err == ("error: variance cell dist=lognormal(1000) r=1 n=25: a draw exceeds the "
                   "float range (sample contains non-finite values)\n")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_simulate_thread_count_below_one_exits_2(capsys, tmp_path, monkeypatch, threads):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = size\nfamily = exp\nparam = 1\nr = 1\nn_list = 20\nreps = 8\n")

    def never(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr("pwmjel.simulate.ProcessPoolExecutor", never)
    code, _, err = run_main(capsys, "simulate", "--config", str(cfg), "--out",
                            str(tmp_path / "o"), "--threads", threads)
    assert code == 2
    assert f"threads must be an integer >= 1, got {threads}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["s.csv", "s.csv/o"])
def test_simulate_out_under_a_file_exits_2_before_running(capsys, tmp_path, monkeypatch, out):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = size\nfamily = exp\nparam = 1\nr = 1\nn_list = 20\nreps = 8\n")
    (tmp_path / "s.csv").write_text("x\n1\n")

    def never(*args, **kwargs):
        raise AssertionError("the experiment ran before the output directory was made")

    monkeypatch.setattr("pwmjel.cli.run_experiment", never)
    path = str(tmp_path / out)
    code, _, err = run_main(capsys, "simulate", "--config", str(cfg), "--out", path)
    assert code == 2
    assert f"error: cannot write {path}: " in err


@pytest.mark.parametrize("report", ["report.csv", "report.md"])
def test_simulate_report_that_cannot_be_written_exits_2(capsys, tmp_path, report):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = size\nfamily = exp\nparam = 1\nr = 1\nn_list = 20\nreps = 8\n")
    path = tmp_path / "o" / report
    path.mkdir(parents=True)  # a directory where the report goes
    code, _, err = run_main(capsys, "simulate", "--config", str(cfg), "--out",
                            str(tmp_path / "o"), "--quiet")
    assert code == 2
    assert f"error: cannot write {path}: " in err


def test_ci_and_test_take_the_engines_methods_and_rules():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("ci", "test"):
        sub = commands.choices[command]
        assert sub.get_default("methods") == ",".join(CI_METHODS)
        (rule,) = [a for a in sub._actions if a.dest == "ajel_rule"]
        assert rule.choices is ADJUSTMENT_RULES and rule.default in ADJUSTMENT_RULES


def test_console_script_entry_point(data_csv):
    # one end-to-end subprocess run through the installed script
    proc = subprocess.run(
        [sys.executable, "-m", "pwmjel.cli", "estimate", "--input", data_csv,
         "--column", "flow", "--r", "1", "--method", "ustat"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ustat" in proc.stdout
