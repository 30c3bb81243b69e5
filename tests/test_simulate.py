import csv
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pwmjel import (
    CI_METHODS,
    KINDS,
    DistSpec,
    ExperimentConfig,
    ExperimentReport,
    NumericError,
    PwmError,
    PwmInputError,
    ReportRow,
    adjustment_constant,
    confidence_interval,
    dn_estimate,
    jackknife_pseudo_values,
    make_rng,
    parse_config_file,
    ratio_test,
    run_experiment,
    sample,
    seed_for_rep,
    simulate,
    true_beta,
    vexler_estimate,
    write_report_csv,
    write_report_markdown,
)
from pwmjel.simulate import CSV_HEADER, _Cell, _cell_id, _run_chunk

EXP1 = DistSpec("exponential", 1.0)


def small_config(**over):
    base = dict(
        kind="coverage_length",
        dist=EXP1,
        r_values=(1,),
        n_values=(25,),
        replications=24,
        methods=("JEL", "AJEL"),
        base_seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_seed_for_rep_is_deterministic_and_spread():
    assert seed_for_rep(0, _cell_id(1, 25), 0) == seed_for_rep(0, _cell_id(1, 25), 0)
    # distinct (cell, rep) pairs must not collide over a long scan
    seen = set()
    for rep in range(200_000):
        seen.add(seed_for_rep(0, _cell_id(1, 300), rep))
    assert len(seen) == 200_000
    # adjacent cells stay disjoint
    a = {seed_for_rep(7, _cell_id(1, 25), k) for k in range(50_000)}
    b = {seed_for_rep(7, _cell_id(1, 26), k) for k in range(50_000)}
    assert not (a & b)
    # changing the base seed moves everything
    assert seed_for_rep(1, _cell_id(1, 25), 0) != seed_for_rep(2, _cell_id(1, 25), 0)


def test_seed_for_rep_takes_integers_only():
    # a bool is not a seed coordinate, as it is no count in ExperimentConfig
    for args in ((True, 1, 2), (0, False, 2), (0, 1, True), (0.0, 1, 2), (0, 1, -1)):
        with pytest.raises(PwmInputError):
            seed_for_rep(*args)
    assert seed_for_rep(np.int64(7), np.int32(1), 2) == seed_for_rep(7, 1, 2)


def test_config_takes_integer_base_seeds_only():
    # checked at construction with seed_for_rep's text, not first in a worker
    for seed in (True, 1.0):
        with pytest.raises(PwmInputError, match=f"^base_seed must be an integer, got {seed!r}$"):
            small_config(base_seed=seed)
    assert small_config(base_seed=np.int64(5)).base_seed == 5


def test_config_validation():
    with pytest.raises(PwmInputError):
        small_config(kind="sizes")
    with pytest.raises(PwmInputError):
        small_config(r_values=(0,))
    with pytest.raises(PwmInputError):
        small_config(r_values=(3,), n_values=(4,))  # needs n >= r + 2
    with pytest.raises(PwmInputError):
        small_config(replications=0)
    # counts must be integers, and a bool is not a count; r and n take sequences
    for bad in (dict(replications=2.5), dict(replications=True), dict(r_values=(True,)),
                dict(r_values=(1.0,)), dict(n_values=(30.0,)), dict(n_values=(True,)),
                dict(r_values=1), dict(n_values=30)):
        with pytest.raises(PwmInputError):
            small_config(**bad)
    with pytest.raises(PwmInputError):
        small_config(methods=("JEL", "WALD"))
    with pytest.raises(PwmInputError, match="not the string 'JEL'"):
        small_config(methods="JEL")  # not the methods 'J', 'E' and 'L'
    with pytest.raises(PwmInputError):
        small_config(kind="power")  # power needs null_dist


def test_config_rejects_a_level_or_size_that_is_not_a_number():
    # checked at construction, not met first as a bare TypeError in run_experiment
    for bad in (None, "0.9", True):
        with pytest.raises(PwmInputError, match="confidence level"):
            small_config(level=bad)
        with pytest.raises(PwmInputError, match="test size"):
            small_config(kind="size", alpha=bad)


@pytest.mark.parametrize("field, bad", [("dist", "exponential"), ("dist", None),
                                        ("null_dist", "normal"), ("null_dist", 1.0)])
def test_config_rejects_a_distribution_that_is_not_a_dist_spec(field, bad):
    # checked at construction, not met first as an AttributeError in run_experiment
    with pytest.raises(PwmInputError, match=f"^{field} must be a DistSpec"):
        small_config(kind="size", **{field: bad})


def test_config_rejects_sample_sizes_that_share_seed_streams():
    # the packed cell id collides once n reaches a million
    assert _cell_id(1, 1_000_005) == _cell_id(2, 5)
    with pytest.raises(PwmInputError, match="below 1_000_000"):
        small_config(n_values=(25, 1_000_000))
    with pytest.raises(PwmInputError):
        small_config(r_values=(1, 2), n_values=(1_000_005,))
    assert small_config(n_values=(999_999,)).n_values == (999_999,)


def test_coverage_rows_shape():
    rep = run_experiment(small_config())
    assert rep.config.kind == "coverage_length"
    keys = {(row.method, row.metric) for row in rep.rows}
    assert keys == {
        (m, metric) for m in ("JEL", "AJEL") for metric in ("coverage", "length", "failures")
    }
    for row in rep.rows:
        assert row.dist == "exponential(1)" and row.r == 1 and row.n == 25
        if row.metric == "coverage":
            assert 0.0 <= row.value <= 1.0 and row.stderr > 0
        if row.metric == "length":
            assert row.value > 0


def test_report_rows_hold_no_dict_and_share_the_label():
    # a caller that keeps many reports holds only slots and one label string
    rep = run_experiment(small_config())
    assert not hasattr(rep, "__dict__")
    assert all(not hasattr(row, "__dict__") for row in rep.rows)
    assert all(row.dist is rep.config.dist.label for row in rep.rows)


def test_a_coverage_cell_of_open_intervals_reports_infinite_length():
    # at n = 5 and level 0.95 every centered AJEL interval is the whole line;
    # its spread takes no inf - inf, which would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_experiment(small_config(n_values=(5,), replications=40,
                                          methods=("JEL", "AJEL")))
    got = {(row.method, row.metric): (row.value, row.stderr) for row in rep.rows}
    assert got["AJEL", "coverage"] == (1.0, 0.0)
    value, stderr = got["AJEL", "length"]
    assert value == math.inf and math.isnan(stderr)
    assert got["AJEL", "failures"] == (0.0, None)
    assert math.isfinite(got["JEL", "length"][0])


def test_runs_are_reproducible_and_thread_invariant():
    cfg = small_config(replications=30)
    r1 = run_experiment(cfg, threads=1)
    r2 = run_experiment(cfg, threads=3)
    vals1 = [(w.method, w.metric, w.value, w.stderr) for w in r1.rows]
    vals2 = [(w.method, w.metric, w.value, w.stderr) for w in r2.rows]
    assert vals1 == vals2  # exact equality, not approx


def test_size_experiment_rows():
    cfg = small_config(kind="size", replications=30, methods=("JEL",), n_values=(30,))
    rep = run_experiment(cfg)
    (rate,) = [w.value for w in rep.rows if w.metric == "rejection_rate"]
    assert 0.0 <= rate <= 1.0


def test_power_equals_size_when_null_matches_dist():
    kw = dict(replications=40, methods=("JEL",), n_values=(40,), base_seed=9)
    size_rep = run_experiment(small_config(kind="size", **kw))
    power_rep = run_experiment(
        small_config(kind="power", null_dist=EXP1, **kw)
    )
    srate = [w.value for w in size_rep.rows if w.metric == "rejection_rate"]
    prate = [w.value for w in power_rep.rows if w.metric == "rejection_rate"]
    assert srate == prate


def test_power_detects_a_shifted_null():
    # true beta 0.75 vs hypothesized 0.45: nearly always rejected at n = 60
    cfg = small_config(
        kind="power",
        null_dist=DistSpec("exponential", 0.6),
        replications=40,
        methods=("JEL",),
        n_values=(60,),
    )
    rep = run_experiment(cfg)
    (rate,) = [w.value for w in rep.rows if w.metric == "rejection_rate"]
    assert rate > 0.8


def test_variance_experiment_tracks_oracle():
    # n * Var(jackknife estimate) should sit near sigma^2 = 7/12 by n = 150
    cfg = small_config(
        kind="variance", replications=300, n_values=(150,), methods=CI_METHODS
    )
    rep = run_experiment(cfg)
    jack = [
        w for w in rep.rows if w.method == "JACKKNIFE" and w.metric == "n_var"
    ]
    assert len(jack) == 1
    assert jack[0].value == pytest.approx(7.0 / 12.0, rel=0.25)
    # four estimator columns present
    assert {w.method for w in rep.rows} == {"DN", "VEXLER", "JACKKNIFE", "ADJ_JACKKNIFE"}


def test_boxdata_emits_per_rep_rows_and_reference():
    cfg = small_config(kind="estimator_boxdata", replications=12, n_values=(20,))
    rep = run_experiment(cfg)
    est = [w for w in rep.rows if w.metric == "estimate"]
    assert len(est) == 12 * 4  # one row per replication per estimator
    ref = [w for w in rep.rows if w.method == "REFERENCE"]
    assert len(ref) == 1
    assert ref[0].value == pytest.approx(true_beta(EXP1, 1), rel=1e-12)
    # adjusted estimates shrink toward zero relative to the jackknife column
    jk = sorted(w.value for w in est if w.method == "JACKKNIFE")
    adj = sorted(w.value for w in est if w.method == "ADJ_JACKKNIFE")
    assert all(a < j for a, j in zip(adj, jk))


def test_run_experiment_dispatch():
    metrics = {
        "variance": {"n_var"},
        "coverage_length": {"coverage", "length", "failures"},
        "size": {"rejection_rate", "failures"},
        "power": {"rejection_rate", "failures"},
        "estimator_boxdata": {"estimate", "true_beta"},
    }
    assert KINDS == tuple(simulate._KINDS) == tuple(metrics)
    for kind in KINDS:
        cfg = small_config(kind=kind, replications=10, null_dist=EXP1)
        rep = run_experiment(cfg)
        assert rep.config is cfg and rep.elapsed >= 0.0
        assert {row.metric for row in rep.rows} == metrics[kind]


def test_cell_abort_on_mass_failures():
    # a constant family degenerates every replication, tripping the 1% rule
    cfg = ExperimentConfig(
        kind="coverage_length",
        dist=DistSpec("constant", 2.0),
        r_values=(1,),
        n_values=(25,),
        replications=20,
        methods=("JEL",),
    )
    with pytest.raises(NumericError) as err:
        run_experiment(cfg)
    msg = str(err.value)
    assert "constant(2)" in msg and "n=25" in msg


def test_cell_abort_on_a_pool_cancels_the_later_cells(monkeypatch):
    shutdowns = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shutdowns.append(kwargs)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    # the failing cell is the first of four, whose chunks all go in at once
    cfg = ExperimentConfig(kind="coverage_length", dist=DistSpec("constant", 2.0),
                           r_values=(1,), n_values=(25, 30, 40, 60), replications=20,
                           methods=("JEL",))
    messages = []
    for threads in (1, 2):
        with pytest.raises(NumericError) as err:
            run_experiment(cfg, threads=threads)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "n=25" in messages[0]
    assert shutdowns == [{"cancel_futures": True}]


@pytest.mark.parametrize("threads", [0, -1, True, 2.5])
def test_a_thread_count_that_is_not_a_positive_integer_is_refused(monkeypatch, threads):
    def never(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", never)
    with pytest.raises(PwmInputError, match="threads must be an integer >= 1"):
        run_experiment(small_config(), threads=threads)


def _one_at_a_time(cell, samples):
    """Coverage and test records from one confidence_interval / ratio_test
    call per replication and method, a failure as the failure tuple."""
    cis, tests = [], []
    for x in samples:
        ci_row, test_row = [], []
        for method in cell.config.methods:
            try:
                ci = confidence_interval(x, cell.r, cell.config.level, method)
                ci_row += [1.0 if ci.contains(cell.beta) else 0.0, ci.length, 0.0]
            except PwmError:
                ci_row += [0.0, math.nan, 1.0]
            try:
                res = ratio_test(x, cell.r, cell.beta, cell.config.alpha, method)
                test_row += [1.0 if res.reject else 0.0, 0.0]
            except PwmError:
                test_row += [0.0, 1.0]
        cis.append(ci_row)
        tests.append(test_row)
    return np.array(cis), np.array(tests)


def test_lockstep_records_equal_one_call_per_replication():
    cfg = small_config(methods=CI_METHODS, n_values=(30,))
    cell = _Cell(cfg, 1, 30, true_beta(EXP1, 1), 0, 0)
    samples = [sample(EXP1, 30, make_rng(seed_for_rep(5, _cell_id(1, 30), i)))
               for i in range(12)]
    samples[4] = np.full(30, 2.0)  # constant pseudo-values: JEL and AJEL fail
    ci_records = np.array(simulate._ci_records(cell, samples))
    test_records = np.array(simulate._test_records(cell, samples))
    want_ci, want_test = _one_at_a_time(cell, samples)
    assert np.array_equal(ci_records, want_ci, equal_nan=True)
    assert np.array_equal(test_records, want_test)
    failed = [float(m in ("JEL", "AJEL")) for m in CI_METHODS]
    assert ci_records[4, 2::3].tolist() == test_records[4, 1::2].tolist() == failed
    assert not ci_records[np.arange(12) != 4, 2::3].any()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_estimate_records_equal_the_per_sample_estimators(r):
    for n in (r + 2, 7, 64, 300, 3000):
        cfg = small_config(kind="variance", r_values=(r,), n_values=(n,))
        cell = _Cell(cfg, r, n, None, 0, 0)
        samples = [sample(DistSpec(family, 1.0), n, make_rng(60 + k))
                   for k, family in enumerate(("exponential", "lognormal", "normal"))]
        samples[2][[0, -1]] = [-0.0, 0.0]
        a = adjustment_constant(n)
        want = []
        for x in samples:
            jack = float(np.mean(jackknife_pseudo_values(x, r).values))
            want.append((dn_estimate(x, r), vexler_estimate(x, r), jack,
                         jack * (n - a) / (n + 1.0)))
        got = simulate._estimates_records(cell, samples)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("kind", ["coverage_length", "size", "variance"])
def test_chunk_records_do_not_depend_on_chunking(kind):
    cfg = small_config(kind=kind, methods=CI_METHODS, n_values=(20,))
    cell = _Cell(cfg, 1, 20, true_beta(EXP1, 1), 0, 0)
    whole = _run_chunk(replace(cell, rep_lo=0, rep_hi=37))
    parts = [rec for lo, hi in ((0, 1), (1, 6), (6, 37))
             for rec in _run_chunk(replace(cell, rep_lo=lo, rep_hi=hi))]
    assert len(whole) == 37
    assert np.array_equal(np.array(whole), np.array(parts), equal_nan=True)
    # a block taller than _BLOCK
    longer = _run_chunk(replace(cell, rep_lo=0, rep_hi=simulate._BLOCK + 9))
    assert np.array_equal(np.array(longer[:37]), np.array(whole), equal_nan=True)


def test_csv_writer_roundtrip(tmp_path):
    rep = run_experiment(small_config(replications=10))
    out = tmp_path / "report.csv"
    write_report_csv(rep, out)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(rep.rows)
    # full-precision floats survive the trip
    for parsed, row in zip(rows, rep.rows):
        assert float(parsed["value"]) == row.value
        if parsed["stderr"]:
            assert float(parsed["stderr"]) == row.stderr
    # and the value column loads through the analysis reader
    from pwmjel import load_csv_column

    data = load_csv_column(out, "value")
    assert data.values.size == len(rep.rows)


def test_markdown_writer(tmp_path):
    rep = run_experiment(small_config(replications=10))
    out = tmp_path / "report.md"
    write_report_markdown(rep, out)
    text = out.read_text()
    assert "## coverage" in text and "## length" in text
    assert "exponential(1)" in text
    assert "seed: 5" in text


def test_markdown_tables_of_a_hand_built_report(tmp_path):
    rows = [ReportRow("d", 1, 20, "A", "coverage", 0.9, 0.03),
            ReportRow("d", 1, 10, "B", "coverage", 0.25, None),
            ReportRow("d", 1, 10, "A", "coverage", 0.95, 0.02),
            ReportRow("d", 1, 20, "B", "estimate", 2.0, None),
            ReportRow("d", 1, 10, "B", "estimate", 1.0, None),
            ReportRow("d", 1, 10, "B", "estimate", 4.0, None),
            ReportRow("d", 1, 10, "A", "estimate", 3.0, None)]
    write_report_markdown(ExperimentReport(rows, small_config(), 0.0), tmp_path / "report.md")
    tables = (tmp_path / "report.md").read_text().split("\n\n", 2)[2]
    # a missing (cell, method) is a blank pivot entry; the per-replication
    # metric sorts its cells and gives one value an sd of 0
    assert tables == (
        "## coverage\n\n"
        "| dist | r | n | A | B |\n| --- | --- | --- | --- | --- |\n"
        "| d | 1 | 20 | 0.9000 (0.0300) |  |\n"
        "| d | 1 | 10 | 0.9500 (0.0200) | 0.2500 |\n\n"
        "## estimate\n\n"
        "| dist | r | n | method | count | mean | sd | min | median | max |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| d | 1 | 10 | B | 2 | 2.5000 | 2.1213 | 1.0000 | 2.5000 | 4.0000 |\n"
        "| d | 1 | 10 | A | 1 | 3.0000 | 0.0000 | 3.0000 | 3.0000 | 3.0000 |\n"
        "| d | 1 | 20 | B | 1 | 2.0000 | 0.0000 | 2.0000 | 2.0000 | 2.0000 |\n")


def test_markdown_writer_reads_the_rows_once(tmp_path):
    class Rows(list):
        passes = 0

        def __iter__(self):
            Rows.passes += 1
            return super().__iter__()

    rep = run_experiment(small_config(kind="estimator_boxdata", replications=5, r_values=(1, 2)))
    write_report_markdown(replace(rep, rows=Rows(rep.rows)), tmp_path / "report.md")
    assert Rows.passes == 1


def test_a_variance_run_whose_draws_overflow_names_the_cell():
    config = small_config(kind="variance", dist=DistSpec("lognormal", 1000.0), replications=3)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericError) as info:
        run_experiment(config)
    assert str(info.value) == ("variance cell dist=lognormal(1000) r=1 n=25: a draw exceeds "
                               "the float range (sample contains non-finite values)")
    assert isinstance(info.value.__cause__, PwmInputError)


def test_markdown_names_the_null_only_where_it_is_used(tmp_path):
    null = DistSpec("exponential", 0.6)
    for kind, shown in (("coverage_length", False), ("variance", False), ("power", True)):
        rep = run_experiment(small_config(kind=kind, replications=4, null_dist=null))
        write_report_markdown(rep, tmp_path / "report.md")
        text = (tmp_path / "report.md").read_text()
        assert ("- null distribution: exponential(0.6)" in text) == shown


def test_parse_config_file_full(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "kind = power\n"
        "family = logn\n"
        "param = 1.5\n"
        "r = 1, 2\n"
        "n_list = 25, 50\n"
        "reps = 100\n"
        "level = 0.9\n"
        "alpha = 0.1\n"
        "methods = JEL, DNEL\n"
        "seed = 42\n"
        "null_family = lognormal\n"
        "null_param = 1.0\n"
    )
    cfg = parse_config_file(p)
    assert cfg.kind == "power"
    assert cfg.dist == DistSpec("lognormal", 1.5)
    assert cfg.null_dist == DistSpec("lognormal", 1.0)
    assert cfg.r_values == (1, 2) and cfg.n_values == (25, 50)
    assert cfg.replications == 100 and cfg.base_seed == 42
    assert cfg.level == 0.9 and cfg.alpha == 0.1
    assert cfg.methods == ("JEL", "DNEL")


def test_parse_config_defaults(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("kind = size\nfamily = exponential\nparam = 1\n")
    cfg = parse_config_file(p)
    assert cfg.r_values == (1,)
    assert cfg.n_values == (25, 50, 100, 200, 300)
    assert cfg.replications == 2000
    assert cfg.level == 0.95 and cfg.alpha == 0.05
    assert cfg.methods == CI_METHODS and cfg.base_seed == 0


def test_parse_config_errors(tmp_path):
    cases = [
        ("kind = size\nfamily = exp\nparam = 1\nfoo = 2\n", "unknown config keys"),
        ("kind = size\nfamily = exp\n", "required"),
        ("kind = size\nfamily = exp\nparam = 1\nparam = 2\n", "duplicate"),
        ("kind = size\nfamily = weibull\nparam = 1\n", "unknown family"),
        ("kind = size\nfamily = exp\nparam = 1\nreps = ten\n", "integer"),
        ("kind = size\nfamily = exp\nparam = abc\n", "'param' needs a real number"),
        ("kind = power\nfamily = exp\nparam = 1\nnull_family = exp\nnull_param = x\n",
         "'null_param' needs a real number"),
        ("kind = power\nfamily = exp\nparam = 1\nnull_family = exp\n", "'null_param'.*required"),
        ("kind size\n", "key = value"),
    ]
    for body, needle in cases:
        p = tmp_path / "bad.cfg"
        p.write_text(body)
        with pytest.raises(PwmInputError, match=needle):
            parse_config_file(p)
    with pytest.raises(PwmInputError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_family_aliases(tmp_path):
    for alias in ("exp", "exponential", "EXP"):
        p = tmp_path / "a.cfg"
        p.write_text(f"kind = size\nfamily = {alias}\nparam = 2\n")
        assert parse_config_file(p).dist.family == "exponential"


@pytest.mark.parametrize("kind, reps, pools", [
    ("size", 8, 1), ("coverage_length", 8, 1), ("variance", 8, 1), ("size", 7, 0),
    ("power", 8, 1), ("estimator_boxdata", 8, 1),
])
def test_one_worker_pool_per_run(monkeypatch, kind, reps, pools):
    opened = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    cfg = small_config(kind=kind, r_values=(1, 2), n_values=(20, 30), replications=reps,
                       null_dist=DistSpec("exponential", 0.6) if kind == "power" else None)
    rows = run_experiment(cfg, threads=2).rows
    assert opened == [2] * pools
    assert rows == run_experiment(cfg, threads=1).rows


@pytest.mark.parametrize("kind", ["size", "coverage_length"])
def test_every_cells_chunks_go_to_the_pool_in_one_map(monkeypatch, kind):
    maps = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def map(self, fn, chunks, **kwargs):
            chunks = list(chunks)
            maps.append([(c.r, c.n, c.rep_hi - c.rep_lo) for c in chunks])
            return super().map(fn, chunks, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    cfg = small_config(kind=kind, r_values=(1, 2), n_values=(20, 40), replications=150)
    rows = run_experiment(cfg, threads=1).rows
    cells = [(r, n) for r in (1, 2) for n in (20, 40)]
    for threads, sizes in ((2, (64, 64, 22)), (3, (50, 50, 50))):
        maps.clear()
        assert run_experiment(cfg, threads=threads).rows == rows
        assert maps == [[(r, n, size) for r, n in cells for size in sizes]]
        assert max(size for *_, size in maps[0]) <= simulate._BLOCK


def test_an_inline_run_runs_each_cell_in_blocks(monkeypatch):
    chunks = []
    run_chunk = simulate._run_chunk

    def recording(cell):
        chunks.append((cell.r, cell.n, cell.rep_hi - cell.rep_lo))
        return run_chunk(cell)

    monkeypatch.setattr(simulate, "_run_chunk", recording)
    cfg = small_config(kind="variance", r_values=(1, 2), n_values=(20, 40), replications=150)
    run_experiment(cfg, threads=1)
    assert chunks == [(r, n, size) for r in (1, 2) for n in (20, 40) for size in (64, 64, 22)]
