"""Seeded Monte Carlo harness.

Five experiment kinds over a grid of moment orders and sample sizes:

* ``variance``          -- n * Var of the four point estimators,
* ``coverage_length``   -- coverage and mean length of the CI methods,
* ``size``              -- rejection rate when the null distribution holds,
* ``power``             -- rejection rate under an alternative,
* ``estimator_boxdata`` -- per-replication estimates for external box plots.

Determinism contract: every replication derives its own generator from
``seed_for_rep(base_seed, cell_id, rep_index)``, per-replication results
are stored by replication index, and aggregation runs in index order.
The written CSV is therefore byte-identical for a given (config, seed)
regardless of how many worker processes computed it.

Configs can be read from a flat key-value file, one ``key = value`` pair
per line with ``#`` comments.  Keys: family, param, r, n_list, reps,
level, alpha, methods, seed, kind, null_family, null_param.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .distributions import DistSpec, make_rng, sample, true_beta
from .errors import NumericError, PwmError, PwmInputError
from .estimators import (
    SortedSample,
    dn_estimate,
    jackknife_pseudo_values,
    vexler_estimate,
)
from .inference import (
    CI_METHODS,
    adjustment_constant,
    check_options,
    confidence_interval,
    ratio_test,
)

__all__ = [
    "KINDS",
    "ESTIMATOR_METHODS",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "seed_for_rep",
    "run_experiment",
    "run_variance_experiment",
    "run_coverage_experiment",
    "run_size_experiment",
    "run_power_experiment",
    "run_estimator_boxdata",
    "parse_config_file",
    "write_report_csv",
    "write_report_markdown",
]

KINDS = ("variance", "coverage_length", "size", "power", "estimator_boxdata")
ESTIMATOR_METHODS = ("DN", "VEXLER", "JACKKNIFE", "ADJ_JACKKNIFE")

CSV_HEADER = "dist,r,n,method,metric,value,stderr"

# A cell aborts once failures exceed this fraction of its replications.
_MAX_FAILURE_RATE = 0.01

_FAMILY_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "norm": "normal",
    "normal": "normal",
    "gaussian": "normal",
    "logn": "lognormal",
    "lognorm": "lognormal",
    "lognormal": "lognormal",
    "const": "constant",
    "constant": "constant",
}


# _cell_id packs (r, n) as r * _MAX_N + n, so sample sizes stay below _MAX_N
# for each cell to own its seed stream.
_MAX_N = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    dist: DistSpec
    r_values: tuple[int, ...]
    n_values: tuple[int, ...]
    replications: int
    level: float = 0.95
    alpha: float = 0.05
    methods: tuple[str, ...] = CI_METHODS
    base_seed: int = 0
    null_dist: DistSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PwmInputError(f"unknown experiment kind {self.kind!r}; expected {KINDS}")
        if not self.r_values or any(
            (not isinstance(r, (int, np.integer))) or r < 1 for r in self.r_values
        ):
            raise PwmInputError("r_values must be integers >= 1")
        if not self.n_values or any(
            (not isinstance(n, (int, np.integer))) or n < max(self.r_values) + 2
            for n in self.n_values
        ):
            raise PwmInputError("every n must be at least max(r) + 2")
        if max(self.n_values) >= _MAX_N:
            raise PwmInputError(f"every n must be below {_MAX_N:_}")
        if self.replications < 1:
            raise PwmInputError("replications must be positive")
        check_options(self.methods, level=self.level, alpha=self.alpha)
        if self.kind == "power" and self.null_dist is None:
            raise PwmInputError("power experiments need a null distribution")


@dataclass(frozen=True)
class ReportRow:
    dist: str
    r: int
    n: int
    method: str
    metric: str
    value: float
    stderr: float | None


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    config: ExperimentConfig
    elapsed: float


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def seed_for_rep(base_seed: int, cell_id: int, rep_index: int) -> int:
    """Derived 64-bit seed for one replication of one design cell.

    SplitMix64-style avalanche chaining, so any change in any coordinate
    scrambles the output; each replication then owns an independent
    generator stream regardless of scheduling.
    """
    for name, v in (("base_seed", base_seed), ("cell_id", cell_id), ("rep_index", rep_index)):
        if not isinstance(v, (int, np.integer)):
            raise PwmInputError(f"{name} must be an integer, got {v!r}")
    if cell_id < 0 or rep_index < 0:
        raise PwmInputError("cell_id and rep_index must be non-negative")
    h = _mix64(int(base_seed) + _GOLDEN)
    h = _mix64(h ^ (int(cell_id) + _GOLDEN))
    h = _mix64(h ^ (int(rep_index) + _GOLDEN))
    return h


def _cell_id(r: int, n: int) -> int:
    return int(r) * _MAX_N + int(n)


@dataclass(frozen=True)
class _CellTask:
    """Self-contained description of a chunk of replications (picklable)."""

    kind: str
    dist: DistSpec
    r: int
    n: int
    level: float
    alpha: float
    methods: tuple[str, ...]
    beta0: float | None
    base_seed: int
    cell_id: int
    rep_lo: int
    rep_hi: int


def _estimates_record(x: np.ndarray, r: int, n: int) -> tuple:
    s = SortedSample.from_data(x)
    pv = jackknife_pseudo_values(s, r)
    jack = float(np.mean(pv.values))
    a = adjustment_constant(n)
    adj = jack * (n - a) / (n + 1.0)  # mean of the literally augmented set
    return (dn_estimate(s, r), vexler_estimate(s, r), jack, adj)


def _ci_record(x: np.ndarray, task: _CellTask, beta_true: float) -> tuple:
    s = SortedSample.from_data(x)
    out = []
    for method in task.methods:
        try:
            ci = confidence_interval(s, task.r, task.level, method)
            out.extend((1.0 if ci.contains(beta_true) else 0.0, ci.length, 0.0))
        except PwmError:
            out.extend((0.0, math.nan, 1.0))
    return tuple(out)


def _test_record(x: np.ndarray, task: _CellTask) -> tuple:
    s = SortedSample.from_data(x)
    out = []
    for method in task.methods:
        try:
            res = ratio_test(s, task.r, task.beta0, task.alpha, method)
            out.extend((1.0 if res.reject else 0.0, 0.0))
        except PwmError:
            out.extend((0.0, 1.0))
    return tuple(out)


def _one_record(task: _CellTask, rep_index: int) -> tuple:
    rng = make_rng(seed_for_rep(task.base_seed, task.cell_id, rep_index))
    x = sample(task.dist, task.n, rng)
    if task.kind in ("variance", "estimator_boxdata"):
        return _estimates_record(x, task.r, task.n)
    if task.kind == "coverage_length":
        return _ci_record(x, task, task.beta0)
    return _test_record(x, task)


def _run_chunk(task: _CellTask) -> list[tuple]:
    return [_one_record(task, i) for i in range(task.rep_lo, task.rep_hi)]


@contextmanager
def _cell_runner(threads: int, reps: int):
    """Yield ``records(task)``: all per-replication records of one cell, in
    replication order.

    With ``threads > 1`` and at least 8 replications per cell, every cell of
    the run goes to one process pool, opened here and closed with the run;
    each cell is cut into about ``4 * threads`` chunks.
    """
    if threads <= 1 or reps < 8:
        yield lambda task: _run_chunk(replace(task, rep_lo=0, rep_hi=reps))
        return
    chunk = max(1, math.ceil(reps / (threads * 4)))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        def records(task: _CellTask) -> list[tuple]:
            tasks = [replace(task, rep_lo=lo, rep_hi=min(lo + chunk, reps))
                     for lo in range(0, reps, chunk)]
            return [rec for part in pool.map(_run_chunk, tasks) for rec in part]

        yield records


def _proportion_stderr(p: float, reps: int) -> float:
    return math.sqrt(p * (1.0 - p) / reps)


def _variance_stderr(values: np.ndarray) -> float:
    """Large-sample standard error of the sample variance."""
    k = values.size
    s2 = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - values.mean()) ** 4))
    inner = m4 - s2 * s2 * (k - 3.0) / (k - 1.0)
    return math.sqrt(max(inner, 0.0) / k)


def _check_failures(kind: str, label: str, r: int, n: int, method: str,
                    failures: int, reps: int) -> None:
    if failures > _MAX_FAILURE_RATE * reps:
        raise NumericError(
            f"{kind} cell dist={label} r={r} n={n} method={method}: "
            f"{failures}/{reps} replications failed, above the "
            f"{_MAX_FAILURE_RATE:.0%} abort threshold"
        )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Dispatch on ``config.kind``; see the per-kind functions."""
    runner = {
        "variance": run_variance_experiment,
        "coverage_length": run_coverage_experiment,
        "size": run_size_experiment,
        "power": run_power_experiment,
        "estimator_boxdata": run_estimator_boxdata,
    }[config.kind]
    return runner(config, threads=threads)


def _require_kind(config: ExperimentConfig, kind: str) -> None:
    if config.kind != kind:
        raise PwmInputError(f"config kind is {config.kind!r}, expected {kind!r}")


def _estimator_rows(config: ExperimentConfig, threads: int, per_rep: bool) -> list[ReportRow]:
    label = config.dist.label
    reps = config.replications
    rows: list[ReportRow] = []
    with _cell_runner(threads, reps) as cell_records:
        for r in config.r_values:
            for n in config.n_values:
                task = _CellTask(config.kind, config.dist, r, n, config.level,
                                 config.alpha, config.methods, None,
                                 config.base_seed, _cell_id(r, n), 0, 0)
                records = np.asarray(cell_records(task))
                for j, method in enumerate(ESTIMATOR_METHODS):
                    col = records[:, j]
                    if per_rep:
                        rows.extend(
                            ReportRow(label, r, n, method, "estimate", float(v), None)
                            for v in col
                        )
                    else:
                        value = n * float(np.var(col, ddof=1)) if reps > 1 else 0.0
                        se = n * _variance_stderr(col) if reps > 1 else 0.0
                        rows.append(ReportRow(label, r, n, method, "n_var", value, se))
                if per_rep:
                    ref = true_beta(config.dist, r)
                    rows.append(ReportRow(label, r, n, "REFERENCE", "true_beta", ref, None))
    return rows


def run_variance_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """n * Var over replications of each point estimator.

    Estimators are fixed (DN, VEXLER, JACKKNIFE, ADJ_JACKKNIFE); the
    configured method list does not apply here.
    """
    _require_kind(config, "variance")
    t0 = time.perf_counter()
    rows = _estimator_rows(config, threads, per_rep=False)
    return ExperimentReport(rows, config, time.perf_counter() - t0)


def run_estimator_boxdata(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Per-replication estimates of the four estimators plus the true value."""
    _require_kind(config, "estimator_boxdata")
    t0 = time.perf_counter()
    rows = _estimator_rows(config, threads, per_rep=True)
    return ExperimentReport(rows, config, time.perf_counter() - t0)


def run_coverage_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Coverage of the true moment and mean interval length per method."""
    _require_kind(config, "coverage_length")
    t0 = time.perf_counter()
    label = config.dist.label
    reps = config.replications
    rows: list[ReportRow] = []
    with _cell_runner(threads, reps) as cell_records:
        for r in config.r_values:
            beta_true = true_beta(config.dist, r)
            for n in config.n_values:
                task = _CellTask(config.kind, config.dist, r, n, config.level,
                                 config.alpha, config.methods, beta_true,
                                 config.base_seed, _cell_id(r, n), 0, 0)
                records = np.asarray(cell_records(task))
                for j, method in enumerate(config.methods):
                    covered = records[:, 3 * j]
                    lengths = records[:, 3 * j + 1]
                    failed = records[:, 3 * j + 2]
                    n_fail = int(failed.sum())
                    _check_failures(config.kind, label, r, n, method, n_fail, reps)
                    p = float(covered.mean())
                    rows.append(ReportRow(label, r, n, method, "coverage", p,
                                          _proportion_stderr(p, reps)))
                    ok = lengths[failed == 0.0]
                    mean_len = float(ok.mean())
                    se_len = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
                    rows.append(ReportRow(label, r, n, method, "length", mean_len, se_len))
                    rows.append(ReportRow(label, r, n, method, "failures", float(n_fail), None))
    return ExperimentReport(rows, config, time.perf_counter() - t0)


def _rejection_experiment(config: ExperimentConfig, threads: int, kind: str) -> ExperimentReport:
    _require_kind(config, kind)
    t0 = time.perf_counter()
    label = config.dist.label
    reps = config.replications
    null_dist = config.null_dist if config.null_dist is not None else config.dist
    rows: list[ReportRow] = []
    with _cell_runner(threads, reps) as cell_records:
        for r in config.r_values:
            beta0 = true_beta(null_dist, r)
            for n in config.n_values:
                task = _CellTask(config.kind, config.dist, r, n, config.level,
                                 config.alpha, config.methods, beta0,
                                 config.base_seed, _cell_id(r, n), 0, 0)
                records = np.asarray(cell_records(task))
                for j, method in enumerate(config.methods):
                    rejected = records[:, 2 * j]
                    failed = records[:, 2 * j + 1]
                    n_fail = int(failed.sum())
                    _check_failures(kind, label, r, n, method, n_fail, reps)
                    p = float(rejected.mean())
                    rows.append(ReportRow(label, r, n, method, "rejection_rate", p,
                                          _proportion_stderr(p, reps)))
                    rows.append(ReportRow(label, r, n, method, "failures", float(n_fail), None))
    return ExperimentReport(rows, config, time.perf_counter() - t0)


def run_size_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Rejection rate with the null value taken from the sampling
    distribution itself (or an explicit null_dist when provided)."""
    return _rejection_experiment(config, threads, "size")


def run_power_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Rejection rate when data come from the alternative and the null
    value comes from ``null_dist``."""
    return _rejection_experiment(config, threads, "power")


# ---------------------------------------------------------------------------
# config files


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise PwmInputError(f"config key {key!r} needs comma-separated integers, got {text!r}")


def parse_config_file(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a flat ``key = value`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise PwmInputError(f"cannot read config file {path}: {exc}") from exc

    entries: dict[str, str] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise PwmInputError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise PwmInputError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value

    known = {"family", "param", "r", "n_list", "reps", "level", "alpha",
             "methods", "seed", "kind", "null_family", "null_param"}
    unknown = sorted(set(entries) - known)
    if unknown:
        raise PwmInputError(f"unknown config keys {unknown}; expected subset of {sorted(known)}")

    def need(key):
        if key not in entries:
            raise PwmInputError(f"config key {key!r} is required")
        return entries[key]

    def family_of(name, key):
        fam = _FAMILY_ALIASES.get(name.lower())
        if fam is None:
            raise PwmInputError(f"config key {key!r}: unknown family {name!r}")
        return fam

    def as_float(key, default=None):
        if key not in entries:
            return default
        try:
            return float(entries[key])
        except ValueError:
            raise PwmInputError(f"config key {key!r} needs a real number, got {entries[key]!r}")

    def as_int(key, default=None):
        if key not in entries:
            return default
        try:
            return int(entries[key])
        except ValueError:
            raise PwmInputError(f"config key {key!r} needs an integer, got {entries[key]!r}")

    dist = DistSpec(family_of(need("family"), "family"), float(need("param")))
    null_dist = None
    if "null_family" in entries or "null_param" in entries:
        null_dist = DistSpec(
            family_of(need("null_family"), "null_family"), float(need("null_param"))
        )

    methods = CI_METHODS
    if "methods" in entries:
        methods = tuple(tok.strip().upper() for tok in entries["methods"].split(",") if tok.strip())

    return ExperimentConfig(
        kind=need("kind"),
        dist=dist,
        r_values=_parse_int_list(entries["r"], "r") if "r" in entries else (1,),
        n_values=_parse_int_list(entries["n_list"], "n_list")
        if "n_list" in entries else (25, 50, 100, 200, 300),
        replications=as_int("reps", 2000),
        level=as_float("level", 0.95),
        alpha=as_float("alpha", 0.05),
        methods=methods,
        base_seed=as_int("seed", 0),
        null_dist=null_dist,
    )


# ---------------------------------------------------------------------------
# report writers


def _fmt_value(v: float) -> str:
    return repr(float(v))


def write_report_csv(report: ExperimentReport, path) -> None:
    """Write rows under the fixed header; full float precision."""
    lines = [CSV_HEADER]
    for row in report.rows:
        stderr = "" if row.stderr is None else _fmt_value(row.stderr)
        lines.append(
            f"{row.dist},{row.r},{row.n},{row.method},{row.metric},"
            f"{_fmt_value(row.value)},{stderr}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _md_table(header: list[str], body: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(header) + " |",
           "| " + " | ".join("---" for _ in header) + " |"]
    out.extend("| " + " | ".join(cells) + " |" for cells in body)
    return out


def write_report_markdown(report: ExperimentReport, path) -> None:
    """Companion human-readable tables, one per metric, values to 4 places."""
    cfg = report.config
    lines = [
        f"# {cfg.kind} report",
        "",
        f"- distribution: {cfg.dist.label}",
        f"- replications: {cfg.replications}",
        f"- seed: {cfg.base_seed}",
        f"- level: {cfg.level:g}, alpha: {cfg.alpha:g}",
    ]
    if cfg.null_dist is not None:
        lines.insert(3, f"- null distribution: {cfg.null_dist.label}")

    metrics = []
    for row in report.rows:
        if row.metric not in metrics:
            metrics.append(row.metric)

    for metric in metrics:
        rows = [r for r in report.rows if r.metric == metric]
        lines.extend(["", f"## {metric}", ""])
        methods = []
        for r in rows:
            if r.method not in methods:
                methods.append(r.method)
        multi = len(rows) > len({(r.dist, r.r, r.n, r.method) for r in rows})
        if multi:
            # per-replication metric: summarize instead of dumping every row
            header = ["dist", "r", "n", "method", "count", "mean", "sd", "min", "median", "max"]
            body = []
            for (d, rr, nn) in sorted({(r.dist, r.r, r.n) for r in rows}):
                for method in methods:
                    vals = np.array([r.value for r in rows
                                     if (r.dist, r.r, r.n, r.method) == (d, rr, nn, method)])
                    if vals.size == 0:
                        continue
                    body.append([
                        d, str(rr), str(nn), method, str(vals.size),
                        f"{vals.mean():.4f}",
                        f"{vals.std(ddof=1):.4f}" if vals.size > 1 else "0.0000",
                        f"{vals.min():.4f}",
                        f"{float(np.median(vals)):.4f}",
                        f"{vals.max():.4f}",
                    ])
            lines.extend(_md_table(header, body))
        else:
            header = ["dist", "r", "n"] + list(methods)
            body = []
            keys = []
            for r in rows:
                k = (r.dist, r.r, r.n)
                if k not in keys:
                    keys.append(k)
            cell = {(r.dist, r.r, r.n, r.method): r for r in rows}
            for (d, rr, nn) in keys:
                line = [d, str(rr), str(nn)]
                for method in methods:
                    row = cell.get((d, rr, nn, method))
                    if row is None:
                        line.append("")
                    elif row.stderr is None:
                        line.append(f"{row.value:.4f}")
                    else:
                        line.append(f"{row.value:.4f} ({row.stderr:.4f})")
                body.append(line)
            lines.extend(_md_table(header, body))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
