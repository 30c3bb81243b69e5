"""Seeded Monte Carlo harness.

Five experiment kinds over a grid of moment orders and sample sizes:

* ``variance``          -- n * Var of the four point estimators,
* ``coverage_length``   -- coverage and mean length of the CI methods,
* ``size``              -- rejection rate when the null distribution holds,
* ``power``             -- rejection rate under an alternative,
* ``estimator_boxdata`` -- per-replication estimates for external box plots.

Each kind is one entry of the kind table ``_KINDS``: the record every
replication yields and the report rows a cell's records fold into.
:func:`run_experiment` runs any kind through one loop over the cells.

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
from typing import Callable

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
    confidence_intervals,
    ratio_tests,
)

__all__ = [
    "KINDS",
    "ESTIMATOR_METHODS",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "seed_for_rep",
    "run_experiment",
    "parse_config_file",
    "write_report_csv",
    "write_report_markdown",
]

ESTIMATOR_METHODS = ("DN", "VEXLER", "JACKKNIFE", "ADJ_JACKKNIFE")

CSV_HEADER = "dist,r,n,method,metric,value,stderr"

# A cell aborts once failures exceed this fraction of its replications.
_MAX_FAILURE_RATE = 0.01

# Replications whose inference runs in lockstep, one batched EL solve per
# search step; it bounds a block's working memory to O(_BLOCK * n).
_BLOCK = 64

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


def _is_int(value) -> bool:
    """True for Python and NumPy integers; False for bools, which are ints too."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _ints_at_least(values, least: int) -> bool:
    """True for a non-empty sequence of integers >= ``least``."""
    try:
        values = tuple(values)
    except TypeError:  # a scalar
        return False
    return bool(values) and all(_is_int(v) and v >= least for v in values)


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
        if not _ints_at_least(self.r_values, 1):
            raise PwmInputError("r_values must be integers >= 1")
        if not _ints_at_least(self.n_values, max(self.r_values) + 2):
            raise PwmInputError("every n must be at least max(r) + 2")
        if max(self.n_values) >= _MAX_N:
            raise PwmInputError(f"every n must be below {_MAX_N:_}")
        if not _is_int(self.replications) or self.replications < 1:
            raise PwmInputError("replications must be a positive integer")
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
class _Cell:
    """One design cell, or a chunk ``[rep_lo, rep_hi)`` of its replications
    (picklable).  ``beta`` is the true moment its kind needs, else None."""

    config: ExperimentConfig
    r: int
    n: int
    beta: float | None
    rep_lo: int
    rep_hi: int

    def row(self, method: str, metric: str, value: float,
            stderr: float | None = None) -> ReportRow:
        return ReportRow(self.config.dist.label, self.r, self.n, method, metric,
                         value, stderr)


def _estimates_record(cell: _Cell, x: np.ndarray) -> tuple:
    s = SortedSample.from_data(x)
    pv = jackknife_pseudo_values(s, cell.r)
    jack = float(np.mean(pv.values))
    a = adjustment_constant(cell.n)
    adj = jack * (cell.n - a) / (cell.n + 1.0)  # mean of the literally augmented set
    return (dn_estimate(s, cell.r), vexler_estimate(s, cell.r), jack, adj)


def _estimates_records(cell: _Cell, samples: list[np.ndarray]) -> list[tuple]:
    return [_estimates_record(cell, x) for x in samples]


def _ci_records(cell: _Cell, samples: list[np.ndarray]) -> list[tuple]:
    config = cell.config
    rows = confidence_intervals(samples, cell.r, config.level, config.methods)
    return [tuple(v for ci in row for v in _ci_fields(ci, cell.beta)) for row in rows]


def _ci_fields(ci, beta: float) -> tuple:
    """Covered, length, failed; a failed interval neither covers nor has a length."""
    if isinstance(ci, PwmError):
        return (0.0, math.nan, 1.0)
    return (1.0 if ci.contains(beta) else 0.0, ci.length, 0.0)


def _test_records(cell: _Cell, samples: list[np.ndarray]) -> list[tuple]:
    config = cell.config
    rows = ratio_tests(samples, cell.r, cell.beta, config.alpha, config.methods)
    return [tuple(v for res in row for v in _test_fields(res)) for row in rows]


def _test_fields(res) -> tuple:
    """Rejected, failed."""
    if isinstance(res, PwmError):
        return (0.0, 1.0)
    return (1.0 if res.reject else 0.0, 0.0)


def _proportion_stderr(p: float, reps: int) -> float:
    return math.sqrt(p * (1.0 - p) / reps)


def _variance_stderr(values: np.ndarray) -> float:
    """Large-sample standard error of the sample variance."""
    k = values.size
    s2 = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - values.mean()) ** 4))
    inner = m4 - s2 * s2 * (k - 3.0) / (k - 1.0)
    return math.sqrt(max(inner, 0.0) / k)


def _failures(cell: _Cell, method: str, failed: np.ndarray) -> int:
    """Number of failed replications; aborts the run above the budget."""
    n_fail = int(failed.sum())
    reps = cell.config.replications
    if n_fail > _MAX_FAILURE_RATE * reps:
        raise NumericError(
            f"{cell.config.kind} cell dist={cell.config.dist.label} r={cell.r} "
            f"n={cell.n} method={method}: {n_fail}/{reps} replications failed, "
            f"above the {_MAX_FAILURE_RATE:.0%} abort threshold"
        )
    return n_fail


def _variance_rows(cell: _Cell, records: np.ndarray) -> list[ReportRow]:
    """n * Var over replications of each of the fixed ESTIMATOR_METHODS (the
    configured method list does not apply)."""
    reps = cell.config.replications
    rows = []
    for j, method in enumerate(ESTIMATOR_METHODS):
        col = records[:, j]
        value = cell.n * float(np.var(col, ddof=1)) if reps > 1 else 0.0
        se = cell.n * _variance_stderr(col) if reps > 1 else 0.0
        rows.append(cell.row(method, "n_var", value, se))
    return rows


def _boxdata_rows(cell: _Cell, records: np.ndarray) -> list[ReportRow]:
    """Every replication's estimate per estimator, then the true moment."""
    rows = [cell.row(method, "estimate", float(v))
            for j, method in enumerate(ESTIMATOR_METHODS) for v in records[:, j]]
    rows.append(cell.row("REFERENCE", "true_beta", cell.beta))
    return rows


def _coverage_rows(cell: _Cell, records: np.ndarray) -> list[ReportRow]:
    """Coverage of the true moment and mean interval length per method."""
    reps = cell.config.replications
    rows = []
    for j, method in enumerate(cell.config.methods):
        covered, lengths, failed = records[:, 3 * j], records[:, 3 * j + 1], records[:, 3 * j + 2]
        n_fail = _failures(cell, method, failed)
        p = float(covered.mean())
        ok = lengths[failed == 0.0]
        se_len = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
        rows += [cell.row(method, "coverage", p, _proportion_stderr(p, reps)),
                 cell.row(method, "length", float(ok.mean()), se_len),
                 cell.row(method, "failures", float(n_fail))]
    return rows


def _rejection_rows(cell: _Cell, records: np.ndarray) -> list[ReportRow]:
    """Rejection rate per method of the test of ``beta_r = cell.beta``."""
    reps = cell.config.replications
    rows = []
    for j, method in enumerate(cell.config.methods):
        n_fail = _failures(cell, method, records[:, 2 * j + 1])
        p = float(records[:, 2 * j].mean())
        rows += [cell.row(method, "rejection_rate", p, _proportion_stderr(p, reps)),
                 cell.row(method, "failures", float(n_fail))]
    return rows


@dataclass(frozen=True)
class _Kind:
    """An experiment kind: the records a block of replications' samples
    yield, one per replication, the report rows a cell's records fold into,
    and the distribution whose ``true_beta(., r)`` the cell needs (None when
    it needs none)."""

    records: Callable[[_Cell, list[np.ndarray]], list[tuple]]
    rows: Callable[[_Cell, np.ndarray], list[ReportRow]]
    beta_dist: Callable[[ExperimentConfig], DistSpec | None]


# Size and power both test the moment of null_dist, or of the sampling
# distribution itself when there is none (power configs must name one).
_TESTS = _Kind(_test_records, _rejection_rows, lambda config: config.null_dist or config.dist)

# The kind table, in the order of KINDS.
_KINDS = {
    "variance": _Kind(_estimates_records, _variance_rows, lambda config: None),
    "coverage_length": _Kind(_ci_records, _coverage_rows, lambda config: config.dist),
    "size": _TESTS,
    "power": _TESTS,
    "estimator_boxdata": _Kind(_estimates_records, _boxdata_rows, lambda config: config.dist),
}
KINDS = tuple(_KINDS)


def _run_chunk(cell: _Cell) -> list[tuple]:
    """The records of replications ``[rep_lo, rep_hi)``, in order, computed
    in blocks of at most ``_BLOCK`` replications."""
    config = cell.config
    records = _KINDS[config.kind].records
    cell_id = _cell_id(cell.r, cell.n)
    out = []
    for lo in range(cell.rep_lo, cell.rep_hi, _BLOCK):
        samples = [sample(config.dist, cell.n,
                          make_rng(seed_for_rep(config.base_seed, cell_id, i)))
                   for i in range(lo, min(lo + _BLOCK, cell.rep_hi))]
        out.extend(records(cell, samples))
    return out


@contextmanager
def _cell_runner(threads: int, reps: int):
    """Yield ``records(cell)``: all per-replication records of one cell, in
    replication order.

    With ``threads > 1`` and at least 8 replications per cell, every cell of
    the run goes to one process pool, opened here and closed with the run;
    each cell is cut into about ``4 * threads`` chunks.
    """
    if threads <= 1 or reps < 8:
        yield lambda cell: _run_chunk(replace(cell, rep_lo=0, rep_hi=reps))
        return
    chunk = max(1, math.ceil(reps / (threads * 4)))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        def records(cell: _Cell) -> list[tuple]:
            chunks = [replace(cell, rep_lo=lo, rep_hi=min(lo + chunk, reps))
                      for lo in range(0, reps, chunk)]
            return [rec for part in pool.map(_run_chunk, chunks) for rec in part]

        yield records


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run every (r, n) cell of ``config`` and fold each into report rows,
    r-major, as ``config.kind`` says (see the module docstring)."""
    t0 = time.perf_counter()
    kind = _KINDS[config.kind]
    beta_dist = kind.beta_dist(config)
    rows: list[ReportRow] = []
    with _cell_runner(threads, config.replications) as cell_records:
        for r in config.r_values:
            beta = None if beta_dist is None else true_beta(beta_dist, r)
            for n in config.n_values:
                cell = _Cell(config, r, n, beta, 0, 0)
                rows.extend(kind.rows(cell, np.asarray(cell_records(cell))))
    return ExperimentReport(rows, config, time.perf_counter() - t0)


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

    def as_number(key, kind, default=None):
        """The key's number; a key without a default is required."""
        if key not in entries and default is not None:
            return default
        text = need(key)
        try:
            return kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a real number"
            raise PwmInputError(f"config key {key!r} needs {noun}, got {text!r}")

    dist = DistSpec(family_of(need("family"), "family"), as_number("param", float))
    null_dist = None
    if "null_family" in entries or "null_param" in entries:
        null_dist = DistSpec(
            family_of(need("null_family"), "null_family"), as_number("null_param", float)
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
        replications=as_number("reps", int, 2000),
        level=as_number("level", float, 0.95),
        alpha=as_number("alpha", float, 0.05),
        methods=methods,
        base_seed=as_number("seed", int, 0),
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
    if cfg.null_dist is not None and _KINDS[cfg.kind] is _TESTS:
        # the other kinds ignore null_dist
        lines.insert(3, f"- null distribution: {cfg.null_dist.label}")

    for metric in dict.fromkeys(row.metric for row in report.rows):
        rows = [r for r in report.rows if r.metric == metric]
        lines.extend(["", f"## {metric}", ""])
        methods = list(dict.fromkeys(r.method for r in rows))
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
            cell = {(r.dist, r.r, r.n, r.method): r for r in rows}
            for (d, rr, nn) in dict.fromkeys((r.dist, r.r, r.n) for r in rows):
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
