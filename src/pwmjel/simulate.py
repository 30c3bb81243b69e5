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
A cell's replications run in chunks, and each chunk is one lockstep block
of samples: the estimator kinds take its estimates from the row functions
of :mod:`pwmjel.estimators`, the others its intervals or tests from the
batched calls of :mod:`pwmjel.inference`.

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
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .distributions import DistSpec, make_rng, sample, true_beta
from .errors import NumericError, PwmError, PwmInputError
from .estimators import estimate_rows, pseudo_value_rows, sorted_rows
from .inference import (
    CI_METHODS,
    adjustment_constant,
    check_options,
    check_probability,
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
    "comma_list",
    "table_lines",
    "write_report_csv",
    "write_report_markdown",
]

ESTIMATOR_METHODS = ("DN", "VEXLER", "JACKKNIFE", "ADJ_JACKKNIFE")

CSV_HEADER = "dist,r,n,method,metric,value,stderr"

# A cell aborts once failures exceed this fraction of its replications.
_MAX_FAILURE_RATE = 0.01

# The most replications in one chunk, which runs as one lockstep block (one
# batched EL solve per search step); it bounds a block's working memory to
# O(_BLOCK * n).
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
        if not isinstance(self.dist, DistSpec):
            raise PwmInputError(f"dist must be a DistSpec, got {self.dist!r}")
        if not isinstance(self.null_dist, (DistSpec, type(None))):
            raise PwmInputError(f"null_dist must be a DistSpec or None, got {self.null_dist!r}")
        if not _ints_at_least(self.r_values, 1):
            raise PwmInputError("r_values must be integers >= 1")
        if not _ints_at_least(self.n_values, max(self.r_values) + 2):
            raise PwmInputError("every n must be at least max(r) + 2")
        if max(self.n_values) >= _MAX_N:
            raise PwmInputError(f"every n must be below {_MAX_N:_}")
        if not _is_int(self.replications) or self.replications < 1:
            raise PwmInputError("replications must be a positive integer")
        if not _is_int(self.base_seed):
            raise PwmInputError(f"base_seed must be an integer, got {self.base_seed!r}")
        check_probability(self.level, "confidence level")
        check_probability(self.alpha, "test size")
        check_options(self.methods)
        if self.kind == "power" and self.null_dist is None:
            raise PwmInputError("power experiments need a null distribution")


# Slotted, so that the rows of a kept report hold no per-row dict.
@dataclass(frozen=True, slots=True)
class ReportRow:
    dist: str
    r: int
    n: int
    method: str
    metric: str
    value: float
    stderr: float | None


@dataclass(slots=True)
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
        if not _is_int(v):
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


def _estimates_records(cell: _Cell, samples: list[np.ndarray]) -> list[tuple]:
    errors, blocks = sorted_rows(samples)
    for error in filter(None, errors):  # a non-finite draw overflowed
        raise NumericError(f"{cell.config.kind} cell dist={cell.config.dist.label} r={cell.r} "
                           f"n={cell.n}: a draw exceeds the float range ({error})") from error
    ((_, x),) = blocks.values()
    r, n = cell.r, cell.n
    jack = np.add.reduce(pseudo_value_rows(x, r)[0], axis=1) / n
    adj = jack * (n - adjustment_constant(n)) / (n + 1.0)  # mean of the literally augmented set
    columns = (estimate_rows(x, r, "DN"), estimate_rows(x, r, "VEXLER"), jack, adj)
    return list(zip(*(col.tolist() for col in columns)))


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
        length = float(ok.mean())  # inf where an interval is the whole line, with stderr nan
        se_len = (math.nan if length == math.inf else
                  float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0)
        rows += [cell.row(method, "coverage", p, _proportion_stderr(p, reps)),
                 cell.row(method, "length", length, se_len),
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
    """The records of replications ``[rep_lo, rep_hi)``, in order, run as
    one lockstep block."""
    config = cell.config
    cell_id = _cell_id(cell.r, cell.n)
    samples = [sample(config.dist, cell.n, make_rng(seed_for_rep(config.base_seed, cell_id, i)))
               for i in range(cell.rep_lo, cell.rep_hi)]
    return _KINDS[config.kind].records(cell, samples)


def _cells_records(cells: list[_Cell], threads: int) -> Iterator[list[tuple]]:
    """Yield each cell's records, in replication order, cell by cell.

    Every cell is cut into chunks, and one chunk is one lockstep block.
    With ``threads > 1`` and at least 8 replications per cell, the chunks
    of every cell go to one process pool in one submission, so no worker
    waits at a cell boundary, and a chunk is ``min(_BLOCK, ceil(reps /
    threads))`` replications: as tall as the cell allows while each cell
    still spreads over every worker.  Otherwise the chunks run inline and
    are ``_BLOCK`` tall.  A warm-up draw, on a generator of its own, comes
    before the pool, whose forked workers then inherit what sampling imports.
    Closing the generator early cancels the chunks not yet started.
    """
    reps = cells[0].config.replications
    workers = threads if reps >= 8 else 1
    size = min(_BLOCK, math.ceil(reps / workers))
    spans = [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    chunks = [replace(cell, rep_lo=lo, rep_hi=hi) for cell in cells for lo, hi in spans]
    if workers > 1:
        sample(cells[0].config.dist, 1, make_rng(0))  # the warm-up draw
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        parts = (pool.map if pool else map)(_run_chunk, chunks)
        for _ in cells:
            yield [rec for _ in spans for rec in next(parts)]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def check_threads(threads) -> None:
    """Raise :class:`PwmInputError` unless ``threads``, a worker count, is
    an integer >= 1."""
    if not _is_int(threads) or threads < 1:
        raise PwmInputError(f"threads must be an integer >= 1, got {threads!r}")


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run every (r, n) cell of ``config`` and fold each into report rows,
    r-major, as ``config.kind`` says (see the module docstring).  A cell
    folds as soon as its records are back from the run's one submission to
    ``threads`` workers (see :func:`_cells_records`); one over the failure
    budget raises :class:`NumericError` there, without waiting for the rest.
    ``threads`` must be an integer >= 1.
    """
    check_threads(threads)
    t0 = time.perf_counter()
    kind = _KINDS[config.kind]
    beta_dist = kind.beta_dist(config)
    betas = {r: None if beta_dist is None else true_beta(beta_dist, r) for r in config.r_values}
    cells = [_Cell(config, r, n, betas[r], 0, 0) for r in config.r_values for n in config.n_values]
    rows: list[ReportRow] = []
    with closing(_cells_records(cells, threads)) as records:
        for cell, cell_records in zip(cells, records):
            rows.extend(kind.rows(cell, np.asarray(cell_records)))
    return ExperimentReport(rows, config, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# config files


def comma_list(text: str, convert: Callable[[str], object] = str) -> list:
    """``convert`` of each stripped, non-empty token of a comma-separated list."""
    return [convert(tok.strip()) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(comma_list(text, int))
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
        methods = tuple(comma_list(entries["methods"], str.upper))

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


def table_lines(header, rows, fmt: str) -> list[str]:
    """The lines of a table: csv when ``fmt`` is ``"csv"``, else markdown.

    A cell of None prints empty, a bool lower-case, a float its ``repr``
    in csv and 4 places in markdown, and anything else as ``str``.
    """
    def text(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return repr(float(value)) if fmt == "csv" else f"{value:.4f}"
        return str(value)

    if fmt == "csv":
        return [",".join(header)] + [",".join(map(text, row)) for row in rows]
    return ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |",
            *("| " + " | ".join(map(text, row)) + " |" for row in rows)]


def write_report_csv(report: ExperimentReport, path) -> None:
    """Write rows under the fixed header; full float precision."""
    lines = table_lines(CSV_HEADER.split(","), (
        (row.dist, row.r, row.n, row.method, row.metric, float(row.value),
         None if row.stderr is None else float(row.stderr)) for row in report.rows), "csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_markdown(report: ExperimentReport, path) -> None:
    """Companion human-readable tables, one per metric, values to 4 places.

    One pass groups the rows by metric, then by (dist, r, n, method).  A
    metric with several rows for one of those is summarized per cell and
    method; any other is a cells-by-methods table (see the README).
    """
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

    tables: dict[str, dict[tuple, list[ReportRow]]] = {}
    for row in report.rows:
        key = (row.dist, row.r, row.n, row.method)
        tables.setdefault(row.metric, {}).setdefault(key, []).append(row)
    for metric, groups in tables.items():
        cells = dict.fromkeys(key[:3] for key in groups)  # first-seen order
        methods = dict.fromkeys(key[3] for key in groups)
        if any(len(rows) > 1 for rows in groups.values()):
            # per-replication metric: summarize instead of dumping every row
            header = ["dist", "r", "n", "method", "count", "mean", "sd", "min", "median", "max"]
            body = []
            for key in [(*cell, m) for cell in sorted(cells) for m in methods]:
                if key in groups:
                    vals = np.array([row.value for row in groups[key]])
                    # float() so that a NumPy scalar of any dtype prints to 4 places
                    sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
                    body.append([*map(str, key), vals.size, float(vals.mean()), sd,
                                 float(vals.min()), float(np.median(vals)), float(vals.max())])
        else:
            header, body = ["dist", "r", "n", *methods], []
            for cell in cells:
                found = [groups.get((*cell, method), (None,))[0] for method in methods]
                body.append([*map(str, cell)] + [
                    None if row is None else f"{row.value:.4f}" if row.stderr is None
                    else f"{row.value:.4f} ({row.stderr:.4f})" for row in found])
        lines.extend(["", f"## {metric}", "", *table_lines(header, body, "md")])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
