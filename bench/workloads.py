"""The three benchmark workloads: inputs from the seed, units of work, checks.

Each workload is a closed loop with one caller in one process.  Its work is
a fixed cycle of units, which a run repeats until its time is up: a unit is
one ``run_experiment`` call on the Monte Carlo workloads and one
``cli.main`` call on ``cli-columns``.  Unit ``j`` of a Monte Carlo workload
draws its replications from ``(seed, j)`` alone.

The checks never look at how an interval was found, only at what it must
satisfy: the EL ratio at each endpoint equals the chi-square threshold, the
centered adjusted interval contains the unadjusted one, coverage lies in a
Monte Carlo band, and a replayed replication matches its report entry.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from pwmjel import (
    DistSpec,
    ExperimentConfig,
    ajel_confidence_interval,
    ajel_neg2_ratio,
    chi2_1_cdf,
    chi2_1_quantile,
    cli,
    dnel_summands,
    jel_confidence_interval,
    jel_neg2_ratio,
    jel_test,
    load_csv_column,
    make_rng,
    neg2_log_ratio,
    plugin_el_ci,
    sample,
    seed_for_rep,
    simulate,
    true_beta,
    vxl_summands,
    write_report_csv,
)

METHODS = ("JEL", "AJEL", "DNEL", "VXL")
LEVEL = 0.95
ALPHA = 0.05
# Endpoint search accepts a ratio within this distance of the threshold
# (the package's endpoint residual tolerance, in ratio units).
RESIDUAL_TOL = 1e-6
# Half-width of the coverage band in Monte Carlo standard errors.
COVERAGE_BAND_SE = 4.0


def unit_seed(seed: int, index: int) -> int:
    """Base seed of unit ``index``; depends on nothing but its arguments."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def cell_id(r: int, n: int) -> int:
    """Seed-stream id the harness gives design cell (r, n)."""
    return r * 1_000_000 + n


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class UnitRun:
    """What one execution of a unit did; the runner adds ``wall`` and ``cpu``."""

    ops: int  # replications, or CLI calls
    attempted: int  # method-operations
    failed: int
    output: object


def _ratio_fn(method, x, r, rule):
    if method == "JEL":
        return lambda b: jel_neg2_ratio(x, r, b)
    if method == "AJEL":
        return lambda b: ajel_neg2_ratio(x, r, b, rule=rule)
    summands = {"DNEL": dnel_summands, "VXL": vxl_summands}[method](x, r).values
    return lambda b: neg2_log_ratio(summands, b)


def endpoint_problems(label, method, x, r, lower, upper, rule="centered") -> list[str]:
    """The ratio at each endpoint must sit on the chi-square threshold."""
    threshold = chi2_1_quantile(LEVEL)
    ratio = _ratio_fn(method, x, r, rule)
    problems = []
    for side, b in (("lower", lower), ("upper", upper)):
        resid = ratio(b) - threshold
        if not abs(resid) <= RESIDUAL_TOL:
            problems.append(f"{label} {method} {side} endpoint {b!r}: ratio residual {resid:.3e}")
    return problems


def contains_problems(label, outer, inner) -> list[str]:
    """``outer`` and ``inner`` are (lower, upper) of AJEL and JEL."""
    if outer[0] <= inner[0] and inner[1] <= outer[1]:
        return []
    return [f"{label}: centered AJEL {outer} does not contain JEL {inner}"]


class MonteCarlo:
    kind: str
    dist: DistSpec
    r_values: tuple
    n_values: tuple
    reps: int  # per cell and unit
    units: int
    threads: int

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.scratch = scratch

    def config(self, base_seed, reps=None):
        return ExperimentConfig(self.kind, self.dist, self.r_values, self.n_values,
                                reps or self.reps, level=LEVEL, alpha=ALPHA,
                                methods=METHODS, base_seed=base_seed)

    def setup_code(self) -> str:
        # the first replication of the first cell, in a fresh interpreter
        return (
            "from pwmjel import DistSpec, ExperimentConfig, simulate\n"
            f"config = ExperimentConfig({self.kind!r}, {self.dist!r}, "
            f"({self.r_values[0]},), ({self.n_values[0]},), 1, level={LEVEL}, "
            f"alpha={ALPHA}, methods={METHODS!r}, base_seed={unit_seed(self.seed, 0)})\n"
            f"simulate.run_experiment(config, threads={self.threads})\n"
        )

    def run_unit(self, unit: int, threads: int | None = None) -> UnitRun:
        config = self.config(unit_seed(self.seed, unit))
        report = simulate.run_experiment(config, threads=threads or self.threads)
        reps = len(self.r_values) * len(self.n_values) * self.reps
        failed = sum(row.value for row in report.rows if row.metric == "failures")
        return UnitRun(reps, reps * len(METHODS), int(failed), report)

    def output_bytes(self, report) -> bytes:
        path = self.scratch / "report.csv"
        write_report_csv(report, path)
        return path.read_bytes()

    def rows(self, report, metric):
        return {(row.r, row.n, row.method): row.value
                for row in report.rows if row.metric == metric}


class CoverageN300(MonteCarlo):
    """The pinned acceptance cell: four interval inversions per replication."""

    name = "mc-coverage-n300"
    kind = "coverage_length"
    dist = DistSpec("exponential", 1.0)
    r_values = (1,)
    n_values = (300,)
    reps = 10
    units = 10
    threads = 1
    replays = 2

    def check(self, results) -> list[str]:
        problems = []
        total = sum(b.ops for b in results)
        for method in ("JEL", "AJEL"):
            covered = sum(self.rows(b.output, "coverage")[(1, 300, method)] * b.ops
                          for b in results)
            p = covered / total
            half = COVERAGE_BAND_SE * math.sqrt(LEVEL * (1 - LEVEL) / total)
            if abs(p - LEVEL) > half:
                problems.append(f"{method} coverage {p:.4f} outside {LEVEL} +- {half:.4f} "
                                f"at {total} replications")
        for i, b in enumerate(results):
            length = self.rows(b.output, "length")
            if length[(1, 300, "AJEL")] < length[(1, 300, "JEL")]:
                problems.append(f"unit {i}: mean AJEL length below mean JEL length")
        pick = np.random.default_rng([self.seed, len(results)])
        for i in pick.choice(len(results), size=min(self.replays, len(results)), replace=False):
            problems += self.replay(int(i))
        return problems

    def replay(self, index) -> list[str]:
        """Replication 0 of a unit, through the public interval functions."""
        base = unit_seed(self.seed, index)
        report = simulate.run_experiment(self.config(base, reps=1), threads=1)
        coverage, length = self.rows(report, "coverage"), self.rows(report, "length")
        x = sample(self.dist, 300, make_rng(seed_for_rep(base, cell_id(1, 300), 0)))
        beta = true_beta(self.dist, 1)
        intervals = {
            "JEL": jel_confidence_interval(x, 1, LEVEL),
            "AJEL": ajel_confidence_interval(x, 1, LEVEL),
            "DNEL": plugin_el_ci(x, 1, LEVEL, "DNEL"),
            "VXL": plugin_el_ci(x, 1, LEVEL, "VXL"),
        }
        label = f"unit {index} replication 0"
        problems = []
        for method, ci in intervals.items():
            problems += endpoint_problems(label, method, x, 1, ci.lower, ci.upper)
            if length[(1, 300, method)] != ci.length:
                problems.append(f"{label} {method}: report length {length[(1, 300, method)]!r}"
                                f" != replayed {ci.length!r}")
            if coverage[(1, 300, method)] != float(ci.contains(beta)):
                problems.append(f"{label} {method}: report coverage disagrees with replay")
        jel, ajel = intervals["JEL"], intervals["AJEL"]
        return problems + contains_problems(label, (ajel.lower, ajel.upper),
                                            (jel.lower, jel.upper))


class SizeGrid(MonteCarlo):
    """One EL solve per method and replication over a 12-cell grid."""

    name = "mc-size-grid"
    kind = "size"
    dist = DistSpec("lognormal", 1.0)
    r_values = (1, 2)
    n_values = (25, 50, 100, 200, 300, 3000)
    reps = 100
    units = 3
    threads = min(2, nproc())
    replays = 2

    def check(self, results) -> list[str]:
        problems = []
        for i, b in enumerate(results):
            rates = self.rows(b.output, "rejection_rate")
            if len(rates) != len(self.r_values) * len(self.n_values) * len(METHODS):
                problems.append(f"unit {i}: {len(rates)} rejection rates in the report")
            bad = {k: v for k, v in rates.items() if not 0.0 <= v <= 1.0}
            if bad:
                problems.append(f"unit {i}: rejection rates outside [0, 1]: {bad}")
        pick = np.random.default_rng([self.seed, len(results)])
        for i in pick.choice(len(results), size=min(self.replays, len(results)), replace=False):
            r = int(pick.choice(self.r_values))
            n = int(pick.choice([n for n in self.n_values if n <= 300]))
            problems += self.replay(int(i), results[i].output, r, n)
        return problems

    def replay(self, index, report, r, n) -> list[str]:
        """Every replication of one cell through ``jel_test``; the rejections
        must add up to the JEL rejection rate the report gives the cell."""
        base = unit_seed(self.seed, index)
        beta0 = true_beta(self.dist, r)
        rejected = sum(
            jel_test(sample(self.dist, n, make_rng(seed_for_rep(base, cell_id(r, n), rep))),
                     r, beta0, ALPHA).reject
            for rep in range(self.reps)
        )
        reported = self.rows(report, "rejection_rate")[(r, n, "JEL")] * self.reps
        if round(reported) != rejected or abs(reported - rejected) > 1e-9 * self.reps:
            return [f"unit {index} cell r={r} n={n}: report has {reported!r} JEL "
                    f"rejections, replay gives {rejected}"]
        return []


# Columns of the cli-columns input: three families at three sample sizes,
# with the true beta_1 of each family as the tested value.
FAMILIES = {
    "exponential": (lambda rng, n: rng.exponential(1.0, n), 0.75),
    "lognormal": (lambda rng, n: rng.lognormal(0.0, 1.0, n),
                  math.exp(0.5) * 0.5 * (1.0 + math.erf(0.5))),
    "normal": (lambda rng, n: rng.normal(0.0, 2.0, n), 1.0 / math.sqrt(math.pi)),
}
SIZES = (50, 300, 3000)


class CliColumns:
    """In-process ``pwm ci`` / ``pwm test`` calls on a ragged nine-column CSV."""

    name = "cli-columns"
    threads = 1
    endpoint_checks = 12  # ci calls per run whose endpoints are recomputed
    test_checks = 12  # test calls per run whose statistics are recomputed

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.path = scratch / "columns.csv"
        rng = np.random.default_rng([seed, 1 << 20])
        columns = {f"{family}_{n}": draw(rng, n)
                   for family, (draw, _) in FAMILIES.items() for n in SIZES}
        self.null = {f"{family}_{n}": null
                     for family, (_, null) in FAMILIES.items() for n in SIZES}
        with open(self.path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for i in range(max(SIZES)):
                writer.writerow([repr(float(v[i])) if i < v.size else "" for v in columns.values()])
        # 36 calls alternating ci and test, columns in a seeded order
        order = list(self.null)
        rng.shuffle(order)
        self.calls = [self.argv(*op) for column in order
                      for op in (("ci", column, "centered"), ("test", column),
                                 ("ci", column, "literal"), ("test", column))]
        self.units = len(self.calls)
        self._data = {}

    def argv(self, command, column, rule=None):
        args = [command, "--input", str(self.path), "--column", column, "--r", "1",
                "--methods", ",".join(METHODS), "--format", "csv", "--quiet"]
        if command == "ci":
            return args + ["--level", repr(LEVEL), "--ajel-rule", rule]
        return args + ["--null", repr(self.null[column]), "--alpha", repr(ALPHA)]

    def setup_code(self) -> str:
        return (
            "import contextlib, io\n"
            "from pwmjel import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({self.calls[0]!r})\n"
            "if code != 0:\n"
            "    raise SystemExit(code)\n"
        )

    def run_unit(self, unit: int, threads: int | None = None) -> UnitRun:
        argv = self.calls[unit]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        ok = sum(1 for row in rows if not row["error"])
        return UnitRun(1, len(METHODS), len(METHODS) - ok, (argv, code, rows))

    def output_bytes(self, call) -> bytes:
        return repr(call[1:]).encode()

    def values(self, column):
        if column not in self._data:
            self._data[column] = load_csv_column(self.path, column).values
        return self._data[column]

    def check(self, results) -> list[str]:
        problems = []
        calls = [b.output for b in results]
        pick = np.random.default_rng([self.seed, len(calls)])
        ci_calls = [i for i, (argv, _, _) in enumerate(calls) if argv[0] == "ci"]
        test_calls = [i for i, (argv, _, _) in enumerate(calls) if argv[0] == "test"]
        deep = set(pick.choice(ci_calls, size=min(self.endpoint_checks, len(ci_calls)),
                               replace=False))
        deep |= set(pick.choice(test_calls, size=min(self.test_checks, len(test_calls)),
                                replace=False))
        for i, (argv, code, rows) in enumerate(calls):
            column = argv[argv.index("--column") + 1]
            label = f"call {i} ({argv[0]} {column})"
            if code != 0 or [row["method"] for row in rows] != list(METHODS):
                problems.append(f"{label}: exit code {code}, methods "
                                f"{[row['method'] for row in rows]}")
                continue
            if argv[0] == "ci":
                problems += self.check_ci(label, argv, rows, column, i in deep)
            else:
                problems += self.check_test(label, rows, column, i in deep)
        return problems

    def check_ci(self, label, argv, rows, column, deep) -> list[str]:
        rule = argv[argv.index("--ajel-rule") + 1]
        problems = []
        bounds = {}
        for row in rows:
            if row["error"]:  # counted as a failed method-operation
                continue
            method = row["method"]
            est, lower, upper = (float(row[k]) for k in ("estimate", "lower", "upper"))
            bounds[method] = (lower, upper)
            # the literal rule centres its ratio on a shrunken mean, which
            # may lie below the estimate at small n
            inside = lower < upper if method == "AJEL" and rule == "literal" else \
                lower < est < upper
            if not inside:
                problems.append(f"{label} {method}: interval ({lower}, {upper}) around {est}")
            elif deep:
                problems += endpoint_problems(label, method, self.values(column), 1,
                                              lower, upper, rule)
        if rule == "centered" and {"AJEL", "JEL"} <= bounds.keys():
            problems += contains_problems(label, bounds["AJEL"], bounds["JEL"])
        return problems

    def check_test(self, label, rows, column, deep) -> list[str]:
        problems = []
        for row in rows:
            if row["error"]:  # counted as a failed method-operation
                continue
            stat, threshold, p_value = (float(row[k]) for k in
                                        ("statistic", "threshold", "p_value"))
            if (row["reject"] == "true") != (stat > threshold) or \
                    not math.isclose(p_value, 1.0 - chi2_1_cdf(stat), rel_tol=1e-12,
                                     abs_tol=1e-15):
                problems.append(f"{label} {row['method']}: statistic {stat}, "
                                f"p-value {p_value}, reject {row['reject']} disagree")
            elif deep:
                expected = _ratio_fn(row["method"], self.values(column), 1,
                                     "centered")(self.null[column])
                if not math.isclose(stat, expected, rel_tol=1e-9, abs_tol=1e-12):
                    problems.append(f"{label} {row['method']}: statistic {stat!r}, "
                                    f"recomputed {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (CoverageN300, SizeGrid, CliColumns)}
