"""Command line interface.

Subcommands: estimate, ci, test, simulate.  Exit codes: 0 on success, 2 on
input problems (bad arguments, unreadable files, missing columns, or every
requested method failing on its input), 3 when every requested method
failed and a numeric failure is among them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from .data import load_csv_column
from .errors import PwmError, PwmInputError
from .estimators import (
    SortedSample,
    dn_estimate,
    jackknife_pseudo_values,
    ustat_estimate,
    vexler_estimate,
)
from .inference import ADJUSTMENT_RULES, CI_METHODS, confidence_intervals, ratio_tests
from .simulate import (
    check_threads,
    comma_list,
    parse_config_file,
    run_experiment,
    table_lines,
    write_report_csv,
    write_report_markdown,
)

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3


def _note(message: str, quiet: bool) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _load(args):
    data = load_csv_column(args.input, args.column)
    if data.skipped:
        _note(f"note: skipped {data.skipped} blank or non-numeric cells "
              f"in column {args.column!r}", args.quiet)
    return data


# The point estimates of ``pwm estimate``, by --method; jackknife is the mean
# of the leave-one-out pseudo-values.
_ESTIMATES = {
    "dn": dn_estimate,
    "vexler": vexler_estimate,
    "ustat": ustat_estimate,
    "jackknife": lambda sample, r: float(np.mean(jackknife_pseudo_values(sample, r).values)),
}


def _cmd_estimate(args) -> int:
    data = _load(args)
    value = _ESTIMATES[args.method](SortedSample.from_data(data.values), args.r)
    print("\n".join(table_lines(["column", "method", "r", "estimate"],
                                 [[data.name, args.method, args.r, value]], args.format)))
    return _EXIT_OK


def _cells(result, *fields) -> list:
    """The named fields of a per-method result and an empty error cell, or
    empty fields and the message when the method failed."""
    if isinstance(result, PwmError):
        return [None] * len(fields) + [str(result)]
    return [getattr(result, field) for field in fields] + [""]


def _exit_code(results) -> int:
    """0 when a method succeeded, else 2 when every method failed on its
    input (an order the sample is too small for, say) and 3 otherwise."""
    if all(isinstance(res, PwmInputError) for res in results):
        return _EXIT_INPUT
    return _EXIT_NUMERIC if all(isinstance(res, PwmError) for res in results) else _EXIT_OK


def _cmd_ci(args) -> int:
    data = _load(args)
    methods = comma_list(args.methods, str.upper)
    (results,) = confidence_intervals([data.values], args.r, args.level, methods,
                                      args.ajel_rule, args.an)
    if args.format == "csv":
        header = ["column", "method", "r", "estimate", "lower", "upper", "length", "error"]
        rows = [[data.name, method, args.r,
                 *_cells(ci, "point_estimate", "lower", "upper", "length")]
                for method, ci in zip(methods, results)]
    else:
        header, rows = ["column", *methods], [[data.name] + [
            f"error: {ci}" if isinstance(ci, PwmError)
            else f"({ci.lower:.4f}, {ci.upper:.4f}) length {ci.length:.4f}"
            for ci in results]]
    print("\n".join(table_lines(header, rows, args.format)))
    return _exit_code(results)


def _cmd_test(args) -> int:
    data = _load(args)
    methods = comma_list(args.methods, str.upper)
    (results,) = ratio_tests([data.values], args.r, args.null, args.alpha, methods,
                             args.ajel_rule, args.an)
    print("\n".join(table_lines(
        ["column", "method", "r", "statistic", "threshold", "p_value", "reject", "error"],
        [[data.name, method, args.r, *_cells(res, "statistic", "threshold", "p_value", "reject")]
         for method, res in zip(methods, results)],
        args.format)))
    return _exit_code(results)


@contextlib.contextmanager
def _writing(path):
    """Raise an OSError of the block as the input error that names ``path``."""
    try:
        yield
    except OSError as exc:
        raise PwmInputError(f"cannot write {path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.reps is not None:
        config = dataclasses.replace(config, replications=args.reps)
    check_threads(args.threads)
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    report = run_experiment(config, threads=args.threads)
    csv_path = os.path.join(args.out, "report.csv")
    md_path = os.path.join(args.out, "report.md")
    with _writing(csv_path):
        write_report_csv(report, csv_path)
    with _writing(md_path):
        write_report_markdown(report, md_path)
    if not args.quiet:
        print(f"wrote {csv_path}")
        print(f"wrote {md_path}")
        print(f"{len(report.rows)} rows in {report.elapsed:.2f}s")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwm",
        description="Probability weighted moments with empirical likelihood inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    est, ci, test, sim = (sub.add_parser(name, help=text) for name, text in (
        ("estimate", "point estimate of beta_r"), ("ci", "confidence intervals"),
        ("test", "test beta_r = NULL"), ("simulate", "run a Monte Carlo config")))
    # each option is declared once, on every subcommand that takes it
    for cmd, handler in ((est, _cmd_estimate), (ci, _cmd_ci), (test, _cmd_test),
                         (sim, _cmd_simulate)):
        cmd.add_argument("--quiet", action="store_true", help="suppress notes")
        cmd.set_defaults(handler=handler)
    for cmd in (est, ci, test):
        cmd.add_argument("--format", choices=("csv", "md"), default="md",
                         help="output as full-precision csv or 4-decimal markdown")
        cmd.add_argument("--input", required=True, help="delimited input file")
        cmd.add_argument("--column", required=True, help="column to analyze")
        cmd.add_argument("--r", type=int, required=True, help="moment order")
    est.add_argument("--method", required=True, choices=tuple(_ESTIMATES))
    ci.add_argument("--level", type=float, default=0.95)
    test.add_argument("--null", type=float, required=True)
    test.add_argument("--alpha", type=float, default=0.05)
    methods = ",".join(CI_METHODS)
    for cmd in (ci, test):
        cmd.add_argument("--methods", default=methods, help=f"comma list from {methods}")
        cmd.add_argument("--ajel-rule", choices=ADJUSTMENT_RULES, default="centered")
        cmd.add_argument("--an", type=float, default=None,
                         help="override the adjustment constant")
    sim.add_argument("--config", required=True, help="flat key=value config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--reps", type=int, default=None, help="override replications")
    sim.add_argument("--threads", type=int, default=1, help="worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PwmInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except PwmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
