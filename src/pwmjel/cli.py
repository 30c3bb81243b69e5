"""Command line interface.

Subcommands: estimate, ci, test, simulate.  Exit codes: 0 on success, 2 on
input problems (bad arguments, unreadable files, missing columns), 3 when
every requested numeric computation failed.
"""

from __future__ import annotations

import argparse
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
from .inference import confidence_intervals, ratio_tests
from .simulate import (
    parse_config_file,
    run_experiment,
    write_report_csv,
    write_report_markdown,
)

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3


def _fmt(value, fmt: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value) if fmt == "csv" else f"{value:.4f}"
    return str(value)


def _emit_table(header, rows, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v, fmt) for v in row))
        return
    cells = [[_fmt(v, fmt) for v in row] for row in rows]
    print("| " + " | ".join(header) + " |")
    print("| " + " | ".join("---" for _ in header) + " |")
    for row in cells:
        print("| " + " | ".join(row) + " |")


def _note(message: str, quiet: bool) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _load(args):
    data = load_csv_column(args.input, args.column)
    if data.skipped:
        _note(f"note: skipped {data.skipped} blank or non-numeric cells "
              f"in column {args.column!r}", args.quiet)
    return data


def _methods_arg(text: str) -> list[str]:
    return [tok.strip().upper() for tok in text.split(",") if tok.strip()]


def _cmd_estimate(args) -> int:
    data = _load(args)
    sample = SortedSample.from_data(data.values)
    if args.method == "dn":
        value = dn_estimate(sample, args.r)
    elif args.method == "vexler":
        value = vexler_estimate(sample, args.r)
    elif args.method == "ustat":
        value = ustat_estimate(sample, args.r)
    else:  # jackknife: mean of the leave-one-out pseudo-values
        value = float(np.mean(jackknife_pseudo_values(sample, args.r).values))
    _emit_table(["column", "method", "r", "estimate"],
                [[data.name, args.method, args.r, value]], args.format)
    return _EXIT_OK


def _cells(result, *fields) -> list:
    """The named fields of a per-method result and an empty error cell, or
    empty fields and the message when the method failed."""
    if isinstance(result, PwmError):
        return [None] * len(fields) + [str(result)]
    return [getattr(result, field) for field in fields] + [""]


def _exit_code(results) -> int:
    return _EXIT_NUMERIC if all(isinstance(res, PwmError) for res in results) else _EXIT_OK


def _cmd_ci(args) -> int:
    data = _load(args)
    methods = _methods_arg(args.methods)
    (results,) = confidence_intervals([data.values], args.r, args.level, methods,
                                      args.ajel_rule, args.an)
    if args.format == "csv":
        _emit_table(
            ["column", "method", "r", "estimate", "lower", "upper", "length", "error"],
            [[data.name, method, args.r,
              *_cells(ci, "point_estimate", "lower", "upper", "length")]
             for method, ci in zip(methods, results)],
            args.format,
        )
    else:
        line = [data.name] + [
            f"error: {ci}" if isinstance(ci, PwmError)
            else f"({ci.lower:.4f}, {ci.upper:.4f}) length {ci.length:.4f}"
            for ci in results]
        _emit_table(["column", *methods], [line], "md")
    return _exit_code(results)


def _cmd_test(args) -> int:
    data = _load(args)
    methods = _methods_arg(args.methods)
    (results,) = ratio_tests([data.values], args.r, args.null, args.alpha, methods,
                             args.ajel_rule, args.an)
    _emit_table(
        ["column", "method", "r", "statistic", "threshold", "p_value", "reject", "error"],
        [[data.name, method, args.r,
          *_cells(res, "statistic", "threshold", "p_value", "reject")]
         for method, res in zip(methods, results)],
        args.format,
    )
    return _exit_code(results)


def _cmd_simulate(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.reps is not None:
        config = dataclasses.replace(config, replications=args.reps)
    report = run_experiment(config, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    md_path = os.path.join(args.out, "report.md")
    write_report_csv(report, csv_path)
    write_report_markdown(report, md_path)
    if not args.quiet:
        print(f"wrote {csv_path}")
        print(f"wrote {md_path}")
        print(f"{len(report.rows)} rows in {report.elapsed:.2f}s")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "md"), default="md",
                        help="output as full-precision csv or 4-decimal markdown")
    common.add_argument("--quiet", action="store_true", help="suppress notes")

    parser = argparse.ArgumentParser(
        prog="pwm",
        description="Probability weighted moments with empirical likelihood inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", parents=[common], help="point estimate of beta_r")
    est.add_argument("--input", required=True, help="delimited input file")
    est.add_argument("--column", required=True, help="column to analyze")
    est.add_argument("--r", type=int, required=True, help="moment order")
    est.add_argument("--method", required=True,
                     choices=("dn", "vexler", "ustat", "jackknife"))
    est.set_defaults(handler=_cmd_estimate)

    ci = sub.add_parser("ci", parents=[common], help="confidence intervals")
    ci.add_argument("--input", required=True)
    ci.add_argument("--column", required=True)
    ci.add_argument("--r", type=int, required=True)
    ci.add_argument("--level", type=float, default=0.95)
    ci.add_argument("--methods", default="DNEL,VXL,JEL,AJEL",
                    help="comma list from DNEL,VXL,JEL,AJEL")
    ci.add_argument("--ajel-rule", choices=("centered", "literal"), default="centered")
    ci.add_argument("--an", type=float, default=None,
                    help="override the adjustment constant")
    ci.set_defaults(handler=_cmd_ci)

    test = sub.add_parser("test", parents=[common], help="test beta_r = NULL")
    test.add_argument("--input", required=True)
    test.add_argument("--column", required=True)
    test.add_argument("--r", type=int, required=True)
    test.add_argument("--null", type=float, required=True)
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--methods", default="DNEL,VXL,JEL,AJEL")
    test.add_argument("--ajel-rule", choices=("centered", "literal"), default="centered")
    test.add_argument("--an", type=float, default=None)
    test.set_defaults(handler=_cmd_test)

    sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo config")
    sim.add_argument("--config", required=True, help="flat key=value config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--reps", type=int, default=None, help="override replications")
    sim.add_argument("--threads", type=int, default=1, help="worker processes")
    sim.set_defaults(handler=_cmd_simulate)
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
