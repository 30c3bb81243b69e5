"""Delimited-file ingestion and per-column analysis."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumnError, PwmError, PwmInputError
from .inference import confidence_intervals, ratio_tests

__all__ = [
    "ColumnDataset",
    "AnalysisRow",
    "TestRow",
    "load_csv_column",
    "analyze_column",
    "test_column",
]

_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class ColumnDataset:
    """One numeric column pulled out of a delimited file."""

    name: str
    values: np.ndarray
    skipped: int


@dataclass(frozen=True)
class AnalysisRow:
    column: str
    method: str
    r: int
    estimate: float | None
    lower: float | None
    upper: float | None
    length: float | None
    error: str | None


@dataclass(frozen=True)
class TestRow:
    column: str
    method: str
    r: int
    statistic: float | None
    threshold: float | None
    p_value: float | None
    reject: bool | None
    error: str | None


def load_csv_column(path, column: str) -> ColumnDataset:
    """Extract one numeric column; blank, NA and non-numeric cells are
    skipped and counted rather than treated as errors."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise PwmInputError(f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    skipped = 0
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise PwmInputError(f"{path} has no header row")
            fields = [f.strip() for f in header]
            if column not in fields:
                raise MissingColumnError(
                    f"column {column!r} not found in {path}; available: {fields}"
                )
            # a duplicated name reads its last column, as csv.DictReader does
            index = len(fields) - 1 - fields[::-1].index(column)
            for row in reader:
                if not row:  # blank line
                    continue
                if index >= len(row):
                    skipped += 1
                    continue
                cell = row[index].strip()
                if cell.lower() in _NA_TOKENS:
                    skipped += 1
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    skipped += 1
                    continue
                if not math.isfinite(value):
                    skipped += 1
                    continue
                values.append(value)
        except (UnicodeDecodeError, csv.Error) as exc:
            # undecodable bytes, or a field over csv.field_size_limit()
            raise PwmInputError(f"cannot parse {path}: {exc}") from exc
    if not values:
        raise PwmInputError(f"column {column!r} in {path} has no numeric data")
    return ColumnDataset(name=column, values=np.asarray(values), skipped=skipped)


def analyze_column(data: ColumnDataset, r: int, level: float, methods,
                   ajel_rule: str = "centered", a_n=None) -> list[AnalysisRow]:
    """Point estimate and confidence interval per method.

    Bad options raise :class:`PwmInputError` before any method runs.
    Method-level failures (degenerate data, solver breakdown, sample too
    small for the jackknife) are reported inline on their row so the
    remaining methods still produce results.
    """
    methods = tuple(str(m).upper() for m in methods)
    (results,) = confidence_intervals([data.values], r, level, methods, ajel_rule, a_n)
    return [AnalysisRow(data.name, method, r, None, None, None, None, str(ci))
            if isinstance(ci, PwmError) else
            AnalysisRow(data.name, method, r, ci.point_estimate, ci.lower, ci.upper,
                        ci.length, None)
            for method, ci in zip(methods, results)]


def test_column(data: ColumnDataset, r: int, beta0: float, alpha: float, methods,
                ajel_rule: str = "centered", a_n=None) -> list[TestRow]:
    """Hypothesis test of ``beta_r = beta0`` per method.

    Bad options raise :class:`PwmInputError` before any method runs;
    method-level failures are reported inline, as in :func:`analyze_column`.
    """
    methods = tuple(str(m).upper() for m in methods)
    (results,) = ratio_tests([data.values], r, beta0, alpha, methods, ajel_rule, a_n)
    return [TestRow(data.name, method, r, None, None, None, None, str(res))
            if isinstance(res, PwmError) else
            TestRow(data.name, method, r, res.statistic, res.threshold, res.p_value,
                    res.reject, None)
            for method, res in zip(methods, results)]
