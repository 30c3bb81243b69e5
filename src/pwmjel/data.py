"""Delimited-file ingestion: one numeric column of a CSV file."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumnError, PwmInputError

__all__ = ["ColumnDataset", "load_csv_column"]

_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class ColumnDataset:
    """One numeric column pulled out of a delimited file."""

    name: str
    values: np.ndarray
    skipped: int


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
