"""Delimited-file ingestion: one numeric column of a CSV file."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumnError, PwmInputError

__all__ = ["ColumnDataset", "load_csv_column"]


@dataclass(frozen=True)
class ColumnDataset:
    """One numeric column pulled out of a delimited file."""

    name: str
    values: np.ndarray
    skipped: int


def _rows(fh, index: int):
    """The rows after the header, each line split at its first ``index + 1``
    commas. From the first line with a quote, a NUL or more characters than
    ``csv.field_size_limit()``, that line and the rest go through csv.reader;
    no quoted field is open before it, so the rows and any csv.Error (before
    Python 3.11 a NUL is one) are the ones csv.reader alone gives."""
    limit = csv.field_size_limit()
    for line in fh:
        if '"' in line or "\0" in line or len(line) > limit:
            yield from csv.reader(itertools.chain([line], fh))
            return
        line = line.rstrip("\r\n")
        yield line.split(",", index + 1) if line else []


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
            header = next(csv.reader(fh), None)
            if header is None:
                raise PwmInputError(f"{path} has no header row")
            fields = [f.strip() for f in header]
            if column not in fields:
                raise MissingColumnError(
                    f"column {column!r} not found in {path}; available: {fields}"
                )
            # a duplicated name reads its last column, as csv.DictReader does
            index = len(fields) - 1 - fields[::-1].index(column)
            for row in _rows(fh, index):
                if not row:  # blank line
                    continue
                if index >= len(row):
                    skipped += 1
                    continue
                # float() strips whitespace, rejects NA words and reads nan,
                # which the finiteness test skips as it does a blank cell;
                # blank cells are common, so they skip float() and its raise
                cell = row[index]
                try:
                    value = float(cell) if cell else math.nan
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
