"""Delimited-file ingestion: one numeric column of a CSV file."""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumnError, PwmInputError

__all__ = ["ColumnDataset", "load_csv_column"]

_BLOCK = 1 << 18  # characters read per block after the header
_BATCH = 1 << 12  # csv.reader rows per batch of cells


@dataclass(frozen=True)
class ColumnDataset:
    """One numeric column pulled out of a delimited file."""

    name: str
    values: np.ndarray
    skipped: int


def _block_cells(text: str, n: int, index: int, limit: int):
    """Field ``index`` of the lines of ``text[:n]``, which ends at a line end
    or at the end of the file, found by array passes over its character
    codes; the first quote and NUL are found by ``str.find``.

    Returns ``(cells, blank, stop)``: the non-empty cells, the number of
    non-blank lines with an empty or missing field, and the offset of the
    first line with a quote, a NUL or at least ``limit`` characters before
    its line end, which with the lines after it is left for csv.reader, or
    None."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8, n)
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), np.uint32, n)
    # the commas, and n as the field end past the last comma
    mask = np.empty(n + 1, dtype=bool)
    np.equal(codes, 44, out=mask[:n])
    mask[n] = True
    commas = np.flatnonzero(mask)
    # every "\n" and "\r" ends a line, so "\r\n" makes a blank line more;
    # both are among the few codes below 14, which are found first
    low = np.flatnonzero(np.less(codes, 14, out=mask[:n]))
    kind = codes[low]
    ends = low[(kind == 10) | (kind == 13)]
    starts = np.concatenate(([0], ends + 1))
    stops = np.append(ends, n)  # a last line without a line end runs to n
    first = np.searchsorted(commas, starts)
    # no comma sits on a line end, so a line's commas end where the next
    # line's begin, and the n after the last comma closes the last line
    count = np.append(first[1:], commas.size - 1) - first
    special = [at for at in (text.find('"', 0, n), text.find("\0", 0, n)) if at >= 0]
    handed = np.searchsorted(stops, special).tolist()  # the first quote's and NUL's lines
    handed += np.flatnonzero(stops - starts >= limit)[:1].tolist()
    stop = None
    if handed:
        line = min(handed)
        stop = int(starts[line])
        starts, stops, first, count = starts[:line], stops[:line], first[:line], count[:line]
    rows = stops > starts  # not blank
    take = rows & (count >= index)
    short = np.count_nonzero(rows) - np.count_nonzero(take)
    k = first[take] + index
    lo = commas[k - 1] + 1 if index else starts[take]
    hi = np.minimum(commas[k], stops[take])
    full = hi > lo
    cells = [text[a:b] for a, b in zip(lo[full].tolist(), hi[full].tolist())]
    return cells, short + full.size - len(cells), stop


def _blocks(fh, index: int):
    """Batches ``(cells, blank)`` of the rows after the header: the column's
    non-empty cells and the number of non-blank rows whose cell is empty or
    missing.

    The text is read in blocks of about ``_BLOCK`` characters, each cut
    after its last ``\\n`` or ``\\r``, and split by :func:`_block_cells`.
    Both end a line there, so a ``\\r\\n`` makes a blank line more, which
    is skipped as csv.reader's empty row is.  From the first line with a
    quote, a NUL or ``csv.field_size_limit()`` characters before its line
    end, that line and the rest of the file go through csv.reader.  No
    quoted field is open before it, so the rows and any csv.Error (before
    Python 3.11 a NUL is one) are the ones csv.reader alone gives."""
    limit = csv.field_size_limit()
    carry = ""  # the start of a line whose end is not read yet
    while True:
        text = carry + fh.read(_BLOCK)
        more = len(text) > len(carry)
        cut = max(text.rfind("\n"), text.rfind("\r")) + 1 if more else len(text)
        cells, blank, stop = _block_cells(text, cut, index, limit) if cut else ([], 0, None)
        yield cells, blank
        carry = text[cut:]
        if stop is None and len(carry) >= limit:  # hand over before reading all of it
            stop = cut
        if stop is not None:
            lines = io.StringIO(text[stop:] + fh.readline(), newline="")
            yield from _batches(csv.reader(itertools.chain(lines, fh)), index)
            return
        if not more:
            return


def _batches(rows, index: int):
    """:func:`_blocks`'s batches for rows that csv.reader gives."""
    while batch := list(itertools.islice(rows, _BATCH)):
        cells = [row[index] if index < len(row) else "" for row in batch if row]
        full = [cell for cell in cells if cell]
        yield full, len(cells) - len(full)


def _numbers(cells: list) -> list:
    """The finite numbers among ``cells`` as float() reads them: it strips
    whitespace and rejects NA words; cells it rejects or reads as nan or
    an infinity are dropped."""
    try:
        return list(filter(math.isfinite, map(float, cells)))
    except ValueError:
        pass
    values = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue
        if math.isfinite(value):
            values.append(value)
    return values


def _load(path, column: str, blocks: bool) -> ColumnDataset:
    """:func:`load_csv_column`, reading the rows after the header in blocks
    or, with ``blocks`` false, through csv.reader alone."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise PwmInputError(f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    skipped = 0
    with fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise PwmInputError(f"{path} has no header row")
        fields = [f.strip() for f in header]
        if column not in fields:
            raise MissingColumnError(
                f"column {column!r} not found in {path}; available: {fields}"
            )
        # a duplicated name reads its last column, as csv.DictReader does
        index = len(fields) - 1 - fields[::-1].index(column)
        for cells, blank in _blocks(fh, index) if blocks else _batches(rows, index):
            numbers = _numbers(cells)
            values += numbers
            skipped += blank + len(cells) - len(numbers)
    if not values:
        raise PwmInputError(f"column {column!r} in {path} has no numeric data")
    return ColumnDataset(name=column, values=np.asarray(values), skipped=skipped)


def load_csv_column(path, column: str) -> ColumnDataset:
    """Extract one numeric column; blank, NA and non-numeric cells are
    skipped and counted rather than treated as errors."""
    try:
        try:
            return _load(path, column, blocks=True)
        except (UnicodeDecodeError, csv.Error):
            # blocks decode in other chunks than lines do, which moves a
            # decode error's position and can bring it before or after a
            # csv.Error: read again as csv.reader alone reads
            return _load(path, column, blocks=False)
    except (UnicodeDecodeError, csv.Error) as exc:
        # undecodable bytes, or a field over csv.field_size_limit()
        raise PwmInputError(f"cannot parse {path}: {exc}") from exc
