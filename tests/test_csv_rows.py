"""``load_csv_column`` reads the text after the header in line-aligned
blocks and finds each line's cell with array passes over the block's
character codes.  From the first line with a quote, a NUL or
``csv.field_size_limit()`` characters, the rest of the file goes through
``csv.reader``; a decode error or a csv.Error reads the file again through
``csv.reader`` alone.  These tests hold it to a reference that runs every row
through ``csv.reader``: the same value bytes, the same skip count, the same
error type and text, also with blocks a few characters long, so that a block
ends at every place in a line."""

import csv
import math
import random

import numpy as np
import pytest

from pwmjel import data
from pwmjel.errors import MissingColumnError, PwmInputError


def reference_load(path, column):
    """Every row through csv.reader, with load_csv_column's per-cell rules."""
    fh = open(path, "r", encoding="utf-8-sig", newline="")
    values = []
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
            index = len(fields) - 1 - fields[::-1].index(column)
            for row in reader:
                if not row:
                    continue
                if index >= len(row):
                    skipped += 1
                    continue
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
            raise PwmInputError(f"cannot parse {path}: {exc}") from exc
    if not values:
        raise PwmInputError(f"column {column!r} in {path} has no numeric data")
    return np.asarray(values).tobytes(), skipped


def outcome(load, path, column):
    try:
        result = load(path, column)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)
    if isinstance(result, data.ColumnDataset):
        return result.values.tobytes(), result.skipped
    return result


def assert_same(path, *columns):
    for column in columns:
        got = outcome(data.load_csv_column, path, column)
        assert got == outcome(reference_load, path, column), (column, path.read_bytes()[:300])


PLAIN_CELLS = ["1.5", "-2", " 3 ", "", "NA", "nan", "inf", "junk", "1e400", "1_0", "\t8\t",
               "0.1", "-0.0", "N/A"]
QUOTED_CELLS = ['"4,5"', '"6\n,7"', '"7"', '""', '"a""b"', '"9.25"']


def random_file(rng: random.Random) -> bytes:
    width = rng.randint(1, 5)
    names = [rng.choice(["a", "b", " a ", "c", '"b"', '"a,x"']) for _ in range(width)]
    ending = rng.choice(["\n", "\r\n", "\r", None])  # None: mixed per line
    quote_from = rng.randint(1, 40) if rng.random() < 0.7 else None
    lines = [",".join(names)]
    for i in range(rng.randint(0, 60)):
        if rng.random() < 0.08:
            lines.append("")
            continue
        cells = PLAIN_CELLS + (QUOTED_CELLS if quote_from and i >= quote_from else [])
        lines.append(",".join(rng.choice(cells) for _ in range(rng.randint(0, width + 2))))
    text = "".join(line + (ending or rng.choice(["\n", "\r\n", "\r"])) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no newline after the last line
    if rng.random() < 0.2:
        text = "\ufeff" + text
    if rng.random() < 0.05:
        at = rng.randint(len(lines[0]) + 1, len(text))
        text = text[:at] + "\0" + text[at:]
    return text.encode("utf-8")


@pytest.mark.parametrize("seed", range(4))
def test_random_files_match_csv_reader(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "random.csv"
    for _ in range(60):
        path.write_bytes(random_file(rng))
        assert_same(path, "a", "b", "c")


@pytest.mark.parametrize("body, columns", [
    # the hand-over: a quoted field, with a newline and a comma in it, from line 4
    ("x,y\n1,2\n3,4\n5,\"6\n,7\"\n8,9\n10,\"11\"\n", ["x", "y"]),
    ("x,y\n1,2\n\"3,5\",4\n8,9\n", ["x", "y"]),
    # a quoted header, and a header field holding a comma
    ('"x","y,z",w\n1,2,3\n4,5,6\n', ["x", "y,z", "w"]),
    # CRLF and lone CR endings, mixed, and no newline after the last line
    ("x,y\r\n1,2\r\n\r\n3,4\r5,6\r\r7,8", ["x", "y"]),
    ("x,y\r1,2\r3,\"4\r5\"\r6,7\r", ["x", "y"]),
    # blank and short rows, NA and junk tokens
    ("x,y,z\n1,2,3\n\n4\n,,\nNA,n/a,-\n5,junk,6\n7,8\n", ["x", "y", "z"]),
    # a BOM, and a duplicated name that reads its last column
    ("\ufeffx,x,y\n1,2,3\n4,5,6\n", ["x", "y"]),
    # a NUL byte, on a plain line and inside a quoted field
    ("x,y\n1,2\n3,4\0\n5,6\n", ["x", "y"]),
    ("x,y\n1,2\n\"3\0\",4\n5,6\n", ["x", "y"]),
    # a quote inside an unquoted field, and a quote left open to the end
    ("x,y\n1,2\n3,4\"5\n6,7\n", ["x", "y"]),
    ("x,y\n1,2\n3,\"4\n5,6\n", ["x", "y"]),
    # lines that end in a comma, whose last field is empty
    ("x,y\n1,\n2,3,\n,\n4,5\n", ["x", "y"]),
    # CR-only and CRLF endings alone, and blank lines between rows
    ("x,y\r1,2\r3,4\r", ["x", "y"]),
    ("x,y\r\n1,2\r\n3,4\r\n", ["x", "y"]),
    ("x,y\n1,2\n\n\n3,4\n\r\n5,6\n", ["x", "y"]),
    # the asked field past a short line's last comma
    ("x,y,z\n1,\n2,3\n4,5,6\n7,8,\n", ["x", "y", "z"]),
    # a last line with no line end, after LF, CRLF and CR lines
    ("x,y\n1,2\n3,4", ["x", "y"]),
    ("x,y\r\n1,2\r\n3,", ["x", "y"]),
    ("x,y\r1,2\r3", ["x", "y"]),
])
def test_cases_match_csv_reader(tmp_path, body, columns):
    path = tmp_path / "case.csv"
    path.write_bytes(body.encode("utf-8"))
    assert_same(path, *columns)


def test_oversized_field_after_plain_lines_is_the_same_error(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "big.csv"
    path.write_text("x,y\n" + "1,2\n" * 5000 + "3," + "9" * (limit + 1) + "\n4,5\n")
    got = outcome(data.load_csv_column, path, "x")
    assert got == outcome(reference_load, path, "x")
    assert got[0] is PwmInputError and "field larger than field limit" in got[1]
    # a line of exactly the limit, newline included, holds no oversized field
    path.write_text("x,y\n" + "1,2\n" * 5000 + "3," + "9" * (limit - 3) + "\n")
    assert_same(path, "x", "y")


def test_undecodable_byte_past_the_first_chunk_is_the_same_error(tmp_path):
    path = tmp_path / "latin1.csv"
    body = b"x,y\n" + b"1.5,2.5\n" * 2000  # 16 KB, over the 8 KB decode chunk
    path.write_bytes(body + b"3,caf\xe9\n4,5\n")
    got = outcome(data.load_csv_column, path, "x")
    assert got == outcome(reference_load, path, "x")
    assert got[0] is PwmInputError and "can't decode byte 0xe9 in position" in got[1]


def test_plain_lines_do_not_go_through_csv_reader(tmp_path, monkeypatch):
    rows_read = []
    real_reader = csv.reader

    def counting_reader(*args, **kwargs):
        for row in real_reader(*args, **kwargs):
            rows_read.append(row)
            yield row

    monkeypatch.setattr(data.csv, "reader", counting_reader)
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n" + "".join(f"{i},{i / 2}\n" for i in range(100)))
    assert data.load_csv_column(path, "y").values.size == 100
    assert rows_read == [["x", "y"]]  # the header only

    rows_read.clear()
    path.write_text("x,y\n1,2\n3,4\n\"5\",6\n7,8\n")
    assert data.load_csv_column(path, "x").values.tolist() == [1.0, 3.0, 5.0, 7.0]
    assert rows_read == [["x", "y"], ["5", "6"], ["7", "8"]]  # from the quote on


@pytest.fixture
def field_limit():
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


def assert_same_at_every_block_size(path, monkeypatch, text, *columns):
    """``text`` as the file, read with blocks from one character to all of it."""
    path.write_bytes(text.encode("utf-8"))
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(data, "_BLOCK", size)
        assert_same(path, *columns)


@pytest.mark.parametrize("body", [
    "1,2\r\n3,4\r\n\r\n5,6\r\n",  # a block ends between "\r" and "\n"
    "1,2\r3,4\r\r5,6\r",  # ... on a lone "\r"
    "1,2\r\r\r\n3,4\n\r",  # runs of line ends
    "10.5,,2\n,3\n4,5,6,7\n8\n",  # ... in the middle of a line, short rows
    "1,2\n3,4\n\"5\",6\n7,8\n",  # ... just before a quoted field
    "1,2\n3,\"4\"\r\n5,6\r7,8",  # ... and before a mid-line one
    "1,2\n3,\"4\n,\r\n5\"\n6,7\n8,9\n",  # a quoted field that spans blocks
    "1,2\n3,4\n5,6\0\n7,8\n",  # a NUL
    "µ,1\n–,2\n١٢,3\n 4 ,µ\n\u2028,5\n6,\u00a07\n",  # non-ASCII cells; float reads ١٢ as 12
])
def test_blocks_split_anywhere_match_csv_reader(tmp_path, monkeypatch, body):
    assert_same_at_every_block_size(tmp_path / "blocks.csv", monkeypatch, "x,y\n" + body, "x", "y")


def test_lines_over_the_limit_match_csv_reader(tmp_path, monkeypatch, field_limit):
    field_limit(12)
    body = "1,2\n" + "3," + "4" * 9 + "," + "5" * 9 + "\n6,7\n"  # 21 characters, no long field
    assert_same_at_every_block_size(tmp_path / "long.csv", monkeypatch, "x,y,z\n" + body, "x", "y", "z")
    body += "8," + "9" * 13 + "\n"  # a field over the limit
    assert_same_at_every_block_size(tmp_path / "long.csv", monkeypatch, "x,y\n" + body, "x", "y")


def test_a_line_over_the_limit_is_handed_over_before_its_end_is_read(tmp_path, monkeypatch,
                                                                    field_limit):
    field_limit(12)
    blocks = []
    real_block_cells = data._block_cells

    def recording_block_cells(text, n, *args):
        blocks.append(text[:n])
        return real_block_cells(text, n, *args)

    monkeypatch.setattr(data, "_block_cells", recording_block_cells)
    monkeypatch.setattr(data, "_BLOCK", 4)
    path = tmp_path / "long.csv"
    path.write_text("x,y\n1,2\n3," + "4," * 500 + "\n5,6\n")
    assert_same(path, "x", "y")
    assert blocks and max(map(len, blocks)) <= 12 + 4


def test_undecodable_byte_past_the_first_block_is_the_same_error(tmp_path, monkeypatch):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n" + b"1.5,2.5\n" * 40 + b"3,caf\xe9\n4,5\n")
    for size in (1, 7, 64, 200):
        monkeypatch.setattr(data, "_BLOCK", size)
        got = outcome(data.load_csv_column, path, "x")
        assert got == outcome(reference_load, path, "x")
        assert got[0] is PwmInputError and "can't decode byte 0xe9 in position 329" in got[1]


def test_small_blocks_keep_plain_lines_out_of_csv_reader(tmp_path, monkeypatch):
    rows_read = []
    real_reader = csv.reader

    def counting_reader(*args, **kwargs):
        for row in real_reader(*args, **kwargs):
            rows_read.append(row)
            yield row

    monkeypatch.setattr(data.csv, "reader", counting_reader)
    monkeypatch.setattr(data, "_BLOCK", 4)
    path = tmp_path / "plain.csv"
    path.write_bytes(b"x,y\r\n1,2\r\n3,4\r5,6\n,\r\n7,8")
    assert data.load_csv_column(path, "y").values.tolist() == [2.0, 4.0, 6.0, 8.0]
    assert rows_read == [["x", "y"]]
