"""A run's files: the CSV writer and reader, the JSON reader and writer,
the `--out` check and the null device for a closed stdout.  No other module
opens, reads or writes a file."""

from __future__ import annotations

import csv
import errno
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .errors import ConfigurationError, InvalidInputError


CSV_BLOCK_ROWS = 128  # rows formatted at a time, which bounds the text held


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _column_texts(column: tuple) -> list:
    """Each cell's text: `str` of the cell, quoted where it holds a comma,
    a quote, a line feed or a carriage return.

    A column of `int`s, or of `float`s none of which is zero, is formatted
    once per distinct value; a float's `str` is its `repr`.  A zero would
    share its text with the zero of the other sign, since 0.0 == -0.0.  A
    column of numbers in which no value repeats, as a dataset's positions,
    is formatted cell by cell, which skips the lookups.
    """
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float}:
        distinct = dict.fromkeys(column)
        if len(distinct) == len(column):
            return list(map(repr, column))
        if int in kinds or 0.0 not in distinct:
            return list(map(dict(zip(distinct, map(repr, distinct))).__getitem__, column))
    texts = list(map(str, column))
    if _needs_quotes("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in texts]
    return texts


def _write_lines(fh, rows: list, width: int) -> None:
    """Rows of `width` cells as CSV lines, formatted column by column."""
    texts = list(map(_column_texts, zip(*rows, strict=True)))
    if len(texts) != width:
        raise ValueError(f"a CSV row needs {width} cells, got {len(texts)}")
    if width == 1:  # a line of one empty cell would read as no cell at all
        texts[0] = ['""' if text == "" else text for text in texts[0]]
    fh.write("\n".join([*map(",".join, zip(*texts)), ""]))


def write_csv(path, header, rows) -> None:
    """The package's CSV writer: `read_table` reads what it writes.

    For cells that are strings, numbers or bools, the file's bytes are
    those of `csv.writer(fh, lineterminator="\\n")` writing the header and
    then the rows, except where a cell holds a carriage return: a float
    cell is its shortest round-trip repr, and a cell is quoted where it
    holds a comma, a quote, a line feed or a carriage return.  Python
    3.11's csv leaves a lone CR bare, and `csv.reader` would end the line
    there.  A row whose cell count is not the header's raises ValueError.
    Rows are read and written `CSV_BLOCK_ROWS` at a time, each block column
    by column, most numbers once per distinct value (`_column_texts`).
    """
    rows, width = iter(rows), len(header)
    with open(path, "w", newline="") as fh:
        _write_lines(fh, [header], width)
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            _write_lines(fh, block, width)


def read_table(path, columns: tuple, what: str, parse) -> list:
    """The package's CSV reader: `parse` of each block of rows of a CSV file
    or pipe whose header must be `columns`, joined in file order.

    The file is read once, `CSV_BLOCK_ROWS` rows at a time; `parse` takes
    a list of rows, each a list of cells, and returns a list.  A wrong
    header, a row of the wrong length, or a row that `parse` rejects with
    ValueError (InvalidInputError among them) raises InvalidInputError
    naming the file and the physical line that row ends on: a block that
    fails, or that a csv.Error or a decode error cuts short, is parsed
    again a row at a time, so the error names its first bad line.
    """
    width, out, line = len(columns), [], None  # `line`: that of a row parsed alone
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if tuple(header) != columns:
                raise InvalidInputError(f"unexpected {what} columns: {header}")
            while True:
                rows, lines, cut = [], [], None
                try:
                    for row in islice(reader, CSV_BLOCK_ROWS):
                        rows.append(row)
                        lines.append(reader.line_num)
                except (csv.Error, UnicodeDecodeError) as exc:
                    cut = exc
                if not rows and cut is None:
                    return out
                if cut is None and set(map(len, rows)) == {width}:
                    try:
                        out += parse(rows)
                        continue
                    except ValueError:
                        pass
                for line, row in zip(lines, rows):
                    if len(row) != width:
                        raise InvalidInputError(f"expected {width} cells, got {len(row)}")
                    out += parse([row])
                if cut is not None:
                    line = reader.line_num  # where the read stopped
                    raise cut
        except UnicodeDecodeError as exc:  # read ahead in chunks: no line to name
            raise InvalidInputError(f"cannot decode {path}: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise InvalidInputError(f"{path} line {line or reader.line_num}: {exc}") from None


def read_json(path: str | Path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ConfigurationError(f"cannot read {what} file {path}: {reason}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} file {path} must hold a JSON object")
    return doc


def write_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def require_out(path, directory: bool) -> None:
    """Fail before any work when `--out` cannot be written as asked: an
    existing path of the wrong kind (anything but a directory for a run
    directory, a directory for a file), a path under a file, or a file
    whose directory is missing.  The error is the one the write would
    raise at the end.  An empty path names nothing and is an error."""
    if path is None:
        return
    if not path:
        raise ConfigurationError("--out must name a path, got ''")
    found = path  # `path` or its nearest existing ancestor, "" if none exists
    while found and not os.path.exists(found):
        found = os.path.dirname(found)
    if found and os.path.isdir(found) != (directory or found != path):
        code = errno.EISDIR if os.path.isdir(found) else errno.ENOTDIR
    elif not directory and found not in (path, os.path.dirname(path)):
        code = errno.ENOENT  # a file whose directory is missing
    else:
        return
    raise OSError(code, os.strerror(code), path)


def null_stdout() -> None:
    """Point stdout's descriptor at the null device, so that what its buffer
    still holds is flushed there at exit instead of failing once more."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a stream without a descriptor buffers nothing for it
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)
