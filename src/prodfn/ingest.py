"""CSV ingestion of annual index series and base-100 normalization.

Expected CSV dialect: UTF-8, comma-separated, one header row, ASCII digits,
decimal point '.', no thousands or `_` digit separators.  Years must be
consecutive integers and all values strictly positive; nothing is
interpolated, deflated or smoothed.  That digit rule is the program's one
number rule: `_read_number` applies it to every number read from outside,
CSV cells, JSON fields and command-line options alike.  A well-formed file
named by its path is read by numpy's C text reader instead, which takes no
`_` and no digit outside ASCII either; every other input, and every error,
is left to one loop over the records of the `csv` reader.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .core import ProdfnError

class CsvFormatError(ProdfnError):
    """Malformed CSV input.  `row` is the 1-based CSV record number: the header is row 1,
    and a quoted cell spanning lines is one record."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


@dataclass(frozen=True)
class TimeSeries:
    """One named annual index series: `values[i]` is the value of year `base_year + i`.

    `values` is non-empty and strictly positive; `years` is the range of years they cover.
    """

    name: str
    base_year: int
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise CsvFormatError(f"series {self.name!r} is empty")
        if not (all(map(math.isfinite, self.values)) and min(self.values) > 0.0):
            for year, v in zip(self.years, self.values):
                if not (math.isfinite(v) and v > 0.0):
                    raise CsvFormatError(f"series {self.name!r}: value at {year} must be positive, got {v!r}")

    @property
    def years(self) -> range:
        return range(self.base_year, self.base_year + len(self.values))

    def __len__(self) -> int:
        return len(self.values)


@contextmanager
def _text_stream(source) -> Iterator[IO[str]]:
    """Yield `source` as text: a path is opened for writing and closed here, a byte stream
    wrapped and detached afterwards, so it stays open, and anything else is taken as a text
    stream.  `load_series` reads a path itself, so only `_write_csv` passes one."""
    if isinstance(source, (str, Path)):
        with open(source, "w", encoding="utf-8", newline="") as stream:
            yield stream
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield stream
        finally:
            stream.detach()  # flushes; a detached wrapper cannot close `source`
    else:
        yield source


def load_series(source, year_col: str, value_cols: Sequence[str]) -> list[TimeSeries]:
    """Read one TimeSeries per value column from a CSV with a header row; each starts at the first year read.

    `source` may be a path, an open text stream, or an open byte stream; a stream is
    left open.  A path is read into memory once, and a well-formed file is read by one
    `np.loadtxt` pass (see `_loadtxt`).  Any other input goes to one loop over the records
    of the csv reader, which holds one record at a time, strips each cell of surrounding
    whitespace, skips blank records and reports the first fault in record order: a short
    record, a non-integer year, a duplicate or non-consecutive year, a non-numeric or
    non-positive value.  That error and a missing column carry the record number: the
    header is row 1, and a quoted cell spanning lines is one record.  Input the csv module
    cannot split into records (a cell over its field size limit, a bare carriage return in
    an unquoted cell) is reported with the line where reading stopped.  Column names are
    matched stripped; each series keeps the name it was asked for.
    """
    if not value_cols:
        raise CsvFormatError("at least one value column is required")
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:  # opened once, so a path such as /dev/stdin works
            data = stream.read()
        if (table := _loadtxt(data, year_col, value_cols)) is not None:
            del data  # free the text before the values become Python floats
            base_year = int(table[0][0])
            return [TimeSeries(col, base_year, tuple(values.tolist())) for col, values in zip(value_cols, table[1:])]
        source = io.BytesIO(data)  # the csv reader decodes it as it would the file
    with _text_stream(source) as stream:
        reader = csv.reader(stream)
        try:
            if (header := next(reader, None)) is None:
                raise CsvFormatError("empty input: missing header row", row=1)
            header, where = _header(header, year_col, value_cols)
            year = None  # the year of the last accepted record
            columns: list[list[float]] = [[] for _ in value_cols]  # indexed like value_cols
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue  # ignore blank lines
                if len(row) <= max(where):
                    raise CsvFormatError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
                raw = row[where[0]].strip()
                try:
                    cur = _read_number(raw, int)
                except ValueError:
                    raise CsvFormatError(f"non-integer year {raw!r}", row=row_no) from None
                if year is not None and cur != year + 1:
                    message = f"duplicate year {cur}" if cur == year else f"non-consecutive year {cur} after {year}"
                    raise CsvFormatError(message, row=row_no)
                year = cur
                for column, col, i in zip(columns, value_cols, where[1:]):
                    raw = row[i].strip()
                    try:
                        v = _read_number(raw)
                    except ValueError:
                        raise CsvFormatError(f"non-numeric value {raw!r} in column {col!r}", row=row_no) from None
                    if not (math.isfinite(v) and v > 0.0):
                        raise CsvFormatError(f"non-positive value {raw!r} in column {col!r}", row=row_no)
                    column.append(v)
        except csv.Error as exc:  # drop the " - " remedy: paths are already opened with newline=""
            raise CsvFormatError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None
    if year is None:
        raise CsvFormatError("no data rows")
    base_year = year + 1 - len(columns[0])  # the accepted years are consecutive
    return [TimeSeries(col, base_year, tuple(values)) for col, values in zip(value_cols, columns)]


def _header(row, year_col, value_cols) -> tuple[list[str], list[int]]:
    """The stripped header `row`, and the cell index of the year, then of each value column."""
    header = [h.strip() for h in row]
    for col in [year_col, *value_cols]:
        if col.strip() not in header:
            raise CsvFormatError(f"column {col!r} not found in header {header}", row=1)
    return header, [header.index(col.strip()) for col in [year_col, *value_cols]]


def _loadtxt(data: bytes, year_col, value_cols) -> list[np.ndarray] | None:
    r"""The year column as int64, then each value column as float64, of a well-formed file, read
    by one pass of numpy's C text reader; None for any other input, so that `load_series`'
    record loop alone decides it and reports every error.

    Only UTF-8 text holding no `"` and no NUL, with no line longer than the csv field size
    limit and a data line after the header, is tried: numpy would split a quoted cell at its
    commas and take a cell over the limit, and Python 3.10's csv rejects a NUL.  The lines are
    split at "\n", "\r\n" and "\r", as a file opened with newline="" splits them.
    """
    try:  # a UnicodeDecodeError is a ValueError
        if '"' in (text := data.decode("utf-8")) or "\0" in text:
            return None
        lines = io.StringIO(text, newline="").readlines()
        del text
        if max(map(len, lines), default=0) > csv.field_size_limit():
            return None
        if not any(map(str.strip, islice(lines, 1, None))):  # numpy would warn that it read no row
            return None
        _, where = _header(next(csv.reader(lines[:1])), year_col, value_cols)
        dtype = np.dtype(",".join(["i8", *["f8"] * len(value_cols)]))
        with warnings.catch_warnings():  # older numpy reads a year "1899.0" through float, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                lines, dtype, delimiter=",", comments=None, skiprows=1, usecols=where, unpack=True, ndmin=1
            )
    except (CsvFormatError, ValueError, DeprecationWarning):
        return None
    years, *columns = table
    consecutive = (np.diff(years) == 1).all() and years[0] <= years[-1]  # int64 differences wrap around
    if not (consecutive and all(v.min() > 0.0 and v.max() < math.inf for v in columns)):  # a NaN fails both
        return None
    return table


def _read_number(x, parse=float):
    """parse(x) for a number read from outside the program: a CSV cell, a JSON field or an option.
    A boolean, or a string whose stripped text breaks the dialect's digit rule, raises ValueError:
    int() and float() also read "1_000" and non-ASCII digits; the rule takes neither."""
    if isinstance(x, bool) or (isinstance(x, str) and not (x.strip().isascii() and "_" not in x)):
        raise ValueError(f"not a number: {x!r}")
    return parse(x)


def normalize_base100(series: TimeSeries) -> TimeSeries:
    """Rescale a series so its first observation is exactly 100.

    Every value is multiplied by 100/values[0], which preserves all pairwise
    ratios; the first value is pinned to 100.0 exactly so the operation is
    idempotent.  A series already starting at 100.0 is returned unchanged.
    """
    first = series.values[0]
    if first == 100.0:
        return series
    scale = 100.0 / first
    scaled = (100.0, *(v * scale for v in series.values[1:]))
    return replace(series, values=scaled)


def write_series(series_list: Sequence[TimeSeries], dest) -> None:
    """Serialize series sharing one year range back to CSV.

    The counterpart of `load_series`: years are printed as integers and values
    with 17 significant digits, which re-reads to the identical float, and the
    header is quoted where a name needs it.  `dest` is a path, a writable text
    stream or a writable byte stream, which is written as UTF-8 and left open.
    """
    if not series_list:
        raise CsvFormatError("nothing to write")
    years = series_list[0].years
    for s in series_list[1:]:
        if s.years != years:
            raise CsvFormatError(
                f"series {s.name!r} covers {s.years[0]}..{s.years[-1]}, "
                f"expected {years[0]}..{years[-1]}"
            )
    header = ["year", *(s.name for s in series_list)]
    _write_csv(dest, header, (years, *(s.values for s in series_list)), first="%d")


_FLOAT_FORMAT = "%.17g"  # every float written out; no finite number prints an "n", "inf" and "nan" do


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return _FLOAT_FORMAT % x


def _write_csv(dest, header: Sequence[str], columns, first: str = _FLOAT_FORMAT) -> None:
    """Write a header row, then one row of numbers per index of `columns`: the first column's
    printed with the `first` template, every other one with 17 significant digits.

    `dest` is as in `write_series`.  The header is quoted as `csv` quotes it, so
    `load_series` reads every name back; numbers never need quoting.
    """
    with _text_stream(dest) as stream:
        line = io.StringIO()  # the default "\r\n" terminator makes csv quote a "\r" too
        csv.writer(line).writerow(header)
        stream.write(line.getvalue()[:-2] + "\n")
        fmt = ",".join([first, *[_FLOAT_FORMAT] * (len(columns) - 1)]) + "\n"
        for row in zip(*columns):
            if "n" in (text := fmt % row):
                list(map(_fmt_float, map(float, row)))  # raises at the first of them
            stream.write(text)
