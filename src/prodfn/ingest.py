"""CSV ingestion of annual index series and base-100 normalization.

Expected CSV dialect: UTF-8, comma-separated, one header row, decimal point
'.', no thousands separators.  Years must be consecutive integers and all
values strictly positive; nothing is interpolated, deflated or smoothed.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from operator import eq
from pathlib import Path
from typing import IO, Iterator, Sequence

from .core import ProdfnError

_CHUNK_ROWS = 1024  # records converted and checked at once; larger chunks raise peak RSS


class CsvFormatError(ProdfnError):
    """Malformed CSV input.  `row` is the 1-based CSV record number: the header is row 1,
    and a quoted cell spanning lines is one record."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


@dataclass(frozen=True)
class TimeSeries:
    """One named annual index series.

    `years` are strictly increasing consecutive integers, `values` strictly
    positive, and `base_year` equals the first year.
    """

    name: str
    base_year: int
    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) == 0:
            raise CsvFormatError(f"series {self.name!r} is empty")
        if len(self.years) != len(self.values):
            raise CsvFormatError(f"series {self.name!r}: years and values differ in length")
        if self.base_year != self.years[0]:
            raise CsvFormatError(
                f"series {self.name!r}: base_year {self.base_year} != first year {self.years[0]}"
            )
        if not all(map(eq, self.years, range(self.base_year, self.base_year + len(self.years)))):
            for prev, cur in zip(self.years, self.years[1:]):
                if cur != prev + 1:
                    raise CsvFormatError(
                        f"series {self.name!r}: years must be consecutive, got {prev} then {cur}"
                    )
        if not (all(map(math.isfinite, self.values)) and min(self.values) > 0.0):
            for year, v in zip(self.years, self.values):
                if not (math.isfinite(v) and v > 0.0):
                    raise CsvFormatError(f"series {self.name!r}: value at {year} must be positive, got {v!r}")

    def __len__(self) -> int:
        return len(self.years)


@contextmanager
def _text_stream(source, mode: str) -> Iterator[IO[str]]:
    """Yield `source` as text: a path is opened and closed here, a byte stream wrapped and
    detached afterwards, so it stays open, and anything else is taken as a text stream."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8", newline="") as stream:
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
    """Read one TimeSeries per value column from a CSV with a header row.

    `source` may be a path, an open text stream, or an open byte stream; a stream is
    left open.  One pass per needed column accepts 1,024 records at a time, each cell
    stripped of surrounding whitespace and blank records skipped.  A chunk it rejects is
    walked only to name its first faulty record (short record, non-numeric cell, non-positive
    value, duplicate or non-consecutive year); that error and a missing column carry the record
    number: the header is row 1, and a quoted cell spanning lines is one record.  Input the
    csv module cannot split into records (a cell over its field size limit, a bare carriage
    return in an unquoted cell) is reported with the line where reading stopped.  Column
    names are matched stripped; each series keeps the name it was asked for.
    """
    if not value_cols:
        raise CsvFormatError("at least one value column is required")
    with _text_stream(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            if (header := next(reader, None)) is None:
                raise CsvFormatError("empty input: missing header row", row=1)
            header = [h.strip() for h in header]
            for col in [year_col, *value_cols]:
                if col.strip() not in header:
                    raise CsvFormatError(f"column {col!r} not found in header {header}", row=1)
            where = [header.index(col.strip()) for col in [year_col, *value_cols]]
            years: list[int] = []
            columns: list[list[float]] = [[] for _ in value_cols]  # indexed like value_cols
            row_no = 2
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if rows := [row for row in chunk if "".join(row).strip()]:
                    try:  # a short row or a cell that int() or float() rejects
                        cells = list(zip(*rows))
                        new_years = list(map(int, map(str.strip, cells[where[0]])))
                        new_values = [list(map(float, map(str.strip, cells[i]))) for i in where[1:]]
                        first = years[-1] + 1 if years else new_years[0]
                        valid = all(map(eq, new_years, range(first, first + len(new_years)))) and all(
                            all(map(math.isfinite, values)) and min(values) > 0.0 for values in new_values
                        )
                    except (IndexError, ValueError):
                        valid = False
                    if not valid:
                        raise _first_fault(chunk, row_no, header, where, value_cols, (years or [None])[-1])
                    years += new_years
                    for column, values in zip(columns, new_values):
                        column += values
                row_no += len(chunk)
        except csv.Error as exc:  # drop the " - " remedy: paths are already opened with newline=""
            raise CsvFormatError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None
    if not years:
        raise CsvFormatError("no data rows")
    return [
        TimeSeries(name=col, base_year=years[0], years=tuple(years), values=tuple(values))
        for col, values in zip(value_cols, columns)
    ]


def _first_fault(rows, row_no, header, where, value_cols, year) -> CsvFormatError:
    """The error of the first faulty record of `rows`, numbered from `row_no`.  `where` holds the
    cell index of the year, then of each value column; `year` is that of the record before, or None."""
    for row_no, row in enumerate(rows, start=row_no):
        if not "".join(row).strip():
            continue  # ignore blank lines
        if len(row) <= max(where):
            return CsvFormatError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
        raw_year = row[where[0]].strip()
        try:
            cur = int(raw_year)
        except ValueError:
            return CsvFormatError(f"non-integer year {raw_year!r}", row=row_no)
        if year is not None and cur != year + 1:
            message = f"duplicate year {cur}" if cur == year else f"non-consecutive year {cur} after {year}"
            return CsvFormatError(message, row=row_no)
        year = cur
        for col, i in zip(value_cols, where[1:]):
            raw = row[i].strip()
            try:
                v = float(raw)
            except ValueError:
                return CsvFormatError(f"non-numeric value {raw!r} in column {col!r}", row=row_no)
            if not (math.isfinite(v) and v > 0.0):
                return CsvFormatError(f"non-positive value {raw!r} in column {col!r}", row=row_no)
    raise AssertionError("the column pass rejected records that hold no fault")


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

    The counterpart of `load_series`: values are printed with 17 significant
    digits, which re-reads to the identical float, and the header is quoted
    where a name needs it.  `dest` is a path, a writable text stream or a writable
    byte stream, which is written as UTF-8 and left open.
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
    _write_csv(dest, header, (years, *(s.values for s in series_list)))


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _write_csv(dest, header: Sequence[str], columns) -> None:
    """Write a header row, then one row of 17-digit numbers per index of `columns`.

    `dest` is as in `write_series`.  The header is quoted as `csv` quotes it, so
    `load_series` reads every name back; numbers never need quoting.
    """
    with _text_stream(dest, "w") as stream:
        line = io.StringIO()  # the default "\r\n" terminator makes csv quote a "\r" too
        csv.writer(line).writerow(header)
        stream.write(line.getvalue()[:-2] + "\n")
        fmt = ",".join(["%.17g"] * len(columns)) + "\n"  # "%.17g" % x prints format(x, ".17g")
        for row in zip(*columns):
            if "n" in (text := fmt % row):  # no finite number prints an "n"; "inf" and "nan" do
                list(map(_fmt_float, map(float, row)))  # raises at the first of them
            stream.write(text)
