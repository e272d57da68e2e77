"""CSV ingestion of annual index series and base-100 normalization.

Expected CSV dialect: UTF-8, comma-separated, one header row, decimal point
'.', no thousands separators.  Years must be consecutive integers and all
values strictly positive; nothing is interpolated, deflated or smoothed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import islice
from operator import eq
from pathlib import Path
from typing import IO, Sequence

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


def _open_text(source) -> tuple[IO[str], bool]:
    """Return (text stream, owns_handle) for a path, text stream or byte stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary stream
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def load_series(source, year_col: str, value_cols: Sequence[str]) -> list[TimeSeries]:
    """Read one TimeSeries per value column from a CSV with a header row.

    `source` may be a path, an open text stream, or an open byte stream.
    Every structural problem (missing column, non-numeric cell, non-positive
    value, duplicate or non-consecutive year) is reported with the number of
    the record where it occurs: the header is row 1, and a quoted cell spanning
    lines is one record.  Input the csv module cannot split into records (a
    cell over its field size limit, a bare carriage return inside an unquoted
    cell) is reported with the line where reading stopped.  Columns are matched
    with surrounding whitespace stripped from both names; each series keeps the
    name it was asked for.
    """
    if not value_cols:
        raise CsvFormatError("at least one value column is required")
    stream, owns = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty input: missing header row", row=1) from None
        header = [h.strip() for h in header]
        col_index: dict[str, int] = {}
        for col in [year_col, *value_cols]:
            if col.strip() not in header:
                raise CsvFormatError(f"column {col!r} not found in header {header}", row=1)
            col_index[col] = header.index(col.strip())

        years: list[int] = []
        columns: dict[str, list[float]] = {c: [] for c in value_cols}
        row_no = 2
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            try:  # a short row, a cell that int() or float() rejects, or an all-blank chunk
                cells = list(zip(*[row for row in chunk if "".join(row).strip()]))
                new_years = list(map(int, cells[col_index[year_col]]))
                new_values = [list(map(float, cells[col_index[col]])) for col in value_cols]
                first = years[-1] + 1 if years else new_years[0]
                fast = all(map(eq, new_years, range(first, first + len(new_years)))) and all(
                    all(map(math.isfinite, values)) and min(values) > 0.0 for values in new_values
                )
            except (IndexError, ValueError):
                fast = False
            if not fast:  # the row walk names the first fault, or accepts cells strip() mends
                _walk_rows(chunk, row_no, header, col_index, year_col, value_cols, years, columns)
            else:
                years += new_years
                for col, values in zip(value_cols, new_values):
                    columns[col] += values
            row_no += len(chunk)
        if not years:
            raise CsvFormatError("no data rows")
    except csv.Error as exc:  # a cell over the field size limit, a bare '\r' in an unquoted cell
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    finally:
        if owns:
            stream.close()

    return [
        TimeSeries(name=col, base_year=years[0], years=tuple(years), values=tuple(columns[col]))
        for col in value_cols
    ]


def _walk_rows(rows, row_no, header, col_index, year_col, value_cols, years, columns) -> None:
    """Check `rows` one by one from record `row_no`: raise at the first fault, or append them."""
    for row_no, row in enumerate(rows, start=row_no):
        if not row or all(cell.strip() == "" for cell in row):
            continue  # ignore blank lines
        if len(row) <= max(col_index.values()):
            raise CsvFormatError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
        raw_year = row[col_index[year_col]].strip()
        try:
            year = int(raw_year)
        except ValueError:
            raise CsvFormatError(f"non-integer year {raw_year!r}", row=row_no) from None
        if years:
            if year == years[-1]:
                raise CsvFormatError(f"duplicate year {year}", row=row_no)
            if year != years[-1] + 1:
                raise CsvFormatError(f"non-consecutive year {year} after {years[-1]}", row=row_no)
        years.append(year)
        for col in value_cols:
            raw = row[col_index[col]].strip()
            try:
                v = float(raw)
            except ValueError:
                raise CsvFormatError(f"non-numeric value {raw!r} in column {col!r}", row=row_no) from None
            if not (math.isfinite(v) and v > 0.0):
                raise CsvFormatError(f"non-positive value {raw!r} in column {col!r}", row=row_no)
            columns[col].append(v)


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
    where a name needs it.  `dest` is a path or a writable text stream.
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

    `dest` is a path or a writable text stream.  The header is quoted as
    `csv` quotes it, so `load_series` reads every name back; numbers never
    need quoting.
    """
    if isinstance(dest, (str, Path)):
        stream, owns = open(dest, "w", encoding="utf-8", newline=""), True
    else:
        stream, owns = dest, False
    try:
        line = io.StringIO()  # the default "\r\n" terminator makes csv quote a "\r" too
        csv.writer(line).writerow(header)
        stream.write(line.getvalue()[:-2] + "\n")
        fmt = ",".join(["%.17g"] * len(columns)) + "\n"  # "%.17g" % x prints format(x, ".17g")
        for row in zip(*columns):
            if "n" in (text := fmt % row):  # no finite number prints an "n"; "inf" and "nan" do
                list(map(_fmt_float, map(float, row)))  # raises at the first of them
            stream.write(text)
    finally:
        if owns:
            stream.close()
