"""CSV ingestion of annual index series and base-100 normalization.

Expected CSV dialect: UTF-8, comma-separated, one header row, ASCII digits,
decimal point '.', no thousands or `_` digit separators.  Years must be
consecutive integers and all values strictly positive; nothing is
interpolated, deflated or smoothed.  That digit rule is the program's one
number rule: `_read_number` applies it to every number read from outside,
CSV cells, JSON fields and command-line options alike.  A well-formed file
named by its path is read by numpy's C text reader instead, which takes no
`_` and no digit outside ASCII either; every other input, and every error,
is left to one loop over the records of the `csv` reader.  Both drop a byte
order mark before the header.
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
    """The stripped header `row`, less a byte order mark before its first cell (Excel's "CSV UTF-8"
    writes one), and the cell index of the year, then of each value column."""
    header = [h.strip() for h in row]
    if header:
        header[0] = row[0].removeprefix("\ufeff").strip()
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
    split at "\n", "\r\n" and "\r", as a file opened with newline="" splits them: by
    `str.splitlines`, unless the text holds one of the other line boundaries it knows.  Unlike
    `io.StringIO(text).readlines()`, it builds no 4-byte-per-character copy of the text; that
    copy grows from a minimal allocation, which after a worker thread has run can belong to the
    thread's malloc arena, and glibc then keeps the copy's pages there (README, "Grid kernels").
    """
    try:  # a UnicodeDecodeError is a ValueError
        if '"' in (text := data.decode("utf-8")) or "\0" in text:
            return None
        if any(c in text for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
            lines = io.StringIO(text, newline="").readlines()
        else:
            lines = text.splitlines(keepends=True)
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


_BLOCK_ROWS = 1024  # rows `_write_csv` formats in one numpy pass (README, "Library quickstart", on its size)


def _write_csv(dest, header: Sequence[str], columns: Sequence[Sequence], first: str = _FLOAT_FORMAT) -> None:
    """Write a header row, then one row of numbers per index of `columns`: the first column's
    printed with the `first` template, "%d" or the float one, every other one with 17 significant digits.

    `dest` is as in `write_series`.  The header is quoted as `csv` quotes it, so
    `load_series` reads every name back; numbers never need quoting.  `_format_rows` prints the
    rows `_BLOCK_ROWS` at a time; a block it refuses goes through `fmt % row` one row at a time,
    which names the first non-finite value after writing the rows before it.  Each row is one
    `write` (README, "Library quickstart").
    """
    with _text_stream(dest) as stream:
        line = io.StringIO()  # the default "\r\n" terminator makes csv quote a "\r" too
        csv.writer(line).writerow(header)
        stream.write(line.getvalue()[:-2] + "\n")
        fmt = ",".join([first, *[_FLOAT_FORMAT] * (len(columns) - 1)]) + "\n"
        powers = np.full((4, _S_MAX - _S_MIN + 1), np.nan)
        for start in range(0, min(map(len, columns), default=0), _BLOCK_ROWS):
            block = [column[start : start + _BLOCK_ROWS] for column in columns]
            if (text := _format_rows(block, first == "%d", powers)) is not None:
                stream.writelines(text.splitlines(keepends=True))
                continue
            for row in zip(*block):
                if "n" in (text := fmt % row):
                    list(map(_fmt_float, map(float, row)))  # raises at the first of them
                stream.write(text)


_S_MIN, _S_MAX = -270, 300  # the range of s in |x|·10**s that `_decimal` may need


# The lookup tables of `_cells`, built once at import and read-only:
# _DIGITS  the ASCII of 0000..9999 as uint64, the first digit in the lowest byte
# _HEADS   lane 0 by min(X, 0) + 4 + 5·negative: "-", then "0." and zeros for X < 0
# _ABOVE   _ABOVE[k, i]: the bytes of lane k + 1 at or past byte i of lanes 1-3
# _POINT   _POINT[k, i]: "." at byte i of lanes 1-3, if it falls in lane k + 1
# _TAILS   by X + 300: "e", the sign and the exponent's digits for scientific notation, else 0
_d = np.arange(10, dtype=np.uint64) + ord("0")
_DIGITS = (_d[:, None, None, None] | _d[:, None, None] << 8 | _d[:, None] << 16 | _d << 24).ravel()
_HEADS = np.array([int.from_bytes((sign + ("0." + "0" * (-x - 1) if x < 0 else "")).encode(), "little")
                   for sign in ("", "-") for x in range(-4, 1)], np.uint64)
_ABOVE = np.array([[~((1 << 8 * min(max(i - 8 * k, 0), 8)) - 1) % 2**64 for i in range(25)] for k in range(3)], np.uint64)
_POINT = np.array([[ord(".") << 8 * (i - 8 * k) if 0 <= i - 8 * k < 8 else 0 for i in range(25)] for k in range(3)], np.uint64)
_x = np.arange(-300, 301)
_exponent = _DIGITS[np.abs(_x)] >> np.where(np.abs(_x) < 100, 16, 8).astype(np.uint64)  # "0ddd" less 2 or 1 digits
_sign = np.where(_x < 0, ord("-"), ord("+")).astype(np.uint64)
_TAILS = np.where((_x < -4) | (_x > 16), ord("e") | _sign << 8 | _exponent << 16, 0).astype(np.uint64)
for _table in (_DIGITS, _HEADS, _ABOVE, _POINT, _TAILS):
    _table.flags.writeable = False
del _d, _x, _exponent, _sign, _table


def _format_rows(columns, years: bool, powers: np.ndarray) -> str | None:
    """The CSV text of the rows of `columns`, each cell byte for byte `'%.17g' % x`, or `'%d' % x`
    for the first column if `years`.  None for a block `_write_csv` prints row by row: one with no
    float column, anything but bool, int and float values, columns of unequal length, a non-finite
    value, a nonzero |x| outside (1e-280, 1e280), a year of 10**16 or more in magnitude, or a value
    whose rounding `_decimal` cannot prove.  `powers` is as in `_decimal`."""
    arrays = [np.arange(c.start, c.stop, c.step) if _small_range(c) else np.asarray(c) for c in columns]
    rows, cols = len(arrays[0]), len(arrays)
    if cols == years or any(a.ndim != 1 or a.dtype.kind not in "biuf" or len(a) != rows for a in arrays):
        return None
    if years and (arrays[0].dtype.kind == "f" or not ((arrays[0] > -(10**16)) & (arrays[0] < 10**16)).all()):
        return None
    x = np.empty((rows, cols - years))
    for j, a in enumerate(arrays[years:]):
        x[:, j] = a
    if (decimal := _decimal(x.ravel(), powers)) is None:
        return None
    D, X, neg = (np.empty((rows, cols), t) for t in (np.int64, np.int64, bool))
    D[:, years:], X[:, years:] = (v.reshape(rows, -1) for v in decimal)
    neg[:, years:] = np.signbit(x)
    if years:  # |y| < 10**16 is D = |y|·10**(16 - X) with X + 1 its digits, so it prints as an integer
        y = arrays[0].astype(np.int64)
        D[:, 0] = np.abs(y)
        powers = 10 ** np.arange(17)
        X[:, 0] = np.maximum(np.searchsorted(powers[:16], D[:, 0], side="right") - 1, 0)
        D[:, 0] *= powers[16 - X[:, 0]]
        neg[:, 0] = y < 0
    sep = np.full((rows, cols), ord(",") << 56, np.uint64)
    sep[:, -1] = ord("\n") << 56
    return _cells(D.ravel(), X.ravel(), neg.ravel(), sep.ravel())


def _small_range(column) -> bool:
    """Whether `column` is a non-empty range of ints below 10**16 in magnitude, which np.arange
    builds in C where np.asarray would read each int."""
    return isinstance(column, range) and len(column) > 0 and max(abs(column[0]), abs(column[-1])) < 10**16


def _decimal(x: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(D, X) with |x| = D·10**(X - 16) rounded half to even to 17 digits, D in [10**16, 10**17)
    or 0 for a zero; None if any |x| is nonzero outside (1e-280, 1e280), a NaN included, or any
    rounding falls within 2**-30 of a half without being an exact tie.  `powers` caches the rows of
    `_pow10(s)` by s - _S_MIN: NaN until a block needs them, filled here, one array per `_write_csv` call.

    The exponent is first estimated by `log10` and corrected where the 17-digit integer falls
    outside [10**16, 10**17).  |x|·10**s is then floor(|x|·hi + |x|·lo) for a double-double
    10**s = hi + lo built from Python ints, to within 1e-14; where 0 <= s <= 22, 10**s is a
    double, lo is 0 and the product is exact, so a fraction of exactly 0.5 is a tie.  The range
    keeps lo, Dekker's split and the products clear of overflow and of subnormals.
    """
    a = np.abs(x)
    a[zero := a == 0] = 1.0  # printed as 0 below
    if not ((a < 1e280) & (a > 1e-280)).all():
        return None
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    first = int(s.min()) - 1 - _S_MIN
    if len(new := np.flatnonzero(np.isnan(powers[0, first : int(s.max()) + 2 - _S_MIN])) + first):
        powers[:, new] = np.array([_pow10(int(j) + _S_MIN) for j in new]).T
    D, r = _scaled(a, powers[:, s - _S_MIN])
    if (step := _exponent_step(D, r)).any():
        i = np.flatnonzero(step)
        s[i] += step[i]
        D[i], r[i] = _scaled(a[i], powers[:, s[i] - _S_MIN])
        if _exponent_step(D[i], r[i]).any():
            return None
    up = r > 0.5
    if (near := np.abs(r - 0.5) < 2**-30).any():
        if ((s[near] < 0) | (s[near] > 22)).any():
            return None
        up |= (r == 0.5) & (D & 1 == 1)
    D += up
    carry = D == 10**17
    D[carry] = 10**16
    D[zero] = 0
    return D, 16 - s + carry


def _pow10(k: int) -> tuple[float, float, float, float]:
    """(hi, lo, h1, h2): hi the double nearest 10**k, lo the double nearest 10**k - hi (int
    division is correctly rounded), and hi = h1 + h2 split into halves of 26 bits for Dekker's
    product: 2**27 + 1 is the splitter."""
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        hi = 1 / 10**-k
        n, d = hi.as_integer_ratio()
        lo = (d - n * 10**-k) / (d * 10**-k)
    c = hi * 134217729.0
    h1 = c - (c - hi)
    return hi, lo, h1, hi - h1


def _scaled(a: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a·(hi + lo)) as int64 and the fraction left over, for `power` the rows of `_pow10`:
    a·hi = p + e exactly, by Dekker's product, plus a·lo.  From 2**53 up, p is an integer, and a
    smaller p only occurs where `_exponent_step` corrects the exponent."""
    hi, lo, h1, h2 = power
    p = a * hi
    c = a * 134217729.0
    a1 = c - (c - a)
    a2 = a - a1
    fraction = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo
    carry = np.floor(fraction)
    return p.astype(np.int64) + carry.astype(np.int64), fraction - carry


def _exponent_step(D: np.ndarray, r: np.ndarray) -> np.ndarray:
    """+1 where the scaled value has fewer than 17 digits, -1 where it has more; a fraction within
    2**-30 of 1 counts as the next integer, which rounds the same at either exponent."""
    top = D + (r > 1 - 2**-30)
    return (top < 10**16).astype(np.int64) - (top >= 10**17)


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each v < 10**8 as uint64, the first in the lowest byte."""
    h = v // 10**4
    return _DIGITS[h] | _DIGITS[v - h * 10**4] << 32


_ZEROS = 0x3030303030303030  # "00000000"


def _cells(D: np.ndarray, X: np.ndarray, neg: np.ndarray, sep: np.ndarray) -> str:
    """The text of the cells ±D[i]·10**(X[i] - 16) as `%.17g` prints them, each followed by sep[i],
    a byte in the top byte of a uint64; C's `%g` rules: scientific notation for X < -4 or X >= 17,
    trailing zeros and a bare "." dropped, an exponent of at least 2 digits.

    A cell is built in little-endian uint64 lanes, the first byte lowest, whose NUL bytes the join
    drops.  Lanes 1-3 hold the 17 digits with a "." inserted after the integer digits and the
    bytes past the last one printed cleared, at most 18 bytes, then the exponent from byte 18 and
    `sep` in byte 23.  Lane 0, left out of a block that needs none, holds the sign, then "0." and
    zeros for a fixed-notation X < 0.
    """
    sci = (X < -4) | (X > 16)
    Xf = np.where(sci, 0, X)  # scientific notation lays out d.dddd as X = 0 does
    top = D // 10**9
    rest = D - top * 10**9
    mid = rest // 10
    last = (rest - mid * 10).astype(np.uint64)
    lanes = [_ascii8(top), _ascii8(mid), last + ord("0")]
    # significant digits: a lane of digit values keeps bits 4-7 of each byte clear, so its float
    # conversion cannot round up to the next power of two, and frexp's exponent is its bit length
    nbytes = [(np.frexp(lane - _ZEROS)[1] + 7) // 8 for lane in lanes[:2]]
    nd = np.where(last != 0, 17, np.where(nbytes[1] > 0, 8 + nbytes[1], nbytes[0]))
    lead = np.minimum(Xf, 0) + 4 + 5 * neg
    head = bool((lead != 4).any())
    out = np.empty((len(D), 3 + head), "<u8")
    if head:
        out[:, 0] = _HEADS[lead]
    dot = np.where(Xf >= 0, Xf + 1, 24)  # past the digits: the "." of a fixed-notation X < 0 is in lane 0
    length = np.where(Xf >= 0, np.where(nd > Xf + 1, nd + 1, Xf + 1), nd)
    moved = 0  # the bytes of the previous lane past the "."
    for k, lane in enumerate(lanes):  # lane + high·255: the bytes below the "." stay, the rest move up one
        high = lane & _ABOVE[k][dot]
        out[:, head + k] = (lane + high * 255 | moved >> 56 | _POINT[k][dot]) & ~_ABOVE[k][length]
        moved = high
    out[:, -1] |= _TAILS[X + 300] << 16 | sep
    return out.tobytes().translate(None, b"\0").decode("ascii")
