import csv
import dataclasses
import gc
import io
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodfn import CsvFormatError, TimeSeries, ingest, load_series, normalize_base100, write_series

positive_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


def make_series(values, name="x", base_year=1899):
    return TimeSeries(name=name, base_year=base_year, values=tuple(values))


# ---------------------------------------------------------------------------
# load_series


def test_two_row_parse():
    out = load_series(io.StringIO("year,L\n1899,100\n1900,105\n"), "year", ["L"])
    assert len(out) == 1
    s = out[0]
    assert s.name == "L"
    assert s.base_year == 1899
    assert tuple(s.years) == (1899, 1900)
    assert s.values == (100.0, 105.0)


def test_multiple_value_columns_in_order():
    text = "year,L,K,Y\n1899,100,100,100\n1900,105,107,101\n"
    out = load_series(io.StringIO(text), "year", ["Y", "L"])
    assert [s.name for s in out] == ["Y", "L"]
    assert out[0].values == (100.0, 101.0)


def test_byte_stream_and_path(tmp_path):
    text = "year,L\n1899,100\n1900,105\n"
    from_bytes = load_series(io.BytesIO(text.encode()), "year", ["L"])
    p = tmp_path / "t.csv"
    p.write_text(text)
    from_path = load_series(p, "year", ["L"])
    assert from_bytes == from_path


@pytest.mark.parametrize("text", ["year,L\n1899,100\n1900,105\n", "year,L\n1899,100\n1900,0\n"], ids=["ok", "fault"])
def test_a_byte_stream_is_left_open_and_readable(text):
    src = io.BytesIO(text.encode())
    try:
        load_series(src, "year", ["L"])
    except CsvFormatError:
        pass
    gc.collect()  # a dropped wrapper that still owned `src` would close it here
    assert not src.closed
    src.seek(0)
    assert src.read() == text.encode()


def test_the_same_column_twice_gives_two_equal_series():
    first, second = load_series(io.StringIO("year,L,K\n1899,100,3\n1900,105,4\n"), "year", ["L", "L"])
    assert first == second == TimeSeries("L", 1899, (100.0, 105.0))


def test_24_rows_spanning_1899_1922():
    rows = "".join(f"{y},{100 + i}\n" for i, y in enumerate(range(1899, 1923)))
    (s,) = load_series(io.StringIO("year,L\n" + rows), "year", ["L"])
    assert len(s) == 24
    assert s.years[0] == 1899 and s.years[-1] == 1922


def test_zero_value_reports_row():
    text = "year,L\n1899,100\n1900,0\n"
    with pytest.raises(CsvFormatError, match="row 3"):
        load_series(io.StringIO(text), "year", ["L"])


def test_negative_value_reports_row():
    with pytest.raises(CsvFormatError, match="row 2"):
        load_series(io.StringIO("year,L\n1899,-4\n"), "year", ["L"])


def test_non_numeric_cell_reports_row_and_column():
    with pytest.raises(CsvFormatError, match=r"row 3.*'L'"):
        load_series(io.StringIO("year,L\n1899,100\n1900,oops\n"), "year", ["L"])


def test_missing_column():
    with pytest.raises(CsvFormatError, match="'K' not found"):
        load_series(io.StringIO("year,L\n1899,100\n"), "year", ["K"])


def test_duplicate_year_reports_row():
    with pytest.raises(CsvFormatError, match="row 3.*duplicate"):
        load_series(io.StringIO("year,L\n1899,100\n1899,101\n"), "year", ["L"])


def test_gap_in_years_reports_row():
    with pytest.raises(CsvFormatError, match="row 3.*non-consecutive"):
        load_series(io.StringIO("year,L\n1899,100\n1901,101\n"), "year", ["L"])


def test_non_integer_year_reports_row():
    with pytest.raises(CsvFormatError, match="row 2.*year"):
        load_series(io.StringIO("year,L\n18xx,100\n"), "year", ["L"])


def test_short_row_reports_row():
    with pytest.raises(CsvFormatError, match="row 3"):
        load_series(io.StringIO("year,L\n1899,100\n1900\n"), "year", ["L"])


def test_empty_input_and_header_only():
    with pytest.raises(CsvFormatError, match="header"):
        load_series(io.StringIO(""), "year", ["L"])
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_series(io.StringIO("year,L\n"), "year", ["L"])


def test_no_value_column_is_rejected():
    with pytest.raises(CsvFormatError, match="at least one value column"):
        load_series(io.StringIO("year,L\n1899,1\n"), "year", [])


@pytest.mark.parametrize(
    "text, message",
    [
        ("year,L\n1_899,1\n1900,2\n", "row 2: non-integer year '1_899'"),
        ("year,L\n1899,1\n1900,1_000\n", "row 3: non-numeric value '1_000' in column 'L'"),
        # int() and float() also read every Unicode decimal digit; the dialect takes ASCII ones
        ("year,L\n١٨٩٩,١٠\n1900,2\n", "row 2: non-integer year '١٨٩٩'"),
        ("year,L\n1899,1\n1900,１０\n", "row 3: non-numeric value '１０' in column 'L'"),
    ],
    ids=["year", "value", "arabic-indic-year", "fullwidth-value"],
)
def test_a_digit_separator_is_not_a_number(text, message):
    with pytest.raises(CsvFormatError) as ei:
        load_series(io.StringIO(text), "year", ["L"])
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "x, parse, want",
    [
        ("1.5", float, 1.5),
        ("\xa01899\u2003", int, 1899),
        (" -1e3 ", float, -1000.0),
        ("nan", float, math.nan),
        (7, float, 7.0),
    ],
)
def test_read_number_parses_what_keeps_the_digit_rule(x, parse, want):
    got = ingest._read_number(x, parse)
    assert type(got) is parse and (got == want or math.isnan(want) and math.isnan(got))


@pytest.mark.parametrize("x", [True, False, "1_0", " 0_5 ", "١٠", "１０"])
def test_read_number_rejects_a_boolean_and_text_breaking_the_digit_rule(x):
    with pytest.raises(ValueError) as ei:
        ingest._read_number(x)
    assert str(ei.value) == f"not a number: {x!r}"


def test_non_ascii_padding_around_ascii_digits_is_stripped():
    (s,) = load_series(io.StringIO("year,L\n\xa01899\u2003,\u20031.5\xa0\n1900,2\n"), "year", ["L"])
    assert tuple(s.years) == (1899, 1900) and s.values == (1.5, 2.0)


def test_a_digit_separator_in_a_column_not_asked_for_is_left_alone():
    (s,) = load_series(io.StringIO("year,L,note\n1899,1,1_0\n1900,2,x\n"), "year", ["L"])
    assert tuple(s.years) == (1899, 1900) and s.values == (1.0, 2.0)


FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("year,L\n1899,100\n1900,1" + "0" * csv.field_size_limit() + "\n", f"line 3: {FIELD_LIMIT}"),
        ('year,L,note\n1899,100,"a\nb"\n1900,1' + "0" * csv.field_size_limit() + ",x\n", f"line 4: {FIELD_LIMIT}"),
        ("year," + "L" * (csv.field_size_limit() + 1) + "\n1899,100\n", f"line 1: {FIELD_LIMIT}"),
        ("year,L\n1899,100\n1900,1\r05\n", "line 3: new-line character seen in unquoted field"),
    ],
    ids=["long-cell", "long-cell-after-a-quoted-newline", "long-header", "bare-carriage-return"],
)
def test_input_the_csv_module_cannot_split_names_its_line(text, message):
    with pytest.raises(CsvFormatError) as ei:
        load_series(io.StringIO(text), "year", ["L"])
    assert str(ei.value) == message  # no csv-module remedy such as "universal-newline mode"
    assert ei.value.row is None


@pytest.mark.parametrize(
    "text, message",
    [
        (
            'year,L\n1899,"1\n00"\n1900,1' + "0" * csv.field_size_limit() + "\n",
            "non-numeric value '1\\n00' in column 'L'",
        ),
        ("year,L\n1899,0\n1900,1\r05\n", "non-positive value '0' in column 'L'"),
    ],
    ids=["data-fault-before-a-long-cell", "data-fault-before-a-bare-carriage-return"],
)
def test_the_first_fault_in_record_order_is_reported(text, message):
    with pytest.raises(CsvFormatError) as ei:
        load_series(io.StringIO(text), "year", ["L"])
    assert str(ei.value) == f"row 2: {message}" and ei.value.row == 2


# ---------------------------------------------------------------------------
# the record loop against the row walk reference


# An independent row walk, kept as the reference for load_series' record loop.
def _walk_rows(rows, row_no, header, col_index, year_col, value_cols, years, columns) -> None:
    """Check `rows` one by one from record `row_no`: raise at the first fault, or append them."""
    for row_no, row in enumerate(rows, start=row_no):
        if not row or all(cell.strip() == "" for cell in row):
            continue  # ignore blank lines
        if len(row) <= max(col_index.values()):
            raise CsvFormatError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
        raw_year = row[col_index[year_col]].strip()
        try:
            if "_" in raw_year or not raw_year.isascii():  # int() takes "1_000" and non-ASCII digits
                raise ValueError(raw_year)
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
                if "_" in raw or not raw.isascii():
                    raise ValueError(raw)
                v = float(raw)
            except ValueError:
                raise CsvFormatError(f"non-numeric value {raw!r} in column {col!r}", row=row_no) from None
            if not (math.isfinite(v) and v > 0.0):
                raise CsvFormatError(f"non-positive value {raw!r} in column {col!r}", row=row_no)
            columns[col].append(v)


def _row_walk(text, value_cols):
    """load_series over a "year,..." header with every record checked by the row walk."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    col_index = {c: header.index(c) for c in ["year", *value_cols]}
    years, columns = [], {c: [] for c in value_cols}
    _walk_rows(reader, 2, header, col_index, "year", value_cols, years, columns)
    if not years:
        raise CsvFormatError("no data rows")
    return [TimeSeries(c, years[0], tuple(columns[c])) for c in value_cols]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CsvFormatError as exc:
        return type(exc), str(exc), exc.row


pads = st.sampled_from(["", "", " ", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"])
odd_cells = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1_0", "١٠", "n/a", "", "1e400", "5e-324", "+7.5"])
row_kinds = st.sampled_from(["good"] * 5 + ["odd"] * 3 + ["blank", "spaces", "short", "duplicate", "gap", "newline"])


@st.composite
def csv_texts(draw, kinds=row_kinds, first_years=st.integers(1, 3000)):
    """A "year,L,K" file: mostly good records, mixed with blank, padded, short and faulty ones."""
    year = draw(first_years)  # the next consecutive year
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["year", "L", "K"])
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(kinds)
        if kind == "blank":
            out.writerow([])
            continue
        if kind == "spaces":
            out.writerow(draw(st.lists(pads, min_size=1, max_size=3)))
            continue
        year += {"duplicate": -1, "gap": 1}.get(kind, 0)
        cells = [f"{draw(pads)}{year}{draw(pads)}"]
        if kind != "short":
            cells += [f"{draw(pads)}{draw(st.floats(1e-300, 1e300))!r}{draw(pads)}" for _ in "LK"]
        if kind == "odd":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(odd_cells)
        if kind == "newline":  # a quoted cell spanning two lines: rows count records, not lines
            cells[draw(st.integers(0, len(cells) - 1))] += "\n"
        out.writerow(cells)
        year += 1
    return buf.getvalue()


@given(text=csv_texts(), cols=st.sampled_from([["L", "K"], ["K"]]))
@example(text="year,L,K\n1899,\x1c1.5,2\n1900,3,4\x1f\n", cols=["L", "K"])
@example(text="year,L,K\n1899,1,1\n1900,2,nan\n1901,inf,1\n", cols=["L", "K"])
@example(text="year,L,K\n1899,1,1\n\n1900,2,2\n1900,0,2\n", cols=["L", "K"])
@settings(max_examples=400)
def test_the_record_loop_agrees_with_the_row_walk(text, cols):
    assert _outcome(load_series, io.StringIO(text), "year", cols) == _outcome(_row_walk, text, cols)


def test_padding_that_float_rejects_is_stripped_before_conversion():
    (s,) = load_series(io.StringIO("year,L\n\x1c1899\x1d,\x1e1.5\x1f\n1900,2\n"), "year", ["L"])
    assert tuple(s.years) == (1899, 1900) and s.values == (1.5, 2.0)


@pytest.mark.parametrize("cell, fault", [("0", "non-positive value '0'"), ("x", "non-numeric value 'x'")])
def test_a_fault_past_record_1024_names_its_row(cell, fault):
    bad = 1024 + 7  # a record past the first 1,024; the header is row 1
    rows = [f"{1000 + i},{cell if i == bad else 1.5}\n" for i in range(2 * 1024)]
    text = "year,L\n" + "".join(rows)
    message = f"row {bad + 2}: {fault} in column 'L'"
    with pytest.raises(CsvFormatError) as ei:
        load_series(io.StringIO(text), "year", ["L"])
    assert str(ei.value) == message and ei.value.row == bad + 2
    assert _outcome(_row_walk, text, ["L"]) == (CsvFormatError, message, bad + 2)


def test_every_series_spans_the_accepted_years_across_blank_records():
    n = 2 * 1024 + 5
    records = [f"{1000 + i},{1.5 + i},{2.5 + i}\n" for i in range(n)]
    records[1024 - 1 : 1024 - 1] = ["\n", " , ,\n"]  # blank records 1,024 and 1,025 lie between two years
    out = load_series(io.StringIO("year,L,K\n" + "".join(records)), "year", ["L", "K"])
    for s in out:
        assert s.years == range(1000, 1000 + n) and len(s) == n
    assert [s.values for s in out] == [tuple(1.5 + i for i in range(n)), tuple(2.5 + i for i in range(n))]


# ---------------------------------------------------------------------------
# a path read by numpy's text reader against the csv reader over the same bytes

LIMIT = csv.field_size_limit()
well_formed = st.sampled_from(["good"] * 6 + ["blank"])
huge_years = st.sampled_from([2**63 - 3, 2**63 - 1, -(2**63) - 1, -(2**63), 10**25, -(10**25)])
edits = st.sampled_from(
    ["quote", "nul", "long-extra-cell", "long-used-cell", "blank-record", "header-only", "blank-only"]
    + ["crlf", "cr", "bom", "not-utf8"]
)


@st.composite
def csv_files(draw):
    """The bytes of a `csv_texts` file, often a well-formed one, after up to two edits that the
    numpy path must leave to the csv reader or read as it does."""
    kinds = draw(st.sampled_from([well_formed, well_formed, row_kinds]))
    text = draw(csv_texts(kinds, draw(st.sampled_from([st.integers(1, 3000)] * 3 + [huge_years]))))
    not_utf8 = False
    for edit in draw(st.one_of(st.just([]), st.lists(edits, min_size=1, max_size=2))):
        lines = text.split("\n")
        at = draw(st.integers(0, len(text)))
        i = draw(st.integers(0, len(lines) - 1))
        if edit in ("quote", "nul"):
            text = text[:at] + {"quote": '"', "nul": "\0"}[edit] + text[at:]
        elif edit == "long-extra-cell":  # a cell past the header's columns, which no one asks for
            lines[i] += "," + "x" * (LIMIT + 1)
        elif edit == "long-used-cell":  # zeros that keep the value of the cell after the year
            year, comma, rest = lines[i].partition(",")
            lines[i] = year + comma + "0" * LIMIT + rest
        elif edit == "blank-record":
            blanks = [" ", "\t", ",,", " , ", "\xa0", ",", "\x1c", "\x0b", "\x85", "\u2028"]
            lines.insert(i, draw(st.sampled_from(blanks)))
        elif edit == "header-only":
            lines = lines[:1] + [""]
        elif edit == "blank-only":
            lines = lines[:1] + [""] * draw(st.integers(1, 3))
        elif edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "cr":
            text = text.replace("\n", "\r")
        elif edit == "bom":
            text = "\ufeff" + text
        else:
            not_utf8 = True
        if edit.startswith(("long", "blank", "header")):
            text = "\n".join(lines)
    data = text.encode("utf-8")
    if not_utf8:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x80"])) + data[at:]
    return data


def _bits(source, cols):
    """load_series(source) as the name, base year and value bits of each series, or as its
    exception's type, message and row."""
    try:
        out = load_series(source, "year", cols)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return [
        (s.name, type(s.base_year), s.base_year, {type(v) for v in s.values}, struct.pack(f"{len(s)}d", *s.values))
        for s in out
    ]


@given(data=csv_files(), cols=st.sampled_from([["L", "K"], ["K"], ["K", "L", "K"]]))
@example(data=b'year,name,junk,L,K\n1899,"a,b",9,1,2\n', cols=["L", "K"])  # numpy would read L=9, K=1
@example(data=b"year,L,K\n1899,1,2" + b"0" * LIMIT + b"\n", cols=["L"])  # over the limit, in a column not asked for
@example(data=b"year,L,K\n1899,1,2\n1901,1,2\n", cols=["L"])
@example(data=b"year,L\n9223372036854775807,1\n-9223372036854775808,2\n", cols=["L"])  # int64 differences wrap
@example(data=b"year,L,K\n1899,1,2\n1900,1,0\n", cols=["K"])
@example(data=b"year,L,K\n1899,1,2\n1900,1,nan\n", cols=["L", "K"])
@example(data=b"year,L,K\n1899,1,2\n1900,1,inf\n", cols=["L", "K"])
@example(data=b"year,L,K\n1899.0,1,2\n", cols=["L", "K"])  # older numpy reads this year through float
@example(data=b"year,L,K\n1899,1,2\n1900,1,2\xe9\n", cols=["L", "K"])
@example(data=b"year,L,K\n1899,1,2\n", cols=["L", "M"])
@settings(max_examples=300, deadline=None)
def test_a_path_reads_as_the_csv_reader_reads_its_bytes(data, cols, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(path, cols) == _bits(io.BytesIO(data), cols)


@pytest.mark.parametrize(
    "text",
    [
        "year,L,K\n1899,1.5,2\n1900,3,4\n",
        "year,L,K\r\n1899,1.5,2\r\n1900,3,4\r\n",
        "year,L,K\r1899,1.5,2\r1900,3,4",
        "year, L ,K,extra\n\n\x1c1899\xa0,\u20031.5 ,2,x\n\n1900,3,4\n",
        "K,year,L\n2,9223372036854775806,1e-300\n4,9223372036854775807,1e300\n",
    ],
    ids=["lf", "crlf", "cr", "padding-and-blank-lines", "int64-max"],
)
def test_a_well_formed_file_never_reaches_the_record_loop(text, tmp_path):
    path = tmp_path / "well_formed.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(ingest, "_text_stream", side_effect=AssertionError("the record loop ran")):
        got = load_series(path, "year", ["L", "K", "L"])
    assert got == load_series(io.BytesIO(text.encode("utf-8")), "year", ["L", "K", "L"])


@pytest.mark.parametrize(
    "text", ["year,L,K\n1899,1.5,2\n1900,3,4\n", 'year,"L",K\n1899,1.5,2\n1900,3,4\n'], ids=["numpy", "record-loop"]
)
def test_a_byte_order_mark_before_the_header_is_dropped(text, tmp_path):
    path = tmp_path / "marked.csv"
    path.write_text("\ufeff" + text, encoding="utf-8")
    want = load_series(io.StringIO(text), "year", ["L", "K"])
    for source in (path, io.BytesIO(path.read_bytes()), io.StringIO("\ufeff" + text)):
        assert load_series(source, "year", ["L", "K"]) == want


def test_the_field_limit_is_read_when_the_file_is(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("year,L,K\n1899,1,123456789\n")
    old = csv.field_size_limit(8)
    try:
        with pytest.raises(CsvFormatError, match=r"^line 2: field larger than field limit \(8\)$"):
            load_series(path, "year", ["L"])
    finally:
        csv.field_size_limit(old)


# ---------------------------------------------------------------------------
# TimeSeries invariants


def test_a_series_stores_its_name_base_year_and_values_alone():
    assert [f.name for f in dataclasses.fields(TimeSeries)] == ["name", "base_year", "values"]
    s = TimeSeries("x", 1899, (1.0, 2.0, 3.0))
    assert type(s.years) is range and s.years == range(1899, 1902) and len(s) == 3


def test_series_requires_positive_values():
    with pytest.raises(CsvFormatError):
        make_series([1.0, 0.0])


def test_series_requires_a_value_per_year():
    with pytest.raises(CsvFormatError, match="is empty"):
        TimeSeries(name="x", base_year=1899, values=())


def _first_series_fault(values):
    """The message of the first bad value, walking the series as TimeSeries once always did."""
    for year, v in enumerate(values, start=1899):
        if not (math.isfinite(v) and v > 0.0):
            return f"series 'x': value at {year} must be positive, got {v!r}"
    return None


@given(
    values=st.lists(
        st.sampled_from([1.0, 2.5, 5e-324, 1e308, 0.0, -0.0, -1.0, math.inf, math.nan]), min_size=1, max_size=13
    )
)
@settings(max_examples=300)
def test_series_check_names_the_first_fault(values):
    message = _first_series_fault(values)
    try:
        TimeSeries(name="x", base_year=1899, values=tuple(values))
    except CsvFormatError as exc:
        assert str(exc) == message
    else:
        assert message is None


# ---------------------------------------------------------------------------
# normalize_base100


def test_normalize_scales_by_two():
    s = normalize_base100(make_series([50.0, 100.0, 150.0]))
    assert s.values == (100.0, 200.0, 300.0)


def test_normalize_identity_when_already_base_100():
    original = make_series([100.0, 107.0, 114.0])
    assert normalize_base100(original) is original


def test_normalize_preserves_consecutive_ratios():
    s = normalize_base100(make_series([106.65, 113.2, 95.4, 201.9]))
    base = make_series([106.65, 113.2, 95.4, 201.9])
    assert s.values[0] == 100.0
    for i in range(1, 4):
        got = s.values[i] / s.values[i - 1]
        want = base.values[i] / base.values[i - 1]
        assert got == pytest.approx(want, rel=1e-12)


@given(values=positive_values)
@settings(max_examples=200)
def test_normalize_is_idempotent(values):
    once = normalize_base100(make_series(values))
    twice = normalize_base100(once)
    assert once.values[0] == 100.0
    assert twice == once


@given(values=positive_values)
@settings(max_examples=200)
def test_normalize_preserves_pairwise_ratios(values):
    s = make_series(values)
    n = normalize_base100(s)
    for i in range(len(values)):
        for j in range(len(values)):
            assert n.values[i] / n.values[j] == pytest.approx(
                s.values[i] / s.values[j], rel=1e-12
            )


# ---------------------------------------------------------------------------
# serialization round trip


def test_write_then_load_round_trips_floats():
    s1 = make_series([106.65, 113.2, 95.4000000001, 201.9], name="L")
    s2 = make_series([0.123456789012345678, 7.25, 1e-3, 99.0], name="K")
    buf = io.StringIO()
    write_series([s1, s2], buf)
    back = load_series(io.StringIO(buf.getvalue()), "year", ["L", "K"])
    assert back[0].values == s1.values
    assert back[1].values == s2.values
    assert back[0].years == s1.years


@given(
    base_year=st.integers(-(10**6), 10**6),
    rows=st.lists(st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 2), min_size=1),
)
@settings(max_examples=200)
def test_written_series_read_back_equal(base_year, rows):
    series = [TimeSeries(name, base_year, column) for name, column in zip("LK", zip(*rows))]
    buf = io.StringIO()
    write_series(series, buf)
    assert load_series(io.StringIO(buf.getvalue()), "year", ["L", "K"]) == series


@pytest.mark.parametrize("base_year", [2**53 + 1, 10**17, 2**63 - 1, 2**70, -(2**70)])
def test_a_year_is_written_as_an_integer_and_read_back(base_year, tmp_path):
    series = [make_series([1.5, 2.5], name="L", base_year=base_year)]
    write_series(series, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == f"year,L\n{base_year},1.5\n{base_year + 1},2.5\n"
    assert load_series(tmp_path / "out.csv", "year", ["L"]) == series


def test_write_to_a_byte_stream_leaves_it_open():
    buf = io.BytesIO()
    write_series([make_series([106.65, 2.5], name="L")], buf)
    assert not buf.closed
    assert buf.getvalue() == b"year,L\n1899,106.65000000000001\n1900,2.5\n"


def test_write_rejects_mismatched_years():
    with pytest.raises(CsvFormatError):
        write_series([make_series([1.0, 2.0]), make_series([1.0, 2.0], base_year=1900)], io.StringIO())


def test_write_rejects_no_series():
    with pytest.raises(CsvFormatError, match="nothing to write"):
        write_series([], io.StringIO())


@pytest.mark.parametrize("name", ["L,1", 'say "K"', "line\nbreak", "cr\rname", " padded,"])
def test_write_then_load_round_trips_a_name_that_needs_quoting(name, tmp_path):
    s = make_series([106.65, 113.2], name=name)
    other = make_series([1.0, 2.0], name="K")
    buf = io.StringIO()
    write_series([s, other], buf)
    back = load_series(io.StringIO(buf.getvalue()), "year", [name.strip(), "K"])
    assert [b.values for b in back] == [s.values, other.values]
    write_series([s, other], tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes().decode("utf-8") == buf.getvalue()
    back = load_series(tmp_path / "out.csv", "year", [name.strip(), "K"])
    assert [b.values for b in back] == [s.values, other.values]


@pytest.mark.parametrize("name", [" padded,", "  L  ", "\tK,1 ", "line\nbreak "])
def test_write_then_load_finds_a_series_under_its_exact_name(name, tmp_path):
    s = make_series([106.65, 113.2], name=name)
    other = make_series([1.0, 2.0], name="K")
    buf = io.StringIO()
    write_series([s, other], buf)
    back = load_series(io.StringIO(buf.getvalue()), "year", [name, "K"])
    assert [(b.name, b.values) for b in back] == [(name, s.values), ("K", other.values)]
    write_series([s, other], tmp_path / "out.csv")
    back = load_series(tmp_path / "out.csv", "year", [name, "K"])
    assert [(b.name, b.values) for b in back] == [(name, s.values), ("K", other.values)]


# ---------------------------------------------------------------------------
# _write_csv bytes: the numpy block path against the per-row `%` rendering it stands for

# exact ties, powers of ten and their neighbours, the edges of fixed notation, zeros, subnormals
# and the edges of the block path's range
EDGE_CELLS = [
    12374637281.4296875, 3 * 2**-24, 0.5, 2.5, 1e-5, 1e-4, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999999.0,
    0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e308, 1e280, 1e-280, 1e22, 1e23, 0.1,
    *(y for k in range(-300, 301, 7) for y in (10.0**k, math.nextafter(10.0**k, 0), math.nextafter(10.0**k, math.inf))),
]
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_CELLS + [-x for x in EDGE_CELLS]),
)
rows_of_cells = st.lists(st.tuples(st.integers(-(10**6), 10**6), cells, cells), max_size=20)
block_rows = st.sampled_from([1, 3, 2048])  # rows per block: several blocks, or one


def _per_cell(rows):
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in rows)


@given(rows=rows_of_cells, block=block_rows)
@settings(max_examples=300)
def test_write_csv_prints_each_cell_as_format_17g(rows, block):
    columns = tuple(zip(*rows)) if rows else ((), (), ())
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        buf = io.StringIO()
        ingest._write_csv(buf, ("year", "a", "b"), columns)
        assert buf.getvalue() == "year,a,b\n" + _per_cell(rows)
        buf = io.StringIO()
        ingest._write_csv(buf, ("t", "a", "b"), tuple(np.array(col, dtype=np.float64) for col in columns))
        assert buf.getvalue() == "t,a,b\n" + _per_cell([tuple(map(float, row)) for row in rows])


@given(years=st.lists(st.integers(-(2**70), 2**70) | st.sampled_from([0, -1, 10**16 - 1, 10**16, 2**63]), max_size=20),
       block=block_rows)
@settings(max_examples=200)
def test_write_csv_prints_a_year_as_format_d(years, block):
    values = [1.0 + i / 3 for i in range(len(years))]
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        buf = io.StringIO()
        ingest._write_csv(buf, ("year", "a"), (tuple(years), tuple(values)), first="%d")
    assert buf.getvalue() == "year,a\n" + "".join(f"{y},{v:.17g}\n" for y, v in zip(years, values))


def test_write_csv_prints_columns_longer_than_one_block():
    n = 2 * ingest._BLOCK_ROWS + 5
    rng = np.random.default_rng(29)
    columns = (np.arange(n) * 0.25, rng.lognormal(0.0, 40.0, n), -rng.uniform(0.0, 1e-3, n), rng.integers(-9, 9, n) / 8)
    buf = io.StringIO()
    ingest._write_csv(buf, ("t", "a", "b", "c"), columns)
    assert buf.getvalue() == "t,a,b,c\n" + _per_cell(zip(*(c.tolist() for c in columns)))
    buf = io.StringIO()
    ingest._write_csv(buf, ("t", "a", "b", "c"), (range(-5, n - 5), *columns[1:]), first="%d")
    assert buf.getvalue() == "t,a,b,c\n" + "".join(
        f"{year}," + _per_cell([row]) for year, row in zip(range(-5, n - 5), zip(*(c.tolist() for c in columns[1:])))
    )


def test_write_csv_matches_format_17g_on_random_bit_patterns():
    # the block path takes the finite values in its range, every other one goes row by row
    x = np.random.default_rng(2029).integers(0, 2**64, 240_000, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    a = np.abs(x)
    inside = (a == 0) | ((a > 1e-280) & (a < 1e280))
    for part, block_path in ((x[inside], True), (x[~inside], False)):
        columns = tuple(part[: len(part) // 4 * 4].reshape(4, -1))
        texts, format_rows = [], ingest._format_rows

        def spy(*args):
            texts.append(format_rows(*args))
            return texts[-1]

        buf = io.StringIO()
        with mock.patch.object(ingest, "_format_rows", spy):
            ingest._write_csv(buf, ("a", "b", "c", "d"), columns)
        assert buf.getvalue() == "a,b,c,d\n" + _per_cell(zip(*(c.tolist() for c in columns)))
        assert texts and all((text is not None) == block_path for text in texts)
    assert inside.sum() >= 200_000


def test_write_csv_leaves_an_unproven_half_to_the_per_row_loop():
    powers = np.full((4, ingest._S_MAX - ingest._S_MIN + 1), np.nan)
    # an exact tie where 10**6 is a double goes the block path; 10**23 is none, so 3·2**-24 does not
    assert ingest._format_rows([(12374637281.4296875,)], False, powers) == "12374637281.429688\n"
    assert ingest._format_rows([(3 * 2**-24,)], False, powers) is None
    buf = io.StringIO()
    ingest._write_csv(buf, ("a",), [(3 * 2**-24,)])
    assert buf.getvalue() == "a\n1.7881393432617188e-07\n"


@given(
    rows=rows_of_cells,
    k=st.integers(0, 20),
    bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    col=st.integers(1, 2),
    block=block_rows,
)
@settings(max_examples=200)
def test_write_csv_stops_before_a_non_finite_row(rows, k, bad, col, block):
    k = min(k, len(rows))
    row = list(rows[k]) if k < len(rows) else [1, 1.0, 1.0]
    row[col] = bad
    if col == 1 and bad == math.inf:
        row[2] = math.nan  # only the first non-finite cell of the row is named
    rows = [*rows[:k], tuple(row), *rows[k:]]
    buf = io.StringIO()
    with mock.patch.object(ingest, "_BLOCK_ROWS", block), pytest.raises(ValueError) as ei:
        ingest._write_csv(buf, ("year", "a", "b"), tuple(zip(*rows)))
    assert str(ei.value) == f"cannot serialize non-finite float {bad!r}"
    assert buf.getvalue() == "year,a,b\n" + _per_cell(rows[:k])
