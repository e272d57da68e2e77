import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodfn import CsvFormatError, TimeSeries, load_series, normalize_base100, write_series

positive_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


def make_series(values, name="x", base_year=1899):
    years = tuple(range(base_year, base_year + len(values)))
    return TimeSeries(name=name, base_year=base_year, years=years, values=tuple(values))


# ---------------------------------------------------------------------------
# load_series


def test_two_row_parse():
    out = load_series(io.StringIO("year,L\n1899,100\n1900,105\n"), "year", ["L"])
    assert len(out) == 1
    s = out[0]
    assert s.name == "L"
    assert s.base_year == 1899
    assert s.years == (1899, 1900)
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


# ---------------------------------------------------------------------------
# TimeSeries invariants


def test_series_requires_consecutive_years():
    with pytest.raises(CsvFormatError):
        TimeSeries(name="x", base_year=1899, years=(1899, 1901), values=(1.0, 2.0))


def test_series_requires_matching_base_year():
    with pytest.raises(CsvFormatError):
        TimeSeries(name="x", base_year=1900, years=(1899, 1900), values=(1.0, 2.0))


def test_series_requires_positive_values():
    with pytest.raises(CsvFormatError):
        make_series([1.0, 0.0])


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


def test_write_rejects_mismatched_years():
    with pytest.raises(CsvFormatError):
        write_series([make_series([1.0, 2.0]), make_series([1.0, 2.0], base_year=1900)], io.StringIO())


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
