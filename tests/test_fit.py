import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodfn import (
    DomainError,
    SeriesAlignmentError,
    TimeSeries,
    fit_log_linear,
    fit_system,
)

slopes = st.floats(min_value=-0.2, max_value=0.2).filter(lambda b: abs(b) >= 1e-3)
intercepts = st.floats(min_value=1.0, max_value=6.0)


def exponential_series(b, ln_x0, n=24, base_year=1899, name="x"):
    values = tuple(math.exp(ln_x0 + b * t) for t in range(n))
    return TimeSeries(name=name, base_year=base_year, values=values)


def constant_series(c, n=3, name="x"):
    return TimeSeries(name=name, base_year=1899, values=(c,) * n)


def test_constant_series_has_zero_slope_and_unit_r2():
    b, ln_x0, diag = fit_log_linear(constant_series(7.5))
    assert b == 0.0
    assert ln_x0 == pytest.approx(math.log(7.5), rel=1e-15)
    assert diag.r_squared == 1.0  # zero-variance convention
    assert diag.residual_max_abs <= 1e-15
    assert diag.n_points == 3


def test_recovers_generating_parameters():
    s = exponential_series(0.03, 4.6)
    b, ln_x0, diag = fit_log_linear(s)
    assert b == pytest.approx(0.03, rel=1e-12)
    assert ln_x0 == pytest.approx(4.6, rel=1e-12)
    assert diag.r_squared == pytest.approx(1.0, abs=1e-12)
    assert diag.slope == b and diag.intercept == ln_x0


@given(b=slopes, ln_x0=intercepts, n=st.integers(min_value=2, max_value=60))
@settings(max_examples=300)
def test_round_trip_recovery(b, ln_x0, n):
    got_b, got_ln, _ = fit_log_linear(exponential_series(b, ln_x0, n=n))
    assert got_b == pytest.approx(b, rel=1e-10)
    assert got_ln == pytest.approx(ln_x0, rel=1e-10)


@given(b=slopes, ln_x0=intercepts, c=st.floats(min_value=0.01, max_value=100))
@settings(max_examples=200)
def test_scaling_values_only_shifts_intercept(b, ln_x0, c):
    s = exponential_series(b, ln_x0)
    scaled = TimeSeries(name=s.name, base_year=s.base_year, values=tuple(v * c for v in s.values))
    b0, ln0, _ = fit_log_linear(s)
    b1, ln1, _ = fit_log_linear(scaled)
    assert b1 == pytest.approx(b0, rel=1e-12)
    assert ln1 == pytest.approx(ln0 + math.log(c), rel=1e-12)


def test_slope_independent_of_calendar_origin():
    # same values labeled 1899-1922 and 0-23: t = year - base_year is identical
    a = exponential_series(0.04, 2.0, base_year=1899)
    b = exponential_series(0.04, 2.0, base_year=0)
    fa, la, _ = fit_log_linear(a)
    fb, lb, _ = fit_log_linear(b)
    assert fa == fb
    assert la == lb


def test_residual_zero_iff_exactly_exponential():
    exact = exponential_series(0.05, 3.0)
    _, _, diag = fit_log_linear(exact)
    assert diag.residual_max_abs <= 1e-12

    bent = list(exact.values)
    bent[10] *= 1.02
    _, _, diag2 = fit_log_linear(
        TimeSeries(name="x", base_year=1899, values=tuple(bent))
    )
    assert diag2.residual_max_abs > 1e-12
    assert diag2.r_squared < 1.0


def test_rejects_short_series():
    with pytest.raises(DomainError, match="at least 2"):
        fit_log_linear(constant_series(1.0, n=1))


# ---------------------------------------------------------------------------
# fit_system


def test_fit_system_round_trip():
    labor = exponential_series(0.02, 4.1, name="L")
    capital = exponential_series(0.06, 4.2, name="K")
    output = exponential_series(0.035, 4.3, name="Y")
    model, (dl, dk, dy) = fit_system(labor, capital, output)
    assert model.b1 == pytest.approx(0.02, rel=1e-12)
    assert model.b2 == pytest.approx(0.06, rel=1e-12)
    assert model.b3 == pytest.approx(0.035, rel=1e-12)
    assert model.ln_L0 == pytest.approx(4.1, rel=1e-12)
    assert model.ln_K0 == pytest.approx(4.2, rel=1e-12)
    assert model.ln_Y0 == pytest.approx(4.3, rel=1e-12)
    assert model.base_year == 1899
    assert (dl.n_points, dk.n_points, dy.n_points) == (24, 24, 24)


def test_fit_system_constant_series():
    model, _ = fit_system(
        constant_series(100.0, name="L"),
        constant_series(50.0, name="K"),
        constant_series(75.0, name="Y"),
    )
    assert (model.b1, model.b2, model.b3) == (0.0, 0.0, 0.0)


def test_fit_system_rejects_mismatched_ranges():
    with pytest.raises(SeriesAlignmentError) as ei:
        fit_system(
            exponential_series(0.02, 4.0, name="L", base_year=1899),
            exponential_series(0.06, 4.0, name="K", base_year=1900),
            exponential_series(0.035, 4.0, name="Y", base_year=1899),
        )
    assert str(ei.value) == "series cover different year ranges (L: 1899..1922, K: 1900..1923, Y: 1899..1922)"


def test_fit_system_compares_years_even_where_names_repeat():
    first = TimeSeries("x", 1899, (1.0, 2.0, 4.0))
    with pytest.raises(SeriesAlignmentError) as ei:
        fit_system(first, TimeSeries("x", 1950, (1.0, 3.0, 9.0)), first)
    assert str(ei.value) == "series cover different year ranges (x: 1899..1901, x: 1950..1952, x: 1899..1901)"


def test_fit_of_generated_trajectory_matches_model(cd1928):
    # generate 24 annual points from the model itself, refit, compare
    values = {
        "L": [math.exp(cd1928.ln_L0 + cd1928.b1 * t) for t in range(24)],
        "K": [math.exp(cd1928.ln_K0 + cd1928.b2 * t) for t in range(24)],
        "Y": [math.exp(cd1928.ln_Y0 + cd1928.b3 * t) for t in range(24)],
    }
    series = {
        name: TimeSeries(name=name, base_year=1899, values=tuple(vals))
        for name, vals in values.items()
    }
    model, _ = fit_system(series["L"], series["K"], series["Y"])
    assert model.b1 == pytest.approx(cd1928.b1, rel=1e-12)
    assert model.b2 == pytest.approx(cd1928.b2, rel=1e-12)
    assert model.b3 == pytest.approx(cd1928.b3, rel=1e-12)
    assert model.ln_L0 == pytest.approx(cd1928.ln_L0, rel=1e-12)
