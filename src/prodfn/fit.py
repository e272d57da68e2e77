"""Least-squares estimation of exponential growth parameters from series.

Each series is fit by ordinary least squares of ln(value) against
t = year - base_year, solved in closed form from centered sums.  Exact
exponential data is therefore recovered to machine precision, and the slope
does not depend on the chosen time origin.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, ExponentialModel, FitDiagnostics, ProdfnError
from .ingest import TimeSeries


class SeriesAlignmentError(ProdfnError):
    """Series passed to a joint fit do not cover the same years."""


def fit_log_linear(series: TimeSeries) -> tuple[float, float, FitDiagnostics]:
    """OLS fit of ln(value) = ln_x0 + b*t, t in years since the base year.

    Returns (b, ln_x0, diagnostics).  The normal equations are solved in
    closed form (no iterative solver), so results are deterministic across
    platforms.  A constant series yields b = 0 and, by convention for the
    zero-variance case, r_squared = 1.
    """
    n = len(series)
    if n < 2:
        raise DomainError(f"series {series.name!r}: need at least 2 points, got {n}")
    t = np.arange(n, dtype=float)  # years - base_year: the years are consecutive
    y = np.log(np.asarray(series.values, dtype=float))

    tc = t - t.mean()
    st2 = float(np.dot(tc, tc))  # > 0: n >= 2 consecutive years
    yc = y - y.mean()
    b = float(np.dot(tc, yc) / st2)
    ln_x0 = float(y.mean() - b * t.mean())

    resid = y - (ln_x0 + b * t)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(yc, yc))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    diag = FitDiagnostics(
        slope=b,
        intercept=ln_x0,
        r_squared=r2,
        residual_max_abs=float(np.abs(resid).max()),
        n_points=n,
    )
    return b, ln_x0, diag


def fit_system(
    labor: TimeSeries, capital: TimeSeries, output: TimeSeries
) -> tuple[ExponentialModel, tuple[FitDiagnostics, FitDiagnostics, FitDiagnostics]]:
    """Fit all three series and pack the result as an ExponentialModel.

    The series must cover identical year ranges; the shared first year
    becomes the model's base year.
    """
    if not labor.years == capital.years == output.years:
        detail = ", ".join(f"{s.name}: {s.years[0]}..{s.years[-1]}" for s in (labor, capital, output))
        raise SeriesAlignmentError(f"series cover different year ranges ({detail})")

    b1, ln_L0, diag_L = fit_log_linear(labor)
    b2, ln_K0, diag_K = fit_log_linear(capital)
    b3, ln_Y0, diag_Y = fit_log_linear(output)
    model = ExponentialModel(
        b1=b1, b2=b2, b3=b3,
        ln_L0=ln_L0, ln_K0=ln_K0, ln_Y0=ln_Y0,
        base_year=labor.base_year,
    )
    return model, (diag_L, diag_K, diag_Y)
