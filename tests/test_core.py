import math
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodfn import (
    CES,
    CobbDouglas,
    DomainError,
    ExponentialModel,
    Factor,
    FitDiagnostics,
    GeneralizedCES,
    PowerLaw,
    evaluate,
    trajectory,
)
from prodfn import core
from prodfn.core import _inside_exp
from conftest import CD1928, on_cpus, thread_blocks

finite_rates = st.floats(min_value=-0.2, max_value=0.2, allow_nan=False)
log_levels = st.floats(min_value=-2.0, max_value=6.0, allow_nan=False)


# ---------------------------------------------------------------------------
# trajectory


def test_trajectory_zero_growth_is_flat():
    m = ExponentialModel(b1=0.0, b2=0.1, b3=0.1, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    for t in (-5.0, 0.0, 3.25, 100.0):
        L, _, _ = trajectory(m, t)
        assert L == 1.0


def test_trajectory_at_zero_is_exactly_initial(cd1928):
    L, K, Y = trajectory(cd1928, 0.0)
    assert L == math.exp(cd1928.ln_L0)
    assert K == math.exp(cd1928.ln_K0)
    assert Y == math.exp(cd1928.ln_Y0)
    # the labor index starts near 106.65
    assert L == pytest.approx(106.65, abs=5e-3)


def test_trajectory_direct_exponentiation():
    # oracle: exponentiate the rates by hand
    m = ExponentialModel(b1=0.1, b2=0.2, b3=0.3, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    L, K, Y = trajectory(m, 10.0)
    assert L == pytest.approx(math.exp(1.0), rel=1e-15)
    assert K == pytest.approx(math.exp(2.0), rel=1e-15)
    assert Y == pytest.approx(math.exp(3.0), rel=1e-15)


def test_trajectory_vectorized_matches_scalar(cd1928):
    t = np.array([0.0, 1.0, 12.5, 23.0])
    L, K, Y = trajectory(cd1928, t)
    assert L.shape == K.shape == Y.shape == t.shape
    for i, ti in enumerate(t):
        ls, ks, ys = trajectory(cd1928, float(ti))
        assert (L[i], K[i], Y[i]) == (ls, ks, ys)


def test_trajectory_overflow_names_variable_and_time():
    m = ExponentialModel(b1=1.0, b2=0.0, b3=0.0, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    with pytest.raises(DomainError, match=r"L\(t\) overflows at t = 1000"):
        trajectory(m, 1000.0)


def test_trajectory_rejects_nonfinite_t(cd1928):
    with pytest.raises(DomainError):
        trajectory(cd1928, float("nan"))
    with pytest.raises(DomainError):
        trajectory(cd1928, np.array([0.0, float("inf")]))


@given(t=st.floats(min_value=-40, max_value=40))
def test_trajectory_solves_the_growth_ode(t):
    # centered finite difference with h = 1e-4 against the rate equations
    m = CD1928
    h = 1e-4
    for pick, b in ((0, m.b1), (1, m.b2), (2, m.b3)):
        x_plus = trajectory(m, t + h)[pick]
        x_minus = trajectory(m, t - h)[pick]
        x = trajectory(m, t)[pick]
        deriv = (x_plus - x_minus) / (2 * h)
        assert deriv == pytest.approx(b * x, rel=1e-6)


# ---------------------------------------------------------------------------
# evaluate


def test_cobb_douglas_geometric_mean():
    fn = CobbDouglas(A=1.0, alpha=0.5, beta=0.5)
    assert evaluate(fn, 4.0, 9.0) == pytest.approx(6.0, rel=1e-12)


def test_ces_at_p_one_is_weighted_arithmetic_mean():
    fn = CES(A=1.0, alpha=0.5, p=1.0, v=1.0)
    assert evaluate(fn, 2.0, 4.0) == pytest.approx(3.0, rel=1e-12)
    assert fn.sigma is None


def test_cobb_douglas_at_equal_inputs():
    # A = 1.01, alpha = 0.75 and constant returns: at L = K = 100, Y = 101
    fn = CobbDouglas(A=1.01, alpha=0.75, beta=0.25)
    assert evaluate(fn, 100.0, 100.0) == pytest.approx(101.0, rel=1e-12)


def test_power_law_reads_only_its_input():
    fn = PowerLaw(coeff=2.0, exponent=3.0, input=Factor.LABOR)
    assert evaluate(fn, 2.0, 7.0) == evaluate(fn, 2.0, 9999.0) == pytest.approx(16.0)
    fn_k = PowerLaw(coeff=1.0, exponent=0.5, input=Factor.CAPITAL)
    assert evaluate(fn_k, 123.0, 49.0) == pytest.approx(7.0, rel=1e-12)


def test_evaluate_rejects_nonpositive_inputs():
    fn = CobbDouglas(A=1.0, alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        evaluate(fn, 0.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(fn, 1.0, -2.0)
    with pytest.raises(DomainError):
        evaluate(fn, np.array([1.0, float("nan")]), np.array([1.0, 1.0]))


def test_evaluate_rejects_a_non_function():
    with pytest.raises(TypeError, match="not a production function"):
        evaluate(object(), 1.0, 1.0)


def test_evaluate_vectorized():
    fn = CobbDouglas(A=2.0, alpha=0.3, beta=0.6)
    L = np.array([1.0, 4.0, 9.0])
    K = np.array([1.0, 2.0, 3.0])
    y = evaluate(fn, L, K)
    assert y.shape == (3,)
    assert y[0] == pytest.approx(2.0)


@given(
    s=st.floats(min_value=0.1, max_value=10),
    L=st.floats(min_value=0.5, max_value=200),
    K=st.floats(min_value=0.5, max_value=200),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    beta=st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=200)
def test_cobb_douglas_homogeneity(s, L, K, alpha, beta):
    fn = CobbDouglas(A=1.7, alpha=alpha, beta=beta)
    lhs = evaluate(fn, s * L, s * K)
    rhs = s ** (alpha + beta) * evaluate(fn, L, K)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(
    s=st.floats(min_value=0.1, max_value=10),
    L=st.floats(min_value=0.5, max_value=200),
    K=st.floats(min_value=0.5, max_value=200),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    p=st.floats(min_value=-3.0, max_value=3.0).filter(lambda p: abs(p) > 1e-3),
    v=st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=200)
def test_ces_homogeneity_of_degree_v(s, L, K, alpha, p, v):
    fn = CES(A=0.9, alpha=alpha, p=p, v=v)
    lhs = evaluate(fn, s * L, s * K)
    rhs = s**v * evaluate(fn, L, K)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_generalized_ces_evaluation_survives_huge_inner_exponents():
    # 1/b-style exponents near 100 overflow naive term-by-term evaluation
    fn = GeneralizedCES(cK=1e250, cL=1e-200, alpha=0.5, eK=90.0, eL=80.0, outer=0.01)
    y = evaluate(fn, 50.0, 50.0)
    assert math.isfinite(y) and y > 0


def _reference_ces_family(fn, L, K):
    """The two CES-family expressions of `evaluate`, each written out in full."""
    L, K = np.asarray(L, dtype=float), np.asarray(K, dtype=float)
    if isinstance(fn, GeneralizedCES):
        log_sum = np.logaddexp(
            math.log(fn.cK) + fn.eK * np.log(K),
            math.log(fn.cL) + fn.eL * np.log(L),
        )
        return np.exp(fn.outer * log_sum)
    log_sum = np.logaddexp(
        math.log(fn.alpha) + fn.p * np.log(K),
        math.log1p(-fn.alpha) + fn.p * np.log(L),
    )
    return fn.A * np.exp((fn.v / fn.p) * log_sum)


# inner exponents up to 1/b of order 100, outer ones that keep most values finite
coefficients = st.floats(min_value=1e-250, max_value=1e250)
inner = st.floats(min_value=-150.0, max_value=150.0).filter(lambda e: e != 0.0)
outer = st.floats(min_value=-2.0, max_value=2.0)
shares = st.floats(min_value=1e-6, max_value=1 - 1e-6)
ces_family = st.one_of(
    st.builds(GeneralizedCES, cK=coefficients, cL=coefficients, alpha=shares, eK=inner, eL=inner, outer=outer),
    st.builds(CES, A=coefficients, alpha=shares, p=inner, v=outer),
)
factor_levels = st.floats(min_value=1e-3, max_value=1e4)


@given(fn=ces_family, inputs=st.lists(st.tuples(factor_levels, factor_levels), min_size=1, max_size=8))
@example(fn=GeneralizedCES(cK=1e250, cL=1e-200, alpha=0.5, eK=90.0, eL=80.0, outer=0.01), inputs=[(50.0, 50.0)])
@example(fn=CES(A=1.0, alpha=0.3, p=300.0, v=1.0), inputs=[(1e200, 1e-200), (2.0, 3.0)])
@settings(max_examples=300)
def test_ces_family_evaluation_is_bit_equal_to_the_written_out_expressions(fn, inputs):
    L, K = (np.array(x) for x in zip(*inputs))
    with np.errstate(over="ignore", under="ignore"):
        expected = _reference_ces_family(fn, L, K)
        assert evaluate(fn, L, K).tobytes() == expected.tobytes()
        assert np.float64(evaluate(fn, L[0], K[0])).tobytes() == _reference_ces_family(fn, L[0], K[0]).tobytes()


# ---------------------------------------------------------------------------
# type invariants


def test_model_requires_finite_fields():
    with pytest.raises(DomainError):
        ExponentialModel(b1=float("nan"), b2=0.0, b3=0.0, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    with pytest.raises(DomainError):
        ExponentialModel(b1=0.0, b2=0.0, b3=0.0, ln_L0=float("inf"), ln_K0=0.0, ln_Y0=0.0)


def test_initial_level_accessors(cd1928):
    assert cd1928.L0 == math.exp(cd1928.ln_L0)
    assert cd1928.Y0 > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: PowerLaw(coeff=0.0, exponent=1.0, input=Factor.LABOR),
        lambda: PowerLaw(coeff=-1.0, exponent=1.0, input=Factor.CAPITAL),
        lambda: CobbDouglas(A=1.0, alpha=0.0, beta=0.5),
        lambda: CobbDouglas(A=1.0, alpha=1.0, beta=0.5),
        lambda: CobbDouglas(A=-1.0, alpha=0.5, beta=0.5),
        lambda: GeneralizedCES(cK=0.0, cL=1.0, alpha=0.5, eK=1.0, eL=1.0, outer=1.0),
        lambda: GeneralizedCES(cK=1.0, cL=1.0, alpha=1.5, eK=1.0, eL=1.0, outer=1.0),
        lambda: CES(A=1.0, alpha=0.5, p=0.0, v=1.0),
        lambda: CES(A=0.0, alpha=0.5, p=1.0, v=1.0),
        lambda: CES(A=1.0, alpha=-0.1, p=1.0, v=1.0),
    ],
)
def test_production_function_invariants_rejected(make):
    with pytest.raises(DomainError):
        make()


def test_ces_sigma_accessor():
    assert CES(A=1.0, alpha=0.4, p=2.0, v=0.5).sigma == pytest.approx(-1.0)
    assert CES(A=1.0, alpha=0.4, p=0.5, v=1.0).sigma == pytest.approx(2.0)
    assert CES(A=1.0, alpha=0.4, p=1.0, v=1.0).sigma is None


def test_fit_diagnostics_invariants():
    with pytest.raises(DomainError):
        FitDiagnostics(slope=0.0, intercept=0.0, r_squared=1.5, residual_max_abs=0.0, n_points=5)
    with pytest.raises(DomainError):
        FitDiagnostics(slope=0.0, intercept=0.0, r_squared=0.5, residual_max_abs=0.0, n_points=1)


@pytest.mark.parametrize(
    "rates, t, message",
    [
        ((1.0, 0.0, 0.0), 1000.0, "L(t) overflows at t = 1000.0"),
        ((1.0, 0.0, 0.0), np.array([0.0, 700.0, 709.5, 710.0, 800.0]), "L(t) overflows at t = 710.0"),
        ((0.0, 2.0, 3.0), np.array([0.0, 300.0, 400.0]), "K(t) overflows at t = 400.0"),
        ((0.0, 2.0, 3.0), 355.0, "K(t) overflows at t = 355.0"),
    ],
)
def test_trajectory_overflow_message_names_first_t(rates, t, message):
    b1, b2, b3 = rates
    m = ExponentialModel(b1=b1, b2=b2, b3=b3, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    with pytest.raises(DomainError) as ei:
        trajectory(m, t)
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "t, message",
    [
        (-8000.0, "Y(t) underflows to 0 at t = -8000.0"),
        (np.array([0.0, -7000.0, -7460.0, -8000.0]), "Y(t) underflows to 0 at t = -7460.0"),
        (np.array([[0.0, -100.0], [-7999.0, -8000.0]]), "Y(t) underflows to 0 at t = -7999.0"),
    ],
)
def test_trajectory_underflow_names_first_t(t, message):
    m = ExponentialModel(b1=0.02, b2=0.03, b3=0.1, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    with pytest.raises(DomainError) as ei:
        trajectory(m, t)
    assert str(ei.value) == message


def test_trajectory_reports_the_first_bad_t_of_either_kind():
    m = ExponentialModel(b1=1.0, b2=0.0, b3=0.0, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    with pytest.raises(DomainError, match=r"^L\(t\) overflows at t = 800.0$"):
        trajectory(m, np.array([800.0, -800.0]))
    with pytest.raises(DomainError, match=r"^L\(t\) underflows to 0 at t = -800.0$"):
        trajectory(m, np.array([-800.0, 800.0]))


def test_trajectory_keeps_subnormal_levels_and_empty_t():
    m = ExponentialModel(b1=1.0, b2=0.0, b3=0.0, ln_L0=0.0, ln_K0=0.0, ln_Y0=0.0)
    L, _, _ = trajectory(m, -740.0)
    assert 0.0 < L < 2.2250738585072014e-308
    L, _, _ = trajectory(m, np.array([], dtype=float))
    assert L.shape == (0,)


# ---------------------------------------------------------------------------
# the grid-ends rule against the former checked walk


# The trajectory that checked every level element by element, kept unchanged
# as the reference for the differential test below.
def _walked_trajectory(model, t):
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise DomainError("t must be finite")
    with np.errstate(over="ignore"):
        L = np.exp(model.ln_L0 + model.b1 * t_arr)
        K = np.exp(model.ln_K0 + model.b2 * t_arr)
        Y = np.exp(model.ln_Y0 + model.b3 * t_arr)
    for name, x in (("L", L), ("K", K), ("Y", Y)):
        ok = x > 0.0
        ok &= x < np.inf  # x is never nan: its exponent is finite or +-inf
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            what = "overflows" if np.ravel(x)[i] == np.inf else "underflows to 0"
            raise DomainError(f"{name}(t) {what} at t = {float(np.ravel(t_arr)[i])}")
    if t_arr.ndim == 0:
        return float(L), float(K), float(Y)
    return L, K, Y


def _levels(path, model, t):
    """The bytes, dtype, shape and type of each level, or the DomainError message."""
    try:
        levels = path(model, t)
    except DomainError as exc:
        return str(exc)
    return type(levels), [
        (type(x), x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else (type(x), x.hex())
        for x in levels
    ]


# where exp overflows and underflows to 0, and the bounds of the grid-ends rule
EXP_EDGES = [(709.782712893384, -745.1332191019411), (709.0, -745.0)]
edge_rates = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 5.0, -5.0, 1e-300, 1e300]),
    st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False),
)


@st.composite
def models_and_grids(draw):
    rates = [draw(edge_rates) for _ in range(3)]
    lns = [draw(st.floats(min_value=-20.0, max_value=20.0)) for _ in range(3)]
    if draw(st.booleans()):  # three equal levels: a point at an edge for one is at the edge for all
        rates, lns = rates[:1] * 3, lns[:1] * 3
    m = ExponentialModel(*rates, *lns)
    points = draw(st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=6))
    edges = draw(st.sampled_from(EXP_EDGES))
    for _ in range(draw(st.integers(0, 3))):  # a point whose argument lies a few ulps from an edge
        i = draw(st.integers(0, 2))
        if rates[i] != 0.0:
            t = (draw(st.sampled_from(edges)) - lns[i]) / rates[i]
            ulps = draw(st.integers(-4, 4))
            for _ in range(abs(ulps)):
                t = math.nextafter(t, math.copysign(math.inf, ulps))
            points.insert(draw(st.integers(0, len(points))), t)
    for _ in range(draw(st.integers(0, 1))):  # NaN, +-inf, or a finite t where b*t overflows
        special = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e303]))
        points.insert(draw(st.integers(0, len(points))), special)
    shape = draw(st.sampled_from(["1-d", "0-d", "0-d array", "2-d"]))
    if shape == "0-d" and points:
        return m, points[0]
    if shape == "0-d array" and points:
        return m, np.array(points[0])
    if shape == "2-d" and len(points) % 2 == 0:
        return m, np.array(points, dtype=float).reshape(2, -1)
    return m, np.array(points, dtype=float)


@given(models_and_grids())
@example((ExponentialModel(5.0, 5.0, 5.0, 0.0, 0.0, 0.0), np.arange(0.0, 1e308, 1e303)))  # b*t overflows
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.array([5.0, 708.9999999999999, -744.9999999999999])))
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.array([5.0, 709.0, -3.0])))
@example((ExponentialModel(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.array([[0.0, 745.0], [3.0, -2.0]])))
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.array([], dtype=float)))
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), -745.0))
@settings(max_examples=600)
def test_grid_ends_rule_agrees_with_the_checked_walk(model_and_grid):
    m, t = model_and_grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _levels(trajectory, m, t) == _levels(_walked_trajectory, m, t)


def test_a_grid_inside_the_range_of_exp_is_not_walked(cd1928, monkeypatch):
    def walked(x):
        raise AssertionError("the checked walk ran")

    t = np.arange(0.0, 24.25, 0.25)
    want, want_scalar = _walked_trajectory(cd1928, t), _walked_trajectory(cd1928, 3.0)
    monkeypatch.setattr(np, "isfinite", walked)
    assert all(np.array_equal(a, b) for a, b in zip(trajectory(cd1928, t), want))
    assert trajectory(cd1928, 3.0) == want_scalar
    with pytest.raises(AssertionError, match="walk"):
        trajectory(cd1928, 1e6)


# ---------------------------------------------------------------------------
# the one-formula trajectory against the former two-formula one


# The trajectory with one copy of the level formula per path (t*b + ln_X0 inside
# the grid-ends rule, ln_X0 + b*t outside it), kept unchanged as the reference
# for the differential test below.
def trajectory_reference(model, t):
    t_arr = np.asarray(t, dtype=float)
    if _inside_exp(model, t_arr):
        levels = []
        for ln0, b in ((model.ln_L0, model.b1), (model.ln_K0, model.b2), (model.ln_Y0, model.b3)):
            x = t_arr * b
            x += ln0
            levels.append(np.exp(x, out=x) if t_arr.ndim else float(np.exp(x)))
        return tuple(levels)
    if not np.isfinite(t_arr).all():
        raise DomainError("t must be finite")
    with np.errstate(over="ignore"):
        L = np.exp(model.ln_L0 + model.b1 * t_arr)
        K = np.exp(model.ln_K0 + model.b2 * t_arr)
        Y = np.exp(model.ln_Y0 + model.b3 * t_arr)
    for name, x in (("L", L), ("K", K), ("Y", Y)):
        ok = x > 0.0
        ok &= x < np.inf  # x is never nan: its exponent is finite or +-inf
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            what = "overflows" if np.ravel(x)[i] == np.inf else "underflows to 0"
            raise DomainError(f"{name}(t) {what} at t = {float(np.ravel(t_arr)[i])}")
    if t_arr.ndim == 0:
        return float(L), float(K), float(Y)
    return L, K, Y


def _under_errstate(path, model, t, mode):
    """`_levels` of path(model, t) or its FloatingPointError, under np.errstate `mode` (None: the default;
    "call": every event recorded); with every warning and every recorded event."""
    events = []
    state = {None: {}, "call": {"all": "call", "call": lambda err, flag: events.append(err)}}.get(mode, {"all": mode})
    with warnings.catch_warnings(record=True) as caught, np.errstate(**state):
        warnings.simplefilter("always")
        try:
            result = _levels(path, model, t)
        except FloatingPointError as exc:
            result = type(exc), str(exc)
    return result, [str(w.message) for w in caught], events


# exponents where exp is finite and nonzero but the grid-ends rule fails, and where it is not
MARGIN = st.one_of(st.floats(709.0, 709.78, exclude_max=True), st.floats(-745.13, -745.0, exclude_min=True))
BEYOND = st.one_of(st.floats(709.79, 800.0), st.floats(-800.0, -745.14))


@st.composite
def formula_cases(draw):
    """(model, t): grids inside the range of exp, grids with a point whose exponent lies in the margin
    between the grid-ends rule and the float range or beyond it, grids with NaN or +-inf; 1-D, empty,
    0-d and 2-D."""
    rates = [draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0, 5.0, -5.0]), st.floats(-10.0, 10.0))) for _ in range(3)]
    lns = [draw(st.floats(-20.0, 20.0)) for _ in range(3)]
    points = draw(st.lists(st.floats(-30.0, 30.0), max_size=6))
    kind = draw(st.sampled_from(["inside", "margin", "beyond", "special"]))
    last = points[0] if points else None
    for _ in range(draw(st.integers(1, 2))):
        nonzero = [i for i in range(3) if rates[i] != 0.0]
        if kind in ("margin", "beyond") and nonzero:
            i = draw(st.sampled_from(nonzero))
            t = (draw(MARGIN if kind == "margin" else BEYOND) - lns[i]) / rates[i]
            for j in range(3):  # keep the other levels inside the float range at t
                if j != i and not -745.0 < lns[j] + rates[j] * t < 709.0:
                    rates[j] = 0.0
        elif kind == "special":
            t = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            continue
        points.insert(draw(st.integers(0, len(points))), t)
        last = t  # a 0-d grid takes the last point placed
    m = ExponentialModel(*rates, *lns)
    shape = draw(st.sampled_from(["1-d", "0-d", "0-d array", "2-d"]))
    if shape == "0-d" and points:
        return m, last
    if shape == "0-d array" and points:
        return m, np.array(last)
    if shape == "2-d" and len(points) % 2 == 0:
        return m, np.array(points, dtype=float).reshape(2, -1)
    return m, np.array(points, dtype=float)


@given(formula_cases(), st.sampled_from([None, "raise", "ignore", "call"]))
@example((ExponentialModel(1.0, 0.5, 0.0, 0.0, 0.0, 0.0), np.array([0.0, 709.5, 3.0])), "raise")
@example((ExponentialModel(-1.0, 0.0, 2.0, 0.0, 0.0, 0.0), np.array([[745.1, 1.0], [0.0, 2.0]])), "call")
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), -745.1), None)
@example((ExponentialModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.array([], dtype=float)), "raise")
@settings(max_examples=500)
def test_one_formula_trajectory_is_the_two_formula_reference(case, mode):
    m, t = case
    assert _under_errstate(trajectory, m, t, mode) == _under_errstate(trajectory_reference, m, t, mode)


# ---------------------------------------------------------------------------
# a long grid's levels filled by the caller and one worker thread


def _split_is_serial(block, m, t, mode):
    threads = threading.active_count()
    want = _under_errstate(trajectory_reference, m, t, mode)
    with thread_blocks(block):
        assert _under_errstate(trajectory, m, t, mode) == want
    assert threading.active_count() == threads


@given(st.sampled_from([1, 2, 3]), formula_cases(), st.sampled_from([None, "raise", "ignore", "call"]))
@example(1, (ExponentialModel(1.0, 0.5, 0.0, 0.0, 0.0, 0.0), np.array([0.0, -720.0, 3.0, 4.0])), None)  # underflow
@example(1, (ExponentialModel(1.0, 0.5, 0.0, 0.0, 0.0, 0.0), np.array([0.0, 1.0, 3.0, -720.0])), "call")
@example(2, (ExponentialModel(1.0, 0.5, 0.0, 0.0, 0.0, 0.0), np.array([0.0, 3.0, -720.0, 709.5])), "raise")
@settings(max_examples=500)
def test_split_trajectory_is_the_serial_reference(block, case, mode):
    _split_is_serial(block, *case, mode)


@pytest.mark.parametrize("mode", [None, "raise", "ignore", "call"])
@pytest.mark.parametrize("at", [0, -1], ids=["caller", "worker"])
def test_split_trajectory_at_the_real_block_size(cd1928, at, mode):
    t = np.linspace(0.0, 24.0, 2 * core._THREAD_BLOCK + 5)
    _split_is_serial(core._THREAD_BLOCK, cd1928, t, mode)
    t[at] = -29.0  # L(t) is subnormal: an underflow in one part
    m = ExponentialModel(b1=1.0, b2=0.01, b3=0.02, ln_L0=-690.0, ln_K0=0.0, ln_Y0=0.0)
    _split_is_serial(core._THREAD_BLOCK, m, t, mode)


# ---------------------------------------------------------------------------
# the grid driver: which thread runs which slice, and what an exception does


def _slices(n, cpus, block=None):
    """core._blocks(n, work, block) on `cpus` CPUs with a work that records each slice: its results, and no thread
    left running."""
    caller, threads = threading.get_ident(), threading.active_count()

    def work(s):
        return s.start, s.stop, threading.get_ident() == caller, np.geterr()

    with on_cpus(cpus):
        results = core._blocks(n, work, block)
    assert threading.active_count() == threads
    return results


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [1, 97, 8191, 8192, 8193, 16385, 32767, 32768, 10**6])
def test_blocks_cover_the_grid_in_order_under_raise(n, cpus):
    results = _slices(n, cpus)
    starts, stops = [r[0] for r in results], [r[1] for r in results]
    assert starts == [0, *stops[:-1]] and stops[-1] == n
    assert all(errs == {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
               for *_, errs in results)


def test_blocks_on_one_cpu_run_block_slices_in_the_caller():
    n = 10**6
    with mock.patch.object(core.threading, "Thread", side_effect=AssertionError("a thread started")):
        results = _slices(n, 1)
    assert [(start, stop) for start, stop, _, _ in results] == [(s, min(s + core._BLOCK, n))
                                                                  for s in range(0, n, core._BLOCK)]
    assert all(in_caller for _, _, in_caller, _ in results)
    assert core._BLOCK == 8192


def test_blocks_on_two_cpus_split_thread_block_slices_at_the_cut():
    n = 10**6
    with on_cpus(2):
        cut = core._cut(n)
    results = _slices(n, 2)
    assert cut == 31 * core._THREAD_BLOCK
    assert [(start, stop) for start, stop, _, _ in results] == [
        (s, min(s + core._THREAD_BLOCK, cut if s < cut else n)) for s in [*range(0, cut, core._THREAD_BLOCK),
                                                                        *range(cut, n, core._THREAD_BLOCK)]]
    assert [in_caller for _, _, in_caller, _ in results] == [start < cut for start, _, _, _ in results]
    assert core._THREAD_BLOCK == 16384


@pytest.mark.parametrize("cpus", [1, 2])
def test_blocks_of_a_given_size_give_one_slice_per_part(cpus):
    n = 10**6
    results = _slices(n, cpus, n)
    assert [(start, stop, in_caller) for start, stop, in_caller, _ in results] == (
        [(0, 31 * 16384, True), (31 * 16384, n, False)] if cpus == 2 else [(0, n, True)])


class _Failure(Exception):
    pass


def _in_run(ident):
    """Whether thread `ident` is inside the driver's part loop: until it has left it, the other part cannot see
    the exception it raised."""
    frame = sys._current_frames().get(ident)
    while frame is not None:
        if frame.f_code.co_name == "run" and frame.f_code.co_filename == core.__file__:
            return True
        frame = frame.f_back
    return False


def _gated_blocks(raising, gated):
    """core._blocks over 8 thread blocks of 4 points on 2 CPUs. The first slice of each part in `raising` (True: the
    caller's, False: the worker's) raises a `_Failure`. Each slice waits until the other part has begun, and each
    slice of the `gated` part until the other part has left its loop. The exception raised, each part's `_Failure`
    and the parts of the slices begun."""
    caller, threads = threading.get_ident(), threading.active_count()
    failures, idents, begun = {True: _Failure("the caller's"), False: _Failure("the worker's")}, {}, []

    def work(s):
        in_caller = threading.get_ident() == caller
        idents[in_caller] = threading.get_ident()
        begun.append(in_caller)
        deadline = time.monotonic() + 10.0
        while not idents.get(not in_caller) or in_caller == gated and _in_run(idents[not gated]):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        if in_caller in raising:
            raise failures[in_caller]
        return s.start

    with thread_blocks(4), pytest.raises(_Failure) as info:
        core._blocks(32, work)
    assert threading.active_count() == threads
    return info.value, failures, begun


@pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "worker"])
def test_blocks_stop_the_other_part_after_its_current_slice(in_caller):
    raised, failures, begun = _gated_blocks({in_caller}, not in_caller)
    assert raised is failures[in_caller]
    assert begun.count(in_caller) == 1 and begun.count(not in_caller) == 1  # four slices each without the exception


@pytest.mark.parametrize("first_in_caller", [True, False], ids=["caller-first", "worker-first"])
def test_blocks_raise_the_caller_exception_before_the_worker_one(first_in_caller):
    raised, failures, begun = _gated_blocks({True, False}, not first_in_caller)
    assert raised is failures[True]
    assert begun.count(True) == 1 and begun.count(False) == 1
