import math
import struct
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prodfn import (
    CES,
    DomainError,
    CobbDouglas,
    DegenerateRateError,
    ExponentialModel,
    Factor,
    GeneralizedCES,
    NotReducibleError,
    PowerLaw,
    ShareRangeWarning,
    SubstitutionRangeWarning,
    ces_like_member,
    ces_reduction,
    cobb_douglas_member,
    constancy_check,
    crs_elasticities,
    evaluate,
    fundamental_invariant_K,
    fundamental_invariant_L,
    identity_chain_check,
    trajectory,
)
from prodfn import core, invariants
from prodfn.core import _inside_exp
from prodfn.invariants import _deviation
from conftest import CD1928, on_cpus, thread_blocks

T_GRID = np.arange(0.0, 24.0 + 1e-9, 0.5)

rates = st.floats(min_value=0.01, max_value=0.2)
log_levels = st.floats(min_value=0.0, max_value=6.0)
shares = st.floats(min_value=0.02, max_value=0.98)


def model(b1, b2, b3, l0=0.0, k0=0.0, y0=0.0):
    return ExponentialModel(b1=b1, b2=b2, b3=b3, ln_L0=l0, ln_K0=k0, ln_Y0=y0)


models = st.builds(model, rates, rates, rates, log_levels, log_levels, log_levels)


# ---------------------------------------------------------------------------
# fundamental invariants


def test_fundamental_L_equal_rates():
    m = model(0.05, 0.1, 0.05, l0=1.0, y0=2.5)
    fn = fundamental_invariant_L(m)
    assert fn.exponent == 1.0
    assert fn.coeff == pytest.approx(math.exp(2.5) / math.exp(1.0), rel=1e-14)
    assert fn.input is Factor.LABOR


def test_fundamental_L_reference_model_exponent():
    # oracle: direct division of the fitted growth rates
    expected = 0.03592651 / 0.02549605
    assert expected == pytest.approx(1.40910101760861, rel=1e-14)
    fn = fundamental_invariant_L(CD1928)
    assert fn.exponent == pytest.approx(expected, rel=1e-15)
    assert fn.exponent == pytest.approx(1.409101, abs=5e-7)


def test_fundamental_L_squares_labor():
    m = model(0.02, 0.05, 0.04)
    fn = fundamental_invariant_L(m)
    assert fn.coeff == pytest.approx(1.0) and fn.exponent == pytest.approx(2.0)
    L, _, Y = trajectory(m, np.linspace(0.0, 30.0, 7))
    assert np.allclose(Y, L**2, rtol=1e-12)


def test_fundamental_K_equal_rates():
    m = model(0.01, 0.07, 0.07, k0=0.5, y0=1.5)
    fn = fundamental_invariant_K(m)
    assert fn.exponent == 1.0
    assert fn.coeff == pytest.approx(math.exp(1.0), rel=1e-14)
    assert fn.input is Factor.CAPITAL


def test_fundamental_K_reference_model_exponent():
    expected = 0.03592651 / 0.06472564
    assert expected == pytest.approx(0.5550583972595713, rel=1e-14)
    fn = fundamental_invariant_K(CD1928)
    assert fn.exponent == pytest.approx(expected, rel=1e-15)


def test_fundamental_K_square_root_of_capital():
    m = model(0.01, 0.06, 0.03)
    fn = fundamental_invariant_K(m)
    _, K, Y = trajectory(m, np.linspace(0.0, 24.0, 9))
    assert np.allclose(Y, K**0.5, rtol=1e-12)


def test_fundamental_degenerate_rates():
    with pytest.raises(DegenerateRateError, match="b1"):
        fundamental_invariant_L(model(0.0, 0.1, 0.1))
    with pytest.raises(DegenerateRateError, match="b2"):
        fundamental_invariant_K(model(0.1, 0.0, 0.1))


# ---------------------------------------------------------------------------
# Cobb-Douglas family


def test_cobb_member_equal_rates_is_crs():
    m = model(0.04, 0.04, 0.04, l0=1.0, k0=2.0, y0=3.0)
    fn = cobb_douglas_member(m, 0.3)
    assert fn.beta == pytest.approx(0.7, rel=1e-14)
    # oracle: A = Y0 / (L0**alpha * K0**(1-alpha))
    want = math.exp(3.0) / (math.exp(1.0) ** 0.3 * math.exp(2.0) ** 0.7)
    assert fn.A == pytest.approx(want, rel=1e-13)


def test_cobb_member_at_crs_alpha_reproduces_crs_beta():
    fn = cobb_douglas_member(CD1928, 0.7341175376)
    # oracle: direct arithmetic with the published alpha
    want = 0.03592651 / 0.06472564 - 0.7341175376 * 0.02549605 / 0.06472564
    assert want == pytest.approx(0.26588246258385965, rel=1e-13)
    assert fn.beta == pytest.approx(want, rel=1e-13)
    assert fn.beta == pytest.approx(0.2658825, abs=1e-7)


def test_cobb_member_alpha_half_beta():
    fn = cobb_douglas_member(CD1928, 0.5)
    # oracle: (b3 - 0.5*b1) / b2
    want = (0.03592651 - 0.5 * 0.02549605) / 0.06472564
    assert want == pytest.approx(0.35810360469205094, rel=1e-13)
    assert fn.beta == pytest.approx(want, rel=1e-13)


def test_cobb_member_is_invariant_on_its_model():
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        fn = cobb_douglas_member(CD1928, alpha)
        assert constancy_check(fn, CD1928, T_GRID) <= 1e-10


def test_cobb_member_rejects_bad_inputs():
    with pytest.raises(DomainError):
        cobb_douglas_member(CD1928, 0.0)
    with pytest.raises(DomainError):
        cobb_douglas_member(CD1928, 1.0)
    with pytest.raises(DegenerateRateError):
        cobb_douglas_member(model(0.1, 0.0, 0.1), 0.5)


# ---------------------------------------------------------------------------
# CRS elasticities


def test_crs_reference_model():
    alpha, beta = crs_elasticities(CD1928)
    assert alpha == pytest.approx(0.7341175376, abs=1e-9)
    assert beta == pytest.approx(0.2658824627, abs=1e-9)


def test_crs_midpoint():
    assert crs_elasticities(model(0.0, 1.0, 0.5)) == pytest.approx((0.5, 0.5))


def test_crs_direct_arithmetic():
    alpha, beta = crs_elasticities(model(0.02, 0.06, 0.03))
    assert alpha == pytest.approx(0.75, rel=1e-14)
    assert beta == pytest.approx(0.25, rel=1e-14)


def test_crs_degenerate():
    with pytest.raises(DegenerateRateError):
        crs_elasticities(model(0.05, 0.05, 0.1))


@pytest.mark.parametrize(
    "b1, b2, b3",
    [(1e308, -1e308, 1e308), (1e-300, -1e-300, 1e300)],
    ids=["nan-alpha", "inf-alpha"],
)
def test_crs_rejects_non_finite_elasticities_before_warning(b1, b2, b3):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ShareRangeWarning would raise first
        with pytest.raises(DomainError, match="CRS elasticities are not finite"):
            crs_elasticities(model(b1, b2, b3))


def test_crs_warns_when_output_rate_not_between():
    with pytest.warns(ShareRangeWarning):
        crs_elasticities(model(0.02, 0.06, 0.08))
    with pytest.warns(ShareRangeWarning):
        crs_elasticities(model(0.02, 0.06, 0.01))


@given(
    b1=st.floats(min_value=-0.2, max_value=0.2),
    b2=st.floats(min_value=-0.2, max_value=0.2),
    b3=st.floats(min_value=-0.2, max_value=0.2),
)
@settings(max_examples=500)
def test_crs_sum_and_range(b1, b2, b3):
    assume(abs(b1 - b2) >= 1e-3)
    # the in/out-of-range dichotomy is exact-arithmetic; keep b3 a resolvable
    # distance from the endpoints so float rounding cannot flip it
    assume(min(abs(b3 - b1), abs(b3 - b2)) >= 1e-9)
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore")
        alpha, beta = crs_elasticities(model(b1, b2, b3))
    assert abs(alpha + beta - 1.0) <= 1e-12
    between = b1 < b3 < b2 or b2 < b3 < b1
    assert (0.0 < alpha < 1.0) == between


@given(models)
@settings(max_examples=300)
def test_crs_beta_matches_family_exponent(m):
    assume(abs(m.b1 - m.b2) >= 1e-3)
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore")
        alpha, beta = crs_elasticities(m)
    family_beta = m.b3 / m.b2 - alpha * m.b1 / m.b2
    assert beta == pytest.approx(family_beta, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# generalized CES family


def test_ces_like_unit_model_is_arithmetic_mean():
    m = model(1.0, 1.0, 1.0)
    fn = ces_like_member(m, 0.5)
    assert (fn.cK, fn.cL) == (0.5, 0.5)
    assert (fn.eK, fn.eL, fn.outer) == (1.0, 1.0, 1.0)
    assert evaluate(fn, 2.0, 4.0) == pytest.approx(3.0, rel=1e-12)


def test_ces_like_constant_on_reference_model():
    fn = ces_like_member(CD1928, 0.5)
    assert constancy_check(fn, CD1928, T_GRID) <= 1e-9


def test_ces_like_matches_textbook_ces_pointwise():
    m = model(0.5, 0.5, 0.25)
    fn = ces_like_member(m, 0.4)
    ces = CES(A=1.0, alpha=0.4, p=2.0, v=0.5)
    grid = np.linspace(0.5, 50.0, 12)
    L, K = np.meshgrid(grid, grid)
    assert np.allclose(evaluate(fn, L, K), evaluate(ces, L, K), rtol=1e-12)


def test_ces_like_degenerate_rates():
    for bad in (model(0.0, 0.1, 0.1), model(0.1, 0.0, 0.1), model(0.1, 0.1, 0.0)):
        with pytest.raises(DegenerateRateError):
            ces_like_member(bad, 0.5)


def test_ces_like_coefficients_out_of_the_float_range():
    # ln_Y0/b3 overflows to inf: exp gives inf for a positive b3, and 0 for a negative one
    with pytest.raises(DomainError, match=r"^CES-like coefficients overflow for this model "):
        ces_like_member(ExponentialModel(b1=0.02, b2=0.06, b3=1e-307, ln_L0=4, ln_K0=4, ln_Y0=700), 0.5)
    with pytest.raises(DomainError, match=r"^GeneralizedCES\.cK must be positive, got 0\.0$"):
        ces_like_member(ExponentialModel(b1=0.02, b2=0.06, b3=-1e-307, ln_L0=4, ln_K0=4, ln_Y0=700), 0.5)


@given(m=models, alpha=shares)
@settings(max_examples=200)
def test_ces_like_swap_symmetry(m, alpha):
    # swapping the roles of (L, b1, L0) and (K, b2, K0) together with
    # alpha <-> 1-alpha gives the same function with arguments swapped
    swapped = ExponentialModel(
        b1=m.b2, b2=m.b1, b3=m.b3, ln_L0=m.ln_K0, ln_K0=m.ln_L0, ln_Y0=m.ln_Y0
    )
    f1 = ces_like_member(m, alpha)
    f2 = ces_like_member(swapped, 1.0 - alpha)
    for L, K in ((10.0, 400.0), (55.5, 55.5), (900.0, 12.0)):
        assert evaluate(f1, L, K) == pytest.approx(evaluate(f2, K, L), rel=1e-12)


# ---------------------------------------------------------------------------
# CES reduction


def test_ces_reduction_linear_case():
    m = model(1.0, 1.0, 1.0)
    with pytest.warns(SubstitutionRangeWarning):
        fn = ces_reduction(m, 0.3)
    assert (fn.A, fn.p, fn.v) == (1.0, 1.0, 1.0)
    assert fn.sigma is None
    assert evaluate(fn, 10.0, 30.0) == pytest.approx(0.7 * 10.0 + 0.3 * 30.0, rel=1e-12)


def test_ces_reduction_identification():
    m = model(0.5, 0.5, 0.25)
    with pytest.warns(SubstitutionRangeWarning):
        fn = ces_reduction(m, 0.4)
    assert fn.A == pytest.approx(1.0)
    assert fn.p == pytest.approx(2.0)
    assert fn.v == pytest.approx(0.5)
    assert fn.sigma == pytest.approx(-1.0)


def test_ces_reduction_no_warning_when_p_below_one():
    import warnings as w

    m = model(2.0, 2.0, 1.0)
    with w.catch_warnings():
        w.simplefilter("error", SubstitutionRangeWarning)
        fn = ces_reduction(m, 0.5)
    assert fn.p == pytest.approx(0.5)
    assert fn.sigma == pytest.approx(2.0)


def test_ces_reduction_gate_on_rates():
    with pytest.raises(NotReducibleError, match="growth rates differ"):
        ces_reduction(model(0.02, 0.06, 0.03), 0.5, tol=1e-6)


def test_ces_reduction_needs_nonzero_rates():
    with pytest.raises(NotReducibleError, match="b1 and b2 must be nonzero"):
        ces_reduction(model(0.0, 0.0, 0.03), 0.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-300])
def test_ces_reduction_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # NaN once passed every comparison of the gate: rates 0.02/0.06 gave a CES 36% off
    with pytest.raises(DomainError, match="tol must be finite and >= 0"):
        ces_reduction(model(0.02, 0.06, 0.03, l0=0.0, k0=math.log(2.0), y0=math.log(3.0)), 0.5, tol=tol)


def test_ces_reduction_gate_on_initial_levels():
    m = model(0.05, 0.05, 0.03, l0=1.0, k0=2.0, y0=1.0)
    with pytest.raises(NotReducibleError, match="initial levels"):
        ces_reduction(m, 0.5)


def test_ces_reduction_tolerates_fitted_noise():
    m = model(0.05, 0.05 * (1.0 + 1e-12), 0.03, l0=2.0, k0=2.0 + 1e-12, y0=2.0)
    with pytest.warns(SubstitutionRangeWarning):
        fn = ces_reduction(m, 0.5, tol=1e-9)
    assert fn.p == pytest.approx(20.0, rel=1e-9)


def test_ces_reduction_is_invariant_on_its_model():
    m = model(0.08, 0.08, 0.05, l0=3.0, k0=3.0, y0=3.0)
    with pytest.warns(SubstitutionRangeWarning):
        fn = ces_reduction(m, 0.35)
    assert constancy_check(fn, m, T_GRID) <= 1e-9


# ---------------------------------------------------------------------------
# constancy_check


def test_constancy_detects_perturbation():
    fn = cobb_douglas_member(CD1928, 0.5)
    bent = CobbDouglas(A=fn.A, alpha=fn.alpha, beta=fn.beta + 0.01)
    short = constancy_check(bent, CD1928, np.arange(0.0, 12.1, 0.5))
    long = constancy_check(bent, CD1928, T_GRID)
    assert short > 1e-6
    assert long > short  # deviation grows with |t|


def test_constancy_single_point_grid_anchored_at_zero():
    fn = cobb_douglas_member(CD1928, 0.6)
    assert constancy_check(fn, CD1928, [0.0]) <= 1e-12


def test_constancy_power_law_tracks_invariant_combination():
    fn = fundamental_invariant_L(CD1928)
    assert constancy_check(fn, CD1928, T_GRID) <= 1e-10
    bent = type(fn)(coeff=fn.coeff, exponent=fn.exponent * 1.01, input=fn.input)
    assert constancy_check(bent, CD1928, T_GRID) > 1e-4


def test_constancy_power_law_reads_coeff():
    fn = fundamental_invariant_L(CD1928)
    doubled = type(fn)(coeff=2.0 * fn.coeff, exponent=fn.exponent, input=fn.input)
    assert constancy_check(doubled, CD1928, T_GRID) > 0.9
    # same exponent b3/b2, coefficient fixed by another model's initial levels
    other = fundamental_invariant_K(model(0.05, CD1928.b2, CD1928.b3, l0=1.0, k0=9.0, y0=3.0))
    assert constancy_check(other, CD1928, T_GRID) > 0.9


def test_a_scalar_grid_keeps_scalar_types():
    fn = cobb_douglas_member(CD1928, 0.5)
    for t in (3.0, np.float64(3.0), np.array(3.0)):
        Y, y_fn, rel = _deviation(fn, CD1928, t)
        assert (type(Y), type(y_fn), type(rel)) == (float, float, np.float64)
        assert type(constancy_check(fn, CD1928, t)) is float


@given(m=models, alpha=shares, n=st.integers(1, 40))
@settings(max_examples=100)
def test_deviation_is_the_relative_distance_bit_for_bit(m, alpha, n):
    grid = np.linspace(-30.0, 30.0, n)
    for fn in (cobb_douglas_member(m, alpha), ces_like_member(m, alpha), fundamental_invariant_K(m)):
        Y, y_fn, rel = _deviation(fn, m, grid)
        assert rel.tobytes() == (np.abs(y_fn - Y) / Y).tobytes()
        assert constancy_check(fn, m, grid) == float(rel.max())


def test_constancy_empty_grid_rejected():
    fn = cobb_douglas_member(CD1928, 0.5)
    with pytest.raises(DomainError):
        constancy_check(fn, CD1928, [])


@given(m=models, alpha=shares)
@settings(max_examples=150)
def test_every_derived_family_is_invariant(m, alpha):
    grid = np.arange(0.0, 24.1, 2.0)
    assert constancy_check(fundamental_invariant_L(m), m, grid) <= 1e-9
    assert constancy_check(fundamental_invariant_K(m), m, grid) <= 1e-9
    assert constancy_check(cobb_douglas_member(m, alpha), m, grid) <= 1e-9
    assert constancy_check(ces_like_member(m, alpha), m, grid) <= 1e-9


# ---------------------------------------------------------------------------
# blocked constancy_check against the whole-grid reduction


def _whole_grid(fn, m, t):
    return float(_deviation(fn, m, t)[2].max())


def _outcome(check, fn, m, t):
    """The result's bits, or the exception's type and message; with every warning message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = struct.pack("<d", check(fn, m, t))
        except Exception as exc:  # whatever the whole grid raises, the blocks must raise
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def assert_blocked_is_whole(fn, m, t):
    assert _outcome(constancy_check, fn, m, t) == _outcome(_whole_grid, fn, m, t)
    for mode in ("raise", "ignore"):
        with np.errstate(all=mode):
            assert _outcome(constancy_check, fn, m, t) == _outcome(_whole_grid, fn, m, t)


def _nonzero(lo, hi):
    return st.builds(lambda x, s: math.copysign(x, s), st.floats(lo, hi), st.sampled_from([1.0, -1.0]))


def _member(draw, family, m):
    """A derived member of `family` and the model it is derived on, or None if it does not exist."""
    alpha = draw(shares)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SubstitutionRangeWarning)
        try:
            if family == "power-law":
                return draw(st.sampled_from([fundamental_invariant_L, fundamental_invariant_K]))(m), m
            if family == "cobb-douglas":
                return cobb_douglas_member(m, alpha), m
            if family == "ces-like":
                return ces_like_member(m, alpha), m
            m = model(m.b1, m.b1, m.b3, m.ln_L0, m.ln_L0, m.ln_L0)
            return ces_reduction(m, alpha), m
        except DomainError:  # an anchoring constant that overflows
            return None


def _any_function(draw, family):
    """Any function of `family`: deviations that grow with |t|, or overflow."""
    coeff = st.floats(-50.0, 50.0).map(math.exp)
    power = st.floats(-60.0, 60.0)
    outer = st.floats(-5.0, 5.0)
    if family == "power-law":
        return PowerLaw(draw(coeff), draw(power), draw(st.sampled_from(Factor)))
    if family == "cobb-douglas":
        return CobbDouglas(draw(coeff), draw(shares), draw(power))
    if family == "ces-like":
        return GeneralizedCES(draw(coeff), draw(coeff), draw(shares), draw(power), draw(power), draw(outer))
    return CES(draw(coeff), draw(shares), draw(_nonzero(0.01, 60.0)), draw(outer))


@st.composite
def blocked_cases(draw):
    """(block, fn, model, grid), with block boundaries, a 1-point last block and exact multiples likely.

    The function is a derived member (deviations at rounding level) or any
    member of its family (deviations that grow with |t|, or overflow); the
    grid may be unsorted, 2-D, hold a NaN, an infinity or a t where b*t
    overflows, or leave the range of exp.
    """
    block = draw(st.sampled_from([1, 7, 64]))
    m = model(*(draw(_nonzero(0.05, 2.0)) for _ in range(3)), *(draw(st.floats(-2.0, 2.0)) for _ in range(3)))
    family = draw(st.sampled_from(["power-law", "cobb-douglas", "ces-like", "ces"]))
    derived = _member(draw, family, m) if draw(st.booleans()) else None
    fn, m = derived or (_any_function(draw, family), m)
    n = max(1, block * draw(st.integers(0, 6)) + draw(st.sampled_from([-1, 0, 1, block // 2])))
    span = draw(st.sampled_from([30.0, 400.0]))  # inside the range of exp, or often not
    lo = draw(st.floats(-span, span))
    t = np.linspace(lo, lo + draw(st.floats(0.0, span)), n)
    if draw(st.booleans()):
        t = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(t)
    if draw(st.integers(0, 3)) == 0:
        t[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
    if n % 2 == 0 and draw(st.integers(0, 3)) == 0:
        t = t.reshape(2, -1)
    return block, fn, m, t


@given(blocked_cases())
@settings(max_examples=400)
def test_blocked_constancy_is_the_whole_grid_reduction(case):
    block, fn, m, t = case
    with mock.patch.object(core, "_BLOCK", block):
        assert_blocked_is_whole(fn, m, t)


D2_FUNCTION = CobbDouglas(A=1e300, alpha=0.5, beta=50.0)  # overflows in evaluate, never in trajectory


@pytest.mark.parametrize(
    "fn, m, t",
    [
        # K overflows in the second block, L only in the fourth: the whole-grid walk names L
        (cobb_douglas_member(CD1928, 0.5), model(0.9, -1.0, 0.5), np.r_[np.zeros(7), -800.0, np.zeros(13), 800.0]),
        (cobb_douglas_member(CD1928, 0.5), CD1928, np.r_[np.linspace(0.0, 24.0, 20), np.nan]),  # NaN in the last block
        (ces_like_member(CD1928, 0.5), CD1928, np.random.default_rng(5).permutation(np.linspace(-30.0, 30.0, 50))),
        (ces_like_member(CD1928, 0.5), CD1928, np.linspace(0.0, 24.0, 50).reshape(2, -1)),
        (D2_FUNCTION, CD1928, np.linspace(0.0, 24.0, 50)),
    ],
    ids=["K-early-L-late", "nan-in-last-block", "unsorted", "2-d", "d2-overflow"],
)
def test_blocked_constancy_edge_cases(fn, m, t, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK", 7)
    assert_blocked_is_whole(fn, m, t)


def test_blocked_constancy_names_labor_before_capital(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK", 7)
    t = np.r_[np.zeros(7), -800.0, np.zeros(13), 800.0]
    with pytest.raises(DomainError, match=r"^L\(t\) overflows at t = 800.0$"):
        constancy_check(cobb_douglas_member(CD1928, 0.5), model(0.9, -1.0, 0.5), t)


def test_blocked_constancy_warns_once_as_the_whole_grid_does(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK", 7)
    value, caught = _outcome(constancy_check, D2_FUNCTION, CD1928, np.linspace(0.0, 24.0, 50))
    assert value == struct.pack("<d", math.inf)
    assert caught == ["overflow encountered in multiply"]


@pytest.mark.parametrize("fn", [fundamental_invariant_K(CD1928), cobb_douglas_member(CD1928, 0.5),
                                ces_like_member(CD1928, 0.5), D2_FUNCTION])
def test_blocked_constancy_at_the_real_block_size(fn):
    t = np.linspace(0.0, 24.0, 2 * core._BLOCK + 1)  # two full blocks and a 1-point last block
    assert_blocked_is_whole(fn, CD1928, t)


@pytest.mark.parametrize("derive", [cobb_douglas_member, ces_like_member])
def test_blocked_constancy_peak_memory_on_a_long_grid(derive):
    fn = derive(CD1928, 0.4)
    t = np.linspace(0.0, 24.0, 10**6)
    for cpus in (1, 2):
        tracemalloc.start()
        try:
            with on_cpus(cpus):
                dev = constancy_check(fn, CD1928, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev <= 1e-9
        assert peak <= 2 * 2**20  # the whole grid at once allocates about 40 MiB


def test_blocked_constancy_on_one_cpu_takes_blocks_of_the_serial_size():
    t = np.linspace(0.0, 24.0, 10**6)
    with on_cpus(1), mock.patch.object(invariants, "trajectory", wraps=trajectory) as traced:
        constancy_check(cobb_douglas_member(CD1928, 0.5), CD1928, t)
    sizes = [np.size(call.args[1]) for call in traced.call_args_list]
    assert max(sizes) <= core._BLOCK == 8192
    assert sizes == [8192] * (10**6 // 8192) + [10**6 % 8192]


# ---------------------------------------------------------------------------
# the held trajectory of a grid computed whole, against checks that recompute it


_BLOCK = 8192  # the reference's block size


def _deviation_reference(fn, model, t_grid):
    """Y(t), fn(L(t), K(t)) and the per-point deviation |fn(L, K) - Y| / Y on a grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise DomainError("t_grid must be nonempty")
    L, K, Y = trajectory(model, t)
    y_fn = evaluate(fn, L, K)
    if t.ndim == 0:  # floats: keep an np.float64 deviation
        return Y, y_fn, np.abs(y_fn - Y) / Y
    rel = y_fn - Y  # one buffer for the whole metric
    np.abs(rel, out=rel)
    rel /= Y
    return Y, y_fn, rel


def constancy_check_reference(fn, model, t_grid):
    """constancy_check as it was before the held trajectory: every check computes its own."""
    t = np.asarray(t_grid, dtype=float)
    if t.size > _BLOCK and t.ndim == 1 and _inside_exp(model, t):
        events = []
        with np.errstate(all="call", call=lambda err, flag: events.append(err)):
            blocks = (t[i : i + _BLOCK] for i in range(0, t.size, _BLOCK))
            worst = max(float(_deviation_reference(fn, model, block)[2].max()) for block in blocks)
        if not events:
            return worst
    return float(_deviation_reference(fn, model, t)[2].max())


def _bits(x):
    """A result's type, shape and bytes, so -0.0 and 0.0 or two NaN payloads differ."""
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    return type(x), np.shape(x), np.asarray(x).tobytes()


def _held_outcome(call, mode):
    """The bits of call() under np.errstate `mode` (None: the default), or its exception; with every warning."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**({"all": mode} if mode else {})):
        warnings.simplefilter("always")
        try:
            result = _bits(call())
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _signed(x):
    return st.sampled_from([x, -x]) if x == 0.0 else st.just(x)


@st.composite
def check_sequences(draw):
    """(functions, models, grids, steps): checks that repeat, mix equal but distinct models and
    grids that are mutated in place between them; each step names its call and its np.errstate.
    About half the steps repeat their predecessor's call on the same function, model and grid.
    Under a small `_BLOCK` the 1-D grids are one block or several, so blocks, hits, misses and
    whole-grid fallbacks interleave."""
    fields = [draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)).flatmap(_signed)) for _ in range(6)]
    m = model(*fields)
    twin = model(*fields)  # equal, not the same object
    flipped = model(*(-x if x == 0.0 else x for x in fields))  # equal, with every zero field of the other sign
    models = [m, twin, flipped, model(*(draw(_nonzero(0.05, 2.0)) for _ in range(3)), 0.0, 0.0, 0.0)]
    families = ["power-law", "cobb-douglas", "ces-like", "ces"]
    fns = [_any_function(draw, draw(st.sampled_from(families))) for _ in range(3)]
    fns.append(_member(draw, draw(st.sampled_from(families[:3])), models[3])[0])  # rounding-level deviations
    span = draw(st.sampled_from([30.0, 400.0]))  # inside the range of exp, or often not
    grids = [
        np.linspace(-span, span, draw(st.integers(1, 40))),
        np.array(draw(st.floats(-span, span))),  # 0-d
        np.linspace(0.0, span, 2 * draw(st.integers(1, 20))).reshape(2, -1),
        np.array([0.0, -0.0, 1e308, draw(st.floats(-span, span))]),
        np.linspace(0.0, 800.0, draw(st.integers(2, 40))),  # inside the range of exp at first, often not later
    ]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from([constancy_check, _deviation]),
                st.integers(0, len(fns) - 1),
                st.integers(0, len(models) - 1),
                st.integers(0, len(grids) - 1),
                st.sampled_from([None, "raise", "ignore"]),
                # a value written into the grid before the call, at an index taken modulo its size
                st.one_of(st.none(), st.tuples(st.integers(0, 63), st.floats(-span, span))),
                st.booleans(),  # repeat the previous step's check of its function, model and grid, with no write
            ),
            min_size=1,
            max_size=12,
        )
    )
    for i in range(1, len(steps)):
        if steps[i][-1]:
            steps[i] = (*steps[i - 1][:4], steps[i][4], None, True)
    return fns, models, grids, [step[:-1] for step in steps]


REFERENCES = {constancy_check: constancy_check_reference, _deviation: _deviation_reference}


@given(check_sequences())
@settings(max_examples=300)
def test_held_trajectories_give_what_every_check_computing_its_own_gives(case):
    fns, models, grids, steps = case
    with mock.patch.object(invariants, "_held", None):
        for check, f, m, g, mode, write in steps:
            t = grids[g]
            if write is not None:
                t.flat[write[0] % t.size] = write[1]
            args = (fns[f], models[m], t)
            assert _held_outcome(lambda: check(*args), mode) == _held_outcome(lambda: REFERENCES[check](*args), mode)


@given(st.sampled_from([1, 4, 7]), check_sequences())
@settings(max_examples=300)
def test_held_trajectories_interleave_with_blocks_and_fallbacks(block, case):
    with mock.patch.object(core, "_BLOCK", block):
        test_held_trajectories_give_what_every_check_computing_its_own_gives.hypothesis.inner_test(case)


def test_blocked_constancy_stops_at_the_first_event():
    m = model(1.0, 0.01, 0.02, l0=-740.0)  # L is subnormal at t < 32: the first block underflows
    fn = cobb_douglas_member(m, 0.5)
    t = np.linspace(0.0, 100.0, 2 * core._BLOCK + 1)  # two full blocks and a 1-point last block
    for mode in (None, "raise", "ignore"):
        with mock.patch.object(invariants, "trajectory", wraps=trajectory) as traced:
            outcome = _held_outcome(lambda: constancy_check(fn, m, t), mode)
        assert traced.call_count == 2  # the first block, then the whole grid
        assert outcome == _held_outcome(lambda: constancy_check_reference(fn, m, t), mode)


# ---------------------------------------------------------------------------
# a long grid split between the caller and one worker thread


def _split_is_serial(check, args, block, modes=(None, "raise", "ignore")):
    """check(*args) on thread blocks of `block` points gives what the serial reference gives, under each mode,
    and leaves no thread running."""
    threads = threading.active_count()
    for mode in modes:
        want = _held_outcome(lambda: REFERENCES[check](*args), mode)
        with thread_blocks(block):
            assert _held_outcome(lambda: check(*args), mode) == want
        assert threading.active_count() == threads


@given(blocked_cases())
@settings(max_examples=400)
def test_split_constancy_is_the_serial_reference(case):
    block, fn, m, t = case
    with mock.patch.object(core, "_BLOCK", block), mock.patch.object(invariants, "_held", None):
        _split_is_serial(constancy_check, (fn, m, t), block)


@given(st.sampled_from([1, 4, 7]), check_sequences())
@settings(max_examples=300)
def test_held_trajectories_interleave_with_split_grids(block, case):
    fns, models, grids, steps = case
    with mock.patch.object(core, "_BLOCK", block), mock.patch.object(invariants, "_held", None):
        for check, f, m, g, mode, write in steps:
            t = grids[g]
            if write is not None:
                t.flat[write[0] % t.size] = write[1]
            _split_is_serial(check, (fns[f], models[m], t), block, (mode,))


@pytest.mark.parametrize("fn", [fundamental_invariant_K(CD1928), ces_like_member(CD1928, 0.5), D2_FUNCTION])
def test_split_constancy_at_the_real_block_size(fn):
    t = np.linspace(0.0, 24.0, 2 * core._THREAD_BLOCK + 1)  # two full thread blocks and a 1-point last block
    _split_is_serial(constancy_check, (fn, CD1928, t), core._THREAD_BLOCK)


def _gated_trajectory(caller, event_in_caller):
    """A traced `trajectory` whose part without the event waits in its first block until the event has been
    raised, and the (thread is the caller, t[0]) of every call."""
    calls, raised, first = [], threading.Event(), []

    def traced(model, t):
        in_caller = threading.get_ident() == caller
        calls.append(in_caller)
        if in_caller != event_in_caller and not first:
            first.append(True)
            assert raised.wait(10)
        try:
            return trajectory(model, t)
        except DomainError:
            raised.set()
            raise

    return traced, calls


@pytest.mark.parametrize("event_in_caller", [True, False], ids=["caller", "worker"])
def test_split_stops_the_other_part_one_block_after_an_event(event_in_caller):
    block = 64
    t = np.linspace(0.0, 24.0, 16 * block)  # cut at 8 blocks: eight in each part
    fn = cobb_douglas_member(CD1928, 0.5)
    with thread_blocks(block):
        cut = core._cut(t.size)
        t[0 if event_in_caller else cut] = math.nan
        traced, calls = _gated_trajectory(threading.get_ident(), event_in_caller)
        threads = threading.active_count()
        with mock.patch.object(core, "_BLOCK", block), \
                mock.patch.object(invariants, "trajectory", side_effect=traced):
            outcome = _held_outcome(lambda: constancy_check(fn, CD1928, t), None)
        assert threading.active_count() == threads
    assert cut == 8 * block
    assert outcome == _held_outcome(lambda: constancy_check_reference(fn, CD1928, t), None)
    assert calls[-1] is True  # the whole grid, in the caller
    stopped = calls[:-1].count(not event_in_caller)
    assert calls[:-1].count(event_in_caller) == 1 and stopped <= 2  # its current block, then at most one more


def test_split_passes_the_worker_exception_to_the_caller_unchanged():
    caller = threading.get_ident()
    failure = TypeError("raised in the worker's part")

    def evaluate_here(fn, L, K):
        if threading.get_ident() != caller:
            raise failure
        return evaluate(fn, L, K)

    threads = threading.active_count()
    with thread_blocks(7), mock.patch.object(core, "_BLOCK", 7), \
            mock.patch.object(invariants, "evaluate", side_effect=evaluate_here):
        with pytest.raises(TypeError) as info:
            constancy_check(cobb_douglas_member(CD1928, 0.5), CD1928, np.linspace(0.0, 24.0, 70))
    assert info.value is failure
    assert threading.active_count() == threads
    not_a_function = ("cobb-douglas", 0.5)  # every block of both parts raises evaluate's TypeError
    with mock.patch.object(core, "_BLOCK", 7):
        _split_is_serial(constancy_check, (not_a_function, CD1928, np.linspace(0.0, 24.0, 70)), 7)


def test_split_raises_the_caller_exception_before_the_worker_one():
    caller, raised = threading.get_ident(), threading.Event()
    failure = TypeError("raised in the caller's part")

    def evaluate_here(fn, L, K):
        if np.size(L) > 7:  # the whole grid
            return evaluate(fn, L, K)
        if threading.get_ident() == caller:
            raised.set()
            raise failure
        assert raised.wait(10)
        raise DomainError("raised in the worker's part, after the caller's")  # alone, it would send the grid whole

    with thread_blocks(7), mock.patch.object(core, "_BLOCK", 7), \
            mock.patch.object(invariants, "evaluate", side_effect=evaluate_here):
        with pytest.raises(TypeError) as info:
            constancy_check(cobb_douglas_member(CD1928, 0.5), CD1928, np.linspace(0.0, 24.0, 70))
    assert info.value is failure


@pytest.mark.parametrize("t", [np.arange(0.0, 24.0 + 0.125, 0.25), np.linspace(0.0, 24.0, 16385),
                               np.array(3.0), np.linspace(0.0, 24.0, 40000).reshape(2, -1)],
                         ids=["97-point", "below-two-thread-blocks", "0-d", "2-d"])
def test_short_and_not_1d_grids_are_not_split(t):
    with mock.patch.object(core.threading, "Thread", side_effect=AssertionError("a thread started")), \
            mock.patch.object(invariants, "_held", None):
        for fn in (cobb_douglas_member(CD1928, 0.5), ces_like_member(CD1928, 0.5)):
            constancy_check(fn, CD1928, t)
            constancy_check(fn, CD1928, t)  # the held trajectory, for a one-block grid
        trajectory(CD1928, t)


def test_split_needs_two_cpus(monkeypatch):
    n = 10**6
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert core._cut(n) == 0
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert core._cut(n) == 31 * core._THREAD_BLOCK  # the block boundary nearest the middle
    monkeypatch.delattr(core.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(core.os, "cpu_count", lambda: 1)
    assert core._cut(n) == 0
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core._cut(n) == 0
    monkeypatch.setattr(core.os, "cpu_count", lambda: 2)
    assert core._cut(n) == 31 * core._THREAD_BLOCK
    assert core._cut(2 * core._THREAD_BLOCK - 1) == 0
    assert core._cut(2 * core._THREAD_BLOCK) == core._THREAD_BLOCK


GRID_97 = np.arange(0.0, 24.0 + 0.125, 0.25)


def test_one_trajectory_per_model_and_grid():
    grid = GRID_97.copy()
    fns = [fundamental_invariant_L(CD1928), fundamental_invariant_K(CD1928),
           cobb_douglas_member(CD1928, 0.5), ces_like_member(CD1928, 0.5)]
    with mock.patch.object(invariants, "_held", None), \
            mock.patch.object(invariants, "trajectory", wraps=trajectory) as traced:
        devs = [constancy_check(fn, CD1928, grid) for fn in fns]
        assert traced.call_count == 1
        assert devs == [constancy_check_reference(fn, CD1928, grid) for fn in fns]
        grid[-1] += 1.0  # the same array, other bytes
        constancy_check(fns[0], CD1928, grid)
        assert traced.call_count == 2
        held = invariants._held
        long_grid = np.linspace(0.0, 24.0, 2 * core._BLOCK + 1)
        constancy_check(fns[0], CD1928, long_grid)
        assert traced.call_count == 5  # three blocks, none of them held
        _deviation(fns[0], CD1928, long_grid)
        assert traced.call_count == 6  # computed whole, too long to hold
        assert invariants._held is held
        constancy_check(fns[1], CD1928, grid)
        assert traced.call_count == 6


def test_deviation_returns_arrays_it_owns():
    fn = cobb_douglas_member(CD1928, 0.5)
    with mock.patch.object(invariants, "_held", None):
        dev = constancy_check(fn, CD1928, GRID_97)
        for x in _deviation(fn, CD1928, GRID_97):
            x[:] = 1.0
        assert constancy_check(fn, CD1928, GRID_97) == dev


# ---------------------------------------------------------------------------
# identity chain


def test_identity_chain_unit_inputs():
    assert identity_chain_check(CD1928, 0.5, 1.0, 1.0) <= 1e-12


def test_identity_chain_reference_point():
    assert identity_chain_check(CD1928, 0.7341175376, 150.0, 300.0) <= 1e-12


@given(
    m=models,
    alpha=shares,
    L=st.floats(min_value=10.0, max_value=1000.0),
    K=st.floats(min_value=10.0, max_value=1000.0),
)
@settings(max_examples=300)
def test_identity_chain_random(m, alpha, L, K):
    assert identity_chain_check(m, alpha, L, K) <= 1e-10


def test_identity_chain_guards():
    with pytest.raises(DegenerateRateError):
        identity_chain_check(model(0.0, 0.1, 0.1), 0.5, 10.0, 10.0)
    with pytest.raises(DomainError):
        identity_chain_check(CD1928, 0.5, -1.0, 10.0)


@pytest.mark.parametrize(
    "m, x",
    [
        (model(0.02, 0.01, 0.04), 1e300),  # a float power overflows
        (model(0.02, 0.01, 0.04), 1e-300),  # a power underflows to 0, then divides
        (model(0.02, 0.03, 0.04, y0=700.0), 1e10),  # both sides are inf: the residual is nan
        (model(-0.04, -0.01, -0.04), 1e-100),  # lhs underflows to 0 while rhs is 1e-250: it would read 1
    ],
    ids=["overflow", "zero", "nan", "one-side-zero"],
)
def test_identity_chain_outside_the_float_range_is_a_domain_error(m, x):
    with pytest.raises(DomainError, match=r"^identity_chain_check: "):
        identity_chain_check(m, 0.5, x, x)


# each model puts the constant anchoring the invariant at t = 0 beyond the float range
HIGH = model(0.001, 0.002, 1.0, l0=-1.0, k0=-1.0, y0=0.0)
ANCHOR_OVERFLOWS = [
    (fundamental_invariant_L, (HIGH,)),
    (fundamental_invariant_K, (model(0.002, 0.001, 1.0, l0=-1.0, k0=-1.0),)),
    (cobb_douglas_member, (model(0.001, 0.0001, 1.0, l0=-1.0, k0=-1.0), 0.5)),
    (ces_reduction, (model(0.001, 0.001, 1.0, l0=-1.0, k0=-1.0, y0=-1.0), 0.5)),
    (identity_chain_check, (HIGH, 0.5, 1.0, 1.0)),
]


@pytest.mark.parametrize("derive, args", ANCHOR_OVERFLOWS, ids=[f.__name__ for f, _ in ANCHOR_OVERFLOWS])
def test_an_anchoring_constant_that_overflows_is_a_domain_error(derive, args):
    with pytest.raises(DomainError, match=rf"^{derive.__name__}: the anchoring constant exp\(.*\) overflows$"):
        derive(*args)


# each model puts the anchoring constant below the smallest subnormal, so exp() rounds it to 0
LOW = model(0.001, 0.002, 1.0, l0=1.0, k0=1.0)
ANCHOR_UNDERFLOWS = [
    (fundamental_invariant_L, (LOW,)),
    (fundamental_invariant_K, (model(0.01, 0.001, 0.05, k0=20.0, y0=200.0),)),  # exp(200 - 50 * 20)
    (cobb_douglas_member, (model(0.001, 0.0001, 1.0, l0=1.0, k0=1.0), 0.5)),
    (ces_reduction, (model(0.001, 0.001, 1.0, l0=1.0, k0=1.0, y0=1.0), 0.5)),
    (identity_chain_check, (LOW, 0.5, 1.0, 1.0)),
]


@pytest.mark.parametrize("derive, args", ANCHOR_UNDERFLOWS, ids=[f.__name__ for f, _ in ANCHOR_UNDERFLOWS])
def test_an_anchoring_constant_that_underflows_is_a_domain_error(derive, args):
    with pytest.raises(DomainError, match=rf"^{derive.__name__}: the anchoring constant exp\(.*\) underflows to 0$"):
        derive(*args)


# ---------------------------------------------------------------------------
# cross-operation consistency


def test_crs_member_tfp_is_close_to_one_percent_gain():
    alpha, beta = crs_elasticities(CD1928)
    fn = cobb_douglas_member(CD1928, alpha)
    assert fn.A == pytest.approx(
        math.exp(CD1928.ln_Y0 - alpha * CD1928.ln_L0 - beta * CD1928.ln_K0), rel=1e-12
    )
    assert abs(fn.A - 1.01) <= 0.005


def test_reduction_agrees_with_family_member_pointwise():
    m = model(0.1, 0.1, 0.07, l0=4.0, k0=4.0, y0=4.0)
    like = ces_like_member(m, 0.6)
    with pytest.warns(SubstitutionRangeWarning):
        red = ces_reduction(m, 0.6)
    grid = np.linspace(10.0, 1000.0, 20)
    L, K = np.meshgrid(grid, grid)
    assert np.allclose(evaluate(like, L, K), evaluate(red, L, K), rtol=1e-12)
