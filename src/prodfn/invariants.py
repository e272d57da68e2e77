"""Production functions as time-independent invariants of an exponential system.

Along the trajectories L(t) = L0*exp(b1*t), K(t) = K0*exp(b2*t),
Y(t) = Y0*exp(b3*t), time can be eliminated in two independent ways, giving
the fundamental invariants

    Y * L**(-b3/b1) = const        and        Y * K**(-b3/b2) = const.

Multiplicative recombination of the two yields a one-parameter Cobb-Douglas
family; additive recombination of Y**(1/b3) yields a generalized CES family
that collapses to the textbook CES form when b1 = b2 and the initial levels
coincide.  Every constructor here fixes its free constant by requiring exact
invariance at t = 0, and `constancy_check` verifies invariance numerically
along a trajectory.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    CES,
    CobbDouglas,
    DomainError,
    ExponentialModel,
    Factor,
    GeneralizedCES,
    PowerLaw,
    ProdfnError,
    ProductionFunction,
    evaluate,
    trajectory,
)


class DegenerateRateError(ProdfnError):
    """A growth-rate configuration makes the requested derivation singular."""


class NotReducibleError(ProdfnError):
    """The model does not satisfy the preconditions of the CES reduction."""


class ShareRangeWarning(UserWarning):
    """A derived share parameter falls outside the economic interval (0, 1)."""


class SubstitutionRangeWarning(UserWarning):
    """Substitution parameter p >= 1, so sigma = 1/(1-p) is negative or undefined."""


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha!r}")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")


def _anchor(ln_coeff: float, where: str) -> float:
    """exp(ln_coeff), the constant that anchors an invariant at t = 0, or a DomainError naming `where`."""
    try:
        return math.exp(ln_coeff)
    except OverflowError:
        raise DomainError(f"{where}: the anchoring constant exp({ln_coeff!r}) overflows") from None


def _require_nonzero(model: ExponentialModel, names, why: str) -> None:
    for name in names:
        if getattr(model, name) == 0.0:
            raise DegenerateRateError(f"{name} = 0: {why}")


def fundamental_invariant_L(model: ExponentialModel) -> PowerLaw:
    """First fundamental invariant: Y = (Y0 / L0**(b3/b1)) * L**(b3/b1).

    Equivalently Y * L**(-b3/b1) is constant along every trajectory.
    Requires b1 != 0, otherwise L carries no time information to eliminate.
    """
    _require_nonzero(model, ("b1",), "time cannot be eliminated via L")
    exponent = model.b3 / model.b1
    coeff = _anchor(model.ln_Y0 - exponent * model.ln_L0, "fundamental_invariant_L")
    return PowerLaw(coeff=coeff, exponent=exponent, input=Factor.LABOR)


def fundamental_invariant_K(model: ExponentialModel) -> PowerLaw:
    """Second fundamental invariant: Y = (Y0 / K0**(b3/b2)) * K**(b3/b2)."""
    _require_nonzero(model, ("b2",), "time cannot be eliminated via K")
    exponent = model.b3 / model.b2
    coeff = _anchor(model.ln_Y0 - exponent * model.ln_K0, "fundamental_invariant_K")
    return PowerLaw(coeff=coeff, exponent=exponent, input=Factor.CAPITAL)


def cobb_douglas_member(model: ExponentialModel, alpha: float) -> CobbDouglas:
    """Member of the one-parameter Cobb-Douglas family of invariants.

    For 0 < alpha < 1 the function Y = A * L**alpha * K**beta with

        beta = b3/b2 - alpha*b1/b2

    is constant in t along trajectories (the exponent relation makes
    alpha*b1 + beta*b2 = b3).  A is the unique constant giving exact
    invariance at t = 0, namely A = Y0 * L0**(-alpha) * K0**(-beta).
    """
    _require_alpha(alpha)
    _require_nonzero(model, ("b2",), "the capital exponent is undefined")
    beta = model.b3 / model.b2 - alpha * model.b1 / model.b2
    A = _anchor(model.ln_Y0 - alpha * model.ln_L0 - beta * model.ln_K0, "cobb_douglas_member")
    return CobbDouglas(A=A, alpha=alpha, beta=beta)


def crs_elasticities(model: ExponentialModel) -> tuple[float, float]:
    """Output elasticities of the constant-returns-to-scale family member.

        alpha = (b3 - b2) / (b1 - b2),   beta = (b3 - b1) / (b2 - b1)

    alpha + beta = 1 identically.  The computed alpha is tested against
    (0, 1): in exact arithmetic that means b3 lies strictly between b1 and
    b2, but within a few ulps of either rate alpha can round to 0 or 1.
    Outside (0, 1) the pair is still a valid invariant exponent but not an
    economic share, which is reported as a ShareRangeWarning rather than an
    error.
    """
    if model.b1 == model.b2:
        raise DegenerateRateError("b1 = b2: the CRS elasticity formula is singular")
    alpha = (model.b3 - model.b2) / (model.b1 - model.b2)
    beta = (model.b3 - model.b1) / (model.b2 - model.b1)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"CRS elasticities are not finite: alpha = {alpha!r}, beta = {beta!r}")
    if not 0.0 < alpha < 1.0:
        warnings.warn(
            f"the constant-returns alpha = {alpha!r} falls outside (0, 1)",
            ShareRangeWarning,
            stacklevel=2,
        )
    return alpha, beta


def ces_like_member(model: ExponentialModel, alpha: float) -> GeneralizedCES:
    """Member of the generalized CES family of invariants.

    Built by splitting Y**(1/b3) = alpha*Y**(1/b3) + (1-alpha)*Y**(1/b3) and
    substituting one fundamental invariant into each term:

        Y = (cK * K**(1/b2) + cL * L**(1/b1)) ** b3
        cK = alpha * Y0**(1/b3) / K0**(1/b2)
        cL = (1 - alpha) * Y0**(1/b3) / L0**(1/b1)

    All three growth rates must be nonzero.
    """
    _require_alpha(alpha)
    _require_nonzero(model, ("b1", "b2", "b3"), "the CES-like exponents are undefined")
    cK = alpha * math.exp(model.ln_Y0 / model.b3 - model.ln_K0 / model.b2)
    cL = (1.0 - alpha) * math.exp(model.ln_Y0 / model.b3 - model.ln_L0 / model.b1)
    if not (math.isfinite(cK) and math.isfinite(cL)):
        raise DomainError(
            "CES-like coefficients overflow for this model "
            "(|ln_Y0/b3| or |ln_X0/bx| too large)"
        )
    return GeneralizedCES(
        cK=cK, cL=cL, alpha=alpha, eK=1.0 / model.b2, eL=1.0 / model.b1, outer=model.b3
    )


def ces_reduction(model: ExponentialModel, alpha: float, tol: float = 1e-9) -> CES:
    """Collapse the generalized CES family to the textbook CES form.

    Requires labor and capital to grow at the same rate and the three initial
    levels to coincide, both up to `tol` (relative for the rates, absolute on
    the logs -- fitted parameters are never exactly equal); `tol` must be
    finite and >= 0.  With b the mean rate and c the geometric mean initial
    level:

        p = 1/b,   v = b3/b,   A = c**(1 - b3/b)

    For realistic annual growth rates p = 1/b exceeds 1, making the implied
    elasticity of substitution negative; that is reported as a
    SubstitutionRangeWarning, not an error.
    """
    _require_alpha(alpha)
    _require_tol(tol)
    if model.b1 == 0.0 or model.b2 == 0.0:
        raise NotReducibleError("b1 and b2 must be nonzero")
    if abs(model.b1 - model.b2) > tol * max(abs(model.b1), abs(model.b2)):
        raise NotReducibleError(
            f"|b1 - b2| = {abs(model.b1 - model.b2)!r} exceeds the relative "
            f"tolerance {tol!r}: labor and capital growth rates differ"
        )
    if abs(model.ln_L0 - model.ln_K0) > tol or abs(model.ln_L0 - model.ln_Y0) > tol:
        raise NotReducibleError(
            "initial levels differ: the reduction assumes L0 = K0 = Y0 "
            f"but ln_L0={model.ln_L0!r}, ln_K0={model.ln_K0!r}, ln_Y0={model.ln_Y0!r}"
        )
    b = 0.5 * (model.b1 + model.b2)
    ln_c = (model.ln_L0 + model.ln_K0 + model.ln_Y0) / 3.0
    p = 1.0 / b
    v = model.b3 / b
    A = _anchor(ln_c * (1.0 - v), "ces_reduction")
    if p >= 1.0:
        warnings.warn(
            f"p = {p!r} >= 1: sigma = 1/(1-p) is negative or undefined, "
            "outside the economically standard range",
            SubstitutionRangeWarning,
            stacklevel=2,
        )
    return CES(A=A, alpha=alpha, p=p, v=v)


# points per block of a long grid: 64 KB per array, in L2 and small enough that
# glibc's malloc reuses the freed arrays (at 80 KB and above it returns them, and every block faults)
_BLOCK = 8192

# (model, grid bytes, (L, K, Y)) of the last one-block grid, read once and replaced whole;
# holding the model keeps its id from reuse
_held = None


def _relative(fn: ProductionFunction, L, K, Y):
    """fn(L, K) and the per-point deviation |fn(L, K) - Y| / Y from the trajectory's Y."""
    y_fn = evaluate(fn, L, K)
    if isinstance(Y, float):  # a 0-d grid: keep an np.float64 deviation
        return y_fn, np.abs(y_fn - Y) / Y
    rel = y_fn - Y  # one buffer for the whole metric
    np.abs(rel, out=rel)
    rel /= Y
    return y_fn, rel


def _deviation(fn: ProductionFunction, model: ExponentialModel, t_grid):
    """Y(t), fn(L(t), K(t)) and the per-point deviation |fn(L, K) - Y| / Y on a grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise DomainError("t_grid must be nonempty")
    L, K, Y = trajectory(model, t)
    return (Y, *_relative(fn, L, K, Y))


def constancy_check(
    fn: ProductionFunction, model: ExponentialModel, t_grid
) -> float:
    """Maximum over the grid of |fn(L(t), K(t)) - Y(t)| / Y(t), for every function type.

    Deviations are relative to Y(t) because index levels grow and an absolute
    metric would conflate scale with error.

    A nonempty 1-D grid is reduced in blocks of at most `_BLOCK` points by the
    same arithmetic, so no temporary outgrows a block and the maximum is the
    same float.  The blocks run with every floating-point event raised: the
    first event, even one the caller ignores, or a `DomainError` (a block
    leaving the range of exp) ends the blocks, and the grid is computed whole
    by `_deviation` under the caller's `np.errstate`, giving the whole-grid
    values, warnings and errors.  0-d and 2-D grids are computed whole.  The
    trajectory of a one-block grid is held when its block raised nothing; the
    next check of the same model object and grid bytes evaluates `fn` on it
    under the caller's `np.errstate`.
    """
    global _held
    t = np.asarray(t_grid, dtype=float)
    if t.ndim == 1 and t.size:
        grid = t.tobytes() if t.size <= _BLOCK else None
        held = _held
        if held is not None and held[0] is model and held[1] == grid:
            return float(_relative(fn, *held[2])[1].max())
        try:
            with np.errstate(all="raise"):
                worst = 0.0
                for i in range(0, t.size, _BLOCK):
                    levels = None  # free the last block's arrays before the next block's: malloc reuses them
                    levels = trajectory(model, t[i : i + _BLOCK])
                    worst = max(worst, float(_relative(fn, *levels)[1].max()))
        except (DomainError, FloatingPointError):
            pass
        else:
            if grid is not None:
                _held = (model, grid, levels)
            return worst
    return float(_deviation(fn, model, t)[2].max())


def identity_chain_check(
    model: ExponentialModel, alpha: float, L: float, K: float
) -> float:
    """Residual of the algebraic chain rebuilding Cobb-Douglas from power laws.

    With B and C the coefficients of the two fundamental invariants, the
    chain inserts (Y**alpha / Y**alpha)**(b1/b3) into Y = C*K**(b3/b2) and
    rewrites one copy via each power law:

        C * K**(b3/b2) * (B**alpha * L**(alpha*b3/b1)
                          / (C**alpha * K**(alpha*b3/b2))) ** (b1/b3)
            ==  A * L**alpha * K**(b3/b2 - alpha*b1/b2)

    Returns |lhs - rhs| / |rhs| evaluated at the given inputs; a correct
    implementation keeps it at rounding level for any model and alpha.  A power
    that overflows, a side that is 0 or a residual that is not finite is a DomainError.
    """
    _require_alpha(alpha)
    _require_nonzero(model, ("b1", "b2", "b3"), "the identity chain is undefined")
    if L <= 0.0 or K <= 0.0:
        raise DomainError("L and K must be strictly positive")
    b1, b2, b3 = model.b1, model.b2, model.b3
    B = _anchor(model.ln_Y0 - (b3 / b1) * model.ln_L0, "identity_chain_check")
    C = _anchor(model.ln_Y0 - (b3 / b2) * model.ln_K0, "identity_chain_check")
    member = cobb_douglas_member(model, alpha)
    try:
        lhs = (
            C
            * K ** (b3 / b2)
            * (B**alpha * L ** (alpha * b3 / b1) / (C**alpha * K ** (alpha * b3 / b2)))
            ** (b1 / b3)
        )
        rhs = member.A * L**member.alpha * K**member.beta
        if lhs != 0.0 and math.isfinite(residual := abs(lhs - rhs) / abs(rhs)):
            return residual
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"identity_chain_check: the chain leaves the float range at L = {L!r}, K = {K!r}")
