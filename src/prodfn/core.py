"""Exponential growth systems and the production functions they generate.

The central object is a diagonal linear system for labor L, capital K and
output Y,

    dL/dt = b1 * L,   dK/dt = b2 * K,   dY/dt = b3 * Y,

whose closed-form trajectories are L(t) = L0 * exp(b1*t) and so on.  The
production-function types collected here (power laws, Cobb-Douglas, a
generalized CES family and the textbook CES form) are the shapes that arise
as time-independent invariants of that system; `prodfn.invariants` does the
deriving, this module only represents and evaluates.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

Scalarish = Union[float, np.ndarray]


class ProdfnError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ProdfnError):
    """An argument lies outside the mathematical domain of an operation."""


class Factor(Enum):
    """Which input a single-input production function reads."""

    LABOR = "labor"
    CAPITAL = "capital"


# (predicate, message) of each field rule, in the order _check_fields applies them
_FIELD_RULES = (
    (math.isfinite, "must be finite"),
    (lambda v: v > 0.0, "must be positive"),
    (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
)


def _check_fields(obj, finite, positive=(), share=()):
    """Raise DomainError naming the first field of `obj` that breaks its rule."""
    for (holds, message), names in zip(_FIELD_RULES, (finite, positive, share)):
        for name in names:
            v = getattr(obj, name)
            if not holds(v):
                raise DomainError(f"{type(obj).__name__}.{name} {message}, got {v!r}")


@dataclass(frozen=True)
class ExponentialModel:
    """Parameters of the exponential growth system for (L, K, Y).

    Growth rates are per year.  Initial levels are stored as natural logs
    (ln_L0, ln_K0, ln_Y0) so that fitted intercepts round-trip without loss;
    finiteness of the logs guarantees strictly positive initial levels.
    Time t is measured in years since `base_year`.
    """

    b1: float
    b2: float
    b3: float
    ln_L0: float
    ln_K0: float
    ln_Y0: float
    base_year: int = 0

    def __post_init__(self):
        _check_fields(self, ("b1", "b2", "b3", "ln_L0", "ln_K0", "ln_Y0"))

    @property
    def L0(self) -> float:
        return math.exp(self.ln_L0)

    @property
    def K0(self) -> float:
        return math.exp(self.ln_K0)

    @property
    def Y0(self) -> float:
        return math.exp(self.ln_Y0)


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-variable statistics of a log-linear least-squares fit."""

    slope: float
    intercept: float
    r_squared: float
    residual_max_abs: float
    n_points: int

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise DomainError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")
        if self.n_points < 2:
            raise DomainError(f"n_points must be >= 2, got {self.n_points!r}")


@dataclass(frozen=True)
class PowerLaw:
    """Single-input power law Y = coeff * X**exponent, X being L or K."""

    coeff: float
    exponent: float
    input: Factor

    def __post_init__(self):
        _check_fields(self, ("coeff", "exponent"), ("coeff",))


@dataclass(frozen=True)
class CobbDouglas:
    """Cobb-Douglas form Y = A * L**alpha * K**beta.

    alpha + beta is not constrained to 1; constant returns to scale is the
    special case alpha + beta == 1.
    """

    A: float
    alpha: float
    beta: float

    def __post_init__(self):
        _check_fields(self, ("A", "alpha", "beta"), ("A",), ("alpha",))


@dataclass(frozen=True)
class GeneralizedCES:
    """CES-like form Y = (cK * K**eK + cL * L**eL) ** outer.

    Unlike the textbook CES, the two inner exponents may differ.  `alpha` is
    the share parameter the coefficients were built from; it is carried for
    reporting and plays no role in evaluation (cK and cL already absorb it).
    """

    cK: float
    cL: float
    alpha: float
    eK: float
    eL: float
    outer: float

    def __post_init__(self):
        _check_fields(self, ("cK", "cL", "alpha", "eK", "eL", "outer"), ("cK", "cL"), ("alpha",))


@dataclass(frozen=True)
class CES:
    """Constant-elasticity-of-substitution form.

    Y = A * (alpha * K**p + (1 - alpha) * L**p) ** (v/p)

    v is the degree of homogeneity (returns to scale); the elasticity of
    substitution is sigma = 1 / (1 - p), undefined at p = 1.
    """

    A: float
    alpha: float
    p: float
    v: float

    def __post_init__(self):
        _check_fields(self, ("A", "alpha", "p", "v"), ("A",), ("alpha",))
        if self.p == 0.0:
            raise DomainError("CES.p must be nonzero")

    @property
    def sigma(self) -> float | None:
        """Elasticity of substitution, or None at p = 1 where it is undefined."""
        if self.p == 1.0:
            return None
        return 1.0 / (1.0 - self.p)


ProductionFunction = Union[PowerLaw, CobbDouglas, GeneralizedCES, CES]


def _inside_exp(model: ExponentialModel, t_arr: np.ndarray) -> bool:
    """`trajectory`'s grid-ends rule: every ln_X0 + b*t lies in (-745, 709), where exp is positive
    and finite, if it does at min(t) and max(t), since rounding is monotone.  NaN fails it."""
    if not t_arr.size:
        return True
    lo, hi = float(t_arr.min()), float(t_arr.max())
    for ln0, b in ((model.ln_L0, model.b1), (model.ln_K0, model.b2), (model.ln_Y0, model.b3)):
        if not (-745.0 < ln0 + b * lo < 709.0 and -745.0 < ln0 + b * hi < 709.0):  # NaN fails
            return False
    return True


def _levels(
    model: ExponentialModel, t_arr: np.ndarray, out=(None, None, None)
) -> tuple[Scalarish, Scalarish, Scalarish]:
    """L, K and Y on t_arr, each exp(t*b + ln_X0) built in one buffer, `out`'s when given (floats for a 0-d t_arr)."""
    levels = []
    for (ln0, b), x in zip(((model.ln_L0, model.b1), (model.ln_K0, model.b2), (model.ln_Y0, model.b3)), out):
        x = np.multiply(t_arr, b, out=x)
        x += ln0
        levels.append(np.exp(x, out=x) if t_arr.ndim else float(np.exp(x)))
    return tuple(levels)


# points per thread block: a 1-D grid of at least two is split at a block boundary between the caller and one worker
# thread, each reducing its part in blocks of at most this size (at 32,768 the check's peak memory passes 2 MiB)
_THREAD_BLOCK = 16384


def _cut(n: int) -> int:
    """Where a grid of n points is split between the caller and one worker thread: the multiple of `_THREAD_BLOCK`
    nearest n/2, or 0 (no split) below two thread blocks or with fewer than 2 CPUs to run on."""
    if n < 2 * _THREAD_BLOCK:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return (n + _THREAD_BLOCK) // (2 * _THREAD_BLOCK) * _THREAD_BLOCK if cpus >= 2 else 0


def _both(first, second) -> list:
    """[first(), second()], first() run in the caller while second() runs in one worker thread, joined before
    returning or raising; when either raised, the caller's exception is re-raised, else the worker's."""
    outcomes = [None, None]

    def run(i, part):
        try:
            outcomes[i] = part()
        except BaseException as exc:
            outcomes[i] = exc

    worker = threading.Thread(target=run, args=(1, second))
    worker.start()
    run(0, first)
    worker.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def _split_levels(model: ExponentialModel, t_arr: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_levels` of a 1-D t_arr, allocated here and filled from `cut` on by a worker thread through out= slices.
    Both parts run with every floating-point event raised; after an event the grid is built whole by `_levels`
    under the caller's `np.errstate`, giving its warnings and errors."""
    levels = tuple(np.empty(t_arr.size) for _ in range(3))

    def fill(part: slice) -> None:
        with np.errstate(all="raise"):
            _levels(model, t_arr[part], tuple(x[part] for x in levels))

    try:
        _both(lambda: fill(slice(cut)), lambda: fill(slice(cut, None)))
    except FloatingPointError:
        return _levels(model, t_arr)
    return levels


def trajectory(model: ExponentialModel, t: Scalarish) -> tuple[Scalarish, Scalarish, Scalarish]:
    """Closed-form trajectory (L(t), K(t), Y(t)) of the exponential system.

    t is years since model.base_year, scalar or array (applied elementwise).
    Raises DomainError when a level overflows or underflows to 0, naming the
    variable and the first offending t.

    Every grid's levels come from `_levels`: with no range check when the grid-ends rule (`_inside_exp`)
    holds, otherwise with overflow ignored, then walked to name the first bad t, L before K before Y.
    A 1-D grid inside the rule and of at least two thread blocks is split with one worker thread (`_cut`).
    """
    t_arr = np.asarray(t, dtype=float)
    if _inside_exp(model, t_arr):
        cut = _cut(t_arr.size) if t_arr.ndim == 1 else 0
        return _split_levels(model, t_arr, cut) if cut else _levels(model, t_arr)
    if not np.isfinite(t_arr).all():
        raise DomainError("t must be finite")
    with np.errstate(over="ignore"):
        levels = _levels(model, t_arr)
    for name, x in zip("LKY", levels):
        ok = np.isfinite(x) & (x > 0.0)  # x is never nan: its exponent is finite or +-inf
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            what = "overflows" if np.ravel(x)[i] == np.inf else "underflows to 0"
            raise DomainError(f"{name}(t) {what} at t = {float(np.ravel(t_arr)[i])}")
    return levels


def _log_sum(ln_cK: float, eK: float, K: np.ndarray, ln_cL: float, eL: float, L: np.ndarray) -> np.ndarray:
    """ln(cK * K**eK + cL * L**eL) from ln_cK and ln_cL: the CES family's sum of two terms, formed in logs."""
    return np.logaddexp(ln_cK + eK * np.log(K), ln_cL + eL * np.log(L))


def evaluate(fn: ProductionFunction, L: Scalarish, K: Scalarish) -> Scalarish:
    """Value of a production function at inputs (L, K), elementwise.

    Both inputs must be strictly positive.  A PowerLaw reads only its
    designated input but the positivity contract applies to both.  The CES
    family is evaluated through logs so that large inner exponents (p or
    1/b of order 100) do not overflow intermediates.
    """
    L_arr = np.asarray(L, dtype=float)
    K_arr = np.asarray(K, dtype=float)
    scalar = L_arr.ndim == 0 and K_arr.ndim == 0
    if not (L_arr > 0.0).all():
        raise DomainError("L must be strictly positive")
    if not (K_arr > 0.0).all():
        raise DomainError("K must be strictly positive")

    if isinstance(fn, PowerLaw):
        x = L_arr if fn.input is Factor.LABOR else K_arr
        y = fn.coeff * x**fn.exponent
    elif isinstance(fn, CobbDouglas):
        y = fn.A * L_arr**fn.alpha * K_arr**fn.beta
    elif isinstance(fn, GeneralizedCES):
        y = np.exp(fn.outer * _log_sum(math.log(fn.cK), fn.eK, K_arr, math.log(fn.cL), fn.eL, L_arr))
    elif isinstance(fn, CES):
        log_sum = _log_sum(math.log(fn.alpha), fn.p, K_arr, math.log1p(-fn.alpha), fn.p, L_arr)
        y = fn.A * np.exp((fn.v / fn.p) * log_sum)
    else:
        raise TypeError(f"not a production function: {fn!r}")
    return float(y) if scalar else y
