"""Reference beamformers, SINR metrics, steering-error bounds, flop models.

Everything here is closed-form: the sample-matrix-inversion baselines and
the clairvoyant optimum, the output SINR that scores every algorithm's
weights (the optimum's included), the analytic bounds on the
steering-estimate mean squared error as a function of the presumed angular
sector, and per-snapshot flop counts for the algorithm family and the usual
competitors.  The flop counts are one table, ``algorithm -> (needs m,
needs n, count(M, m, n))``; a ``FlopModel`` checks its order and inner
counts against its row when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError, ParameterError
from .kernels import cho_solve, cholesky, row_norms

SINR_FLOOR_DB = -200.0


def smi_weights(R_hat: np.ndarray, a_nominal: np.ndarray) -> np.ndarray:
    """Sample-matrix-inversion beamformer ``R^-1 a / (a^H R^-1 a)``.

    ``R_hat`` must be Hermitian positive definite (a loaded sample
    covariance is); it is solved through its Cholesky factor, and any other
    matrix raises ``NumericError``.
    """
    try:
        z = cho_solve(cholesky(R_hat), a_nominal)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError("sample covariance is not positive definite") from exc
    if not np.isfinite(z).all():
        raise NumericError("sample covariance solve produced non-finite weights")
    return z / np.vdot(a_nominal, z)


def optimal_weights(a_true: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Clairvoyant MVDR weights; ``factor`` is the lower Cholesky factor of
    the true interference-plus-noise matrix."""
    z = cho_solve(factor, a_true)
    return z / np.vdot(a_true, z)


def output_sinr(w: np.ndarray, sigma1_sq: float, a_true: np.ndarray,
                R_in_true: np.ndarray) -> np.ndarray:
    """Realized SINR of each weight row against the true scenario, in dB.

    Evaluates ``sigma1^2 |w^H a|^2 / (w^H R_in w)``; a fully nulled desired
    signal reports the floor value instead of -inf, and a zero denominator
    (only possible for a degenerate noise-free scenario) reports +inf.

    ``w`` and ``a_true`` are stacks with one row per snapshot, all scored
    against ``R_in_true``.  The inner products run as one stacked ``matmul``
    each, which gives the bits of ``np.vdot`` and ``R_in @ w`` row by row; the
    magnitude, square and logarithm stay scalar operations, element by
    element, because their array forms round differently.
    """
    w_h = w.conj()[:, None, :]
    gains = (w_h @ a_true[:, :, None]).ravel()
    dens = (w_h @ (R_in_true @ w[:, :, None])).real.ravel()
    out = np.empty(len(w))
    for i, (gain, den) in enumerate(zip(gains, dens)):
        num = sigma1_sq * abs(gain) ** 2
        if den <= 0:
            out[i] = math.inf if num > 0 else SINR_FLOOR_DB
        elif num <= 0:
            out[i] = SINR_FLOOR_DB
        else:
            out[i] = max(SINR_FLOOR_DB, 10.0 * math.log10(num / den))
    return out


def steering_mse(a_hat: np.ndarray, a_true: np.ndarray) -> np.ndarray:
    """Squared error between each estimate row and its true steering row.

    The estimate is rescaled to the true vector's norm first, matching the
    fixed-norm premise of the analytic bounds.  Takes stacks with one row per
    snapshot; the square stays a scalar operation, element by element.
    """
    a_hat = np.ascontiguousarray(a_hat)
    a_true = np.ascontiguousarray(a_true)
    scale = row_norms(a_true) / row_norms(a_hat)
    errors = row_norms(a_hat * scale[:, None] - a_true)
    return np.array([float(e ** 2) for e in errors])


@dataclass(frozen=True)
class MseBounds:
    lower: float
    upper: float
    method: str


def _check_sector(theta_rad: float):
    if not 0.0 < theta_rad < math.pi / 4:
        raise ParameterError(
            f"sector half-angle must lie in (0, pi/4) rad, got {theta_rad}")


def _sine_tail(first: float, x2: float) -> float:
    """Sum the alternating series ``first * (1 - x2/(4*5) + x2^2/(4*5*6*7) - ...)``.

    Both sector terms below are such a tail of the sine series.  The loop
    stops once a term no longer moves the total, or once it underflows to
    zero, which happens for a small enough sector.
    """
    term = total = first
    k = 1
    while True:
        # next factor: -x^2 / ((2k+2)(2k+3))
        term *= -x2 / ((2 * k + 2) * (2 * k + 3))
        if term == 0.0 or abs(term) < 1e-20 * abs(total):
            return total
        total += term
        k += 1


def _one_minus_sinc(t: float) -> float:
    """``1 - sin(t)/t`` without the cancellation that direct evaluation hits.

    For small ``t`` the direct form subtracts two nearly equal numbers and
    amplifies rounding by ~1/t^2; the alternating series converges fast on
    the sector range and keeps the result accurate to machine precision.
    """
    if abs(t) > 0.5:
        return 1.0 - math.sin(t) / t
    t2 = t * t
    return _sine_tail(t2 / 6.0, t2)


def _x_minus_sin(x: float) -> float:
    """``x - sin(x)``, series-evaluated for small ``x`` (same rationale)."""
    if abs(x) > 0.5:
        return x - math.sin(x)
    x2 = x * x
    return _sine_tail(x * x2 / 6.0, x2)


def _finite(what: str, *values: float) -> tuple:
    """``values``, or a ``ParameterError`` if one left the float range."""
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{what} overflow the float range")
    return values


def mse_bounds(theta_rad: float, a_norm_sq: float, method: str = "okspme") -> MseBounds:
    """Closed-form bounds on the steering-estimate MSE.

    ``theta_rad`` is half the presumed angular sector, in radians.  The shared
    term ``2 - 2 sin(t)/t`` is the mean squared initial-guess error; the
    method-specific terms bound the accumulated update error: the
    sequential-quadratic-programming estimator walks outside the sector arc
    (tangent geometry) while the Krylov-projection estimator stays inside it
    (chord/arc geometry), which makes its bounds strictly smaller.
    """
    _check_sector(theta_rad)
    if not 0.0 < a_norm_sq < math.inf:
        raise ParameterError(f"a_norm_sq must be finite and > 0, got {a_norm_sq}")
    t = theta_rad
    base = 2.0 * _one_minus_sinc(t)
    if method == "sqp":
        lower = base + t**2 / 4.0
        upper = base + (math.tan(2 * t) - 2 * t) ** 2 / 4.0 + math.tan(t) ** 2
    elif method == "okspme":
        lower = base + math.sin(t / 2.0) ** 2
        upper = base + _x_minus_sin(2 * t) ** 2 / 4.0 + t**2
    else:
        raise ParameterError(f"unknown bound method {method!r}")
    lower, upper = _finite(f"the bounds for a_norm_sq {a_norm_sq}",
                           lower * a_norm_sq, upper * a_norm_sq)
    return MseBounds(lower=lower, upper=upper, method=method)


def epsilon_moments(theta_rad: float, a_norm: float) -> tuple[float, float, float]:
    """Moments of the initial-guess error norm over a centered sector.

    The guess direction sits at a uniform arc offset ``tau in [0, theta]``
    from the truth, so the error norm is the chord ``2 ||a|| sin(tau/2)``.
    Returns ``(mean, variance, mean_square)`` of that chord length.
    """
    _check_sector(theta_rad)
    if not 0.0 < a_norm < math.inf:
        raise ParameterError(f"a_norm must be finite and > 0, got {a_norm}")
    t = theta_rad
    what = f"the moments for a_norm {a_norm}"
    mean = 8.0 * a_norm * math.sin(t / 4.0) ** 2 / t
    try:
        mean_square = 2.0 * a_norm**2 * _one_minus_sinc(t)
        variance = mean_square - mean**2
    except OverflowError as exc:    # a float power beyond the float range
        raise ParameterError(f"{what} overflow the float range") from exc
    return _finite(what, mean, variance, mean_square)


# Per-snapshot flop counts (adds + multiplies) as polynomials in the sensor
# count M, the Krylov subspace order m and the inner-iteration count n:
# algorithm -> (needs m, needs n, count(M, m, n)).  The
# sequential-quadratic-programming row is an asymptotic O(M^3.5) label,
# evaluated as ``round(M^3.5)``.
_FLOP_COUNTS = {
    "locsme": (False, False, lambda M, m, n: 4 * M**3 + 3 * M**2 + 20 * M),
    "rcb": (False, False, lambda M, m, n: 2 * M**3 + 11 * M**2),
    "sqp": (False, False, lambda M, m, n: round(M**3.5)),
    "locme": (False, False, lambda M, m, n: 2 * M**3 + 4 * M**2 + 5 * M),
    "lcwc": (False, True, lambda M, m, n: 2 * n * M**2 + 7 * n * M),
    "okspme": (True, False, lambda M, m, n:
               M**3 + (4 * m + 11) * M**2 + (3 * m**2 + 5 * m + 20) * M),
    "okspme-sg": (True, False, lambda M, m, n:
                  (4 * m + 7) * M**2 + (3 * m**2 + 5 * m + 33) * M),
    "okspme-ccg": (True, True, lambda M, m, n:
                   (4 * m + 8 * n + 8) * M**2 + (3 * m**2 + 5 * m + 33 * n + 29) * M),
    "okspme-mcg": (True, False, lambda M, m, n:
                   (4 * m + 14) * M**2 + (3 * m**2 + 5 * m + 86) * M),
}
FLOP_ALGORITHMS = tuple(_FLOP_COUNTS)


@dataclass(frozen=True)
class FlopModel:
    algorithm: str
    m_sensors: int
    order: int | None = None     # Krylov subspace order m
    inner: int | None = None     # inner iterations n

    def __post_init__(self):
        if self.algorithm not in _FLOP_COUNTS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.m_sensors < 2:
            raise ParameterError("m_sensors must be >= 2")
        needs_order, needs_inner, _ = _FLOP_COUNTS[self.algorithm]
        if needs_order and self.order is None:
            raise ParameterError(f"{self.algorithm} needs the subspace order m")
        if needs_inner and self.inner is None:
            raise ParameterError(f"{self.algorithm} needs the inner-iteration count n")
        for name, value in (("order", self.order), ("inner", self.inner)):
            if value is not None and value < 1:
                raise ParameterError(f"{name} must be >= 1, got {value}")


def flops(model: FlopModel) -> int:
    """Evaluate the per-snapshot flop count of ``model``."""
    count = _FLOP_COUNTS[model.algorithm][2]
    try:
        return count(model.m_sensors, model.order, model.inner)
    except OverflowError as exc:    # round(M**3.5) beyond the float range
        raise ParameterError(
            f"the {model.algorithm} flop count overflows at this M") from exc
