"""OKSPME: orthogonal Krylov subspace projection mismatch estimation.

The method treats the running covariance and the presumed desired-signal
steering vector as a linear system ``R_hat a = b`` whose residue seeds a small
Krylov basis.  Projecting the snapshot/output cross-correlation onto that
basis extracts the steering error, which is added back onto the estimate.
The beamformer weights then come from an MVDR solve against the covariance
with the estimated desired-signal contribution subtracted out.

Per snapshot:

1. instantaneous desired-power estimate from the current steering estimate,
2. residue ``r = b - R_hat a`` and the Arnoldi basis it seeds,
3. steering update ``a <- a + P d_hat / ||P d_hat||`` followed by
   renormalization,
4. interference-plus-noise reconstruction and the MVDR solve.

Steps 1-3 are shared verbatim by the gradient-based weight engines in
:mod:`rabsim.adaptive`; only step 4 differs between variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError, ParameterError
from .krylov import arnoldi_mgs, make_projector
from .tracking import SAMPLE_MEAN, CovarianceTracker

POWER_FLOOR = 1e-8
TINY = 1e-12


def estimate_power(a_hat: np.ndarray, x: np.ndarray, sigma_n_sq: float,
                   power_floor: float = POWER_FLOOR) -> float:
    """Instantaneous desired-signal power from one snapshot.

    ``(|a^H x|^2 - |a^H a| sigma_n^2) / |a^H a|^2``, clamped from below so a
    noise-dominated snapshot cannot return a negative power and flip the sign
    of the rank-one subtraction downstream.
    """
    gram = abs(np.vdot(a_hat, a_hat))
    if gram <= 0.0:
        raise ParameterError("steering estimate must be nonzero")
    proj = abs(np.vdot(a_hat, x)) ** 2
    return max(power_floor, (proj - gram * sigma_n_sq) / gram**2)


def build_rhs(a_hat: np.ndarray, sigma1_sq: float, sigma_n_sq: float,
              delta: float) -> np.ndarray:
    """Right-hand side ``b = a (a^H a) sigma1^2 + (sigma_n^2 + delta) a``."""
    gram = np.vdot(a_hat, a_hat).real
    return (gram * sigma1_sq + sigma_n_sq + delta) * a_hat


def residue(R_hat: np.ndarray, a_hat: np.ndarray, b: np.ndarray):
    """Residue ``r = b - R_hat a`` and its unit direction.

    Returns ``(r, t1, converged)``; ``converged`` is set (and ``t1`` is None)
    when the residue norm is negligible, in which case the caller skips the
    subspace update for this snapshot.
    """
    r = b - R_hat @ a_hat
    norm = np.linalg.norm(r)
    if norm < TINY * max(1.0, np.linalg.norm(b)):
        return r, None, True
    return r, r / norm, False


def update_steering(a_hat: np.ndarray, P: np.ndarray, d_hat: np.ndarray,
                    norm_target: float | None = None) -> np.ndarray:
    """Add the projected cross-correlation direction and renormalize.

    ``norm_target`` defaults to ``sqrt(M)``, the physical ULA steering norm;
    passing 1.0 reproduces the plain unit renormalization.  A negligible
    projection leaves the estimate untouched.
    """
    proj = P @ d_hat
    norm = np.linalg.norm(proj)
    if norm < TINY * max(1.0, np.linalg.norm(d_hat)):
        return a_hat
    if norm_target is None:
        norm_target = math.sqrt(a_hat.shape[0])
    a_new = a_hat + proj / norm
    return a_new * (norm_target / np.linalg.norm(a_new))


def inc_matrix(R_hat: np.ndarray, a_hat: np.ndarray, sigma1_sq: float) -> np.ndarray:
    """Interference-plus-noise covariance ``R_hat - sigma1^2 a a^H``.

    An overestimated desired power can push the result indefinite; in that
    case a minimal diagonal loading ``(|lambda_min| + 1e-6 tr(R)/M) I`` is
    added so the MVDR solve stays well posed.
    """
    r_in = R_hat - sigma1_sq * np.outer(a_hat, a_hat.conj())
    r_in = 0.5 * (r_in + r_in.conj().T)
    try:
        scipy.linalg.cholesky(r_in, lower=True)
        return r_in
    except scipy.linalg.LinAlgError:
        pass
    lam_min = scipy.linalg.eigvalsh(r_in)[0]
    delta_psd = 1e-6 * np.trace(R_hat).real / R_hat.shape[0]
    return r_in + (abs(lam_min) + abs(delta_psd)) * np.eye(r_in.shape[0])


def mvdr_weights(R_in: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
    """Distortionless weights ``R_in^-1 a / (a^H R_in^-1 a)``.

    Uses a Hermitian positive-definite factorization, never an explicit
    inverse; the complex-denominator normalization makes ``w^H a = 1`` hold
    to the last bit.
    """
    try:
        factor = scipy.linalg.cho_factor(R_in, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("interference-plus-noise matrix is not positive definite") from exc
    z = scipy.linalg.cho_solve(factor, a_hat)
    return z / np.vdot(a_hat, z)


class NoisePowerSource:
    """Where the noise variance in step 1 comes from.

    ``oracle`` uses a fixed externally supplied value (the scenario truth in
    simulations); ``eigen`` averages the ``M - K`` smallest eigenvalues of the
    current covariance estimate.
    """

    def __init__(self, mode: str = "oracle", value: float = 1.0, num_sources: int = 1):
        if mode not in ("oracle", "eigen"):
            raise ParameterError(f"unknown noise mode {mode!r}")
        self.mode = mode
        self.oracle_value = float(value)
        self.num_sources = int(num_sources)

    def noise_power(self, R: np.ndarray) -> float:
        if self.mode == "oracle":
            return self.oracle_value
        m = R.shape[0]
        tail = max(1, m - self.num_sources)
        eigs = scipy.linalg.eigvalsh(R)
        return float(np.mean(eigs[:tail]))


@dataclass
class StepInfo:
    """Per-snapshot products of steps 1-3 consumed by the weight engines."""

    R: np.ndarray
    d: np.ndarray
    sigma1_sq: float
    sigma_n_sq: float
    a_hat: np.ndarray


class SteeringEstimator:
    """Shared state machine for steps 1-3 (statistics, power, steering)."""

    def __init__(
        self,
        a_init: np.ndarray,
        num_sources: int,
        tracker: CovarianceTracker,
        noise: NoisePowerSource,
        delta: float = 0.1,
        unit_norm: bool = False,
        power_floor: float = POWER_FLOOR,
    ):
        a_init = np.asarray(a_init, dtype=complex)
        self.m = a_init.shape[0]
        self.norm_target = 1.0 if unit_norm else math.sqrt(self.m)
        self.a_hat = a_init * (self.norm_target / np.linalg.norm(a_init))
        self.num_sources = int(num_sources)
        self.tracker = tracker
        self.noise = noise
        self.delta = float(delta)
        self.power_floor = float(power_floor)
        # Smoothed power estimate, weighted like the tracker statistics
        # (forgetting-factor mean, or plain arithmetic mean when lam = 1).
        self._sigma1_num = 0.0
        self._sigma1_den = 0.0
        self._steps = 0

    @property
    def sigma1_sq_mean(self) -> float:
        """Running (tracker-weighted) mean of the power estimates."""
        if self._sigma1_den == 0.0:
            return self.power_floor
        return max(self.power_floor, self._sigma1_num / self._sigma1_den)

    def begin_snapshot(self, x: np.ndarray) -> StepInfo:
        """Absorb a snapshot into the covariance and run steps 1-3.

        The cross-correlation consumed here runs through the previous
        snapshot; this snapshot's output joins it via ``record_output`` once
        the caller has refreshed its weights ('w(k)' in the cross-correlation
        sum is the weight vector computed at snapshot k).
        """
        self.tracker.update_covariance(x)
        R = self.tracker.covariance()
        d = self.tracker.crosscorr()
        sigma_n = self.noise.noise_power(R)
        sigma1 = estimate_power(self.a_hat, x, sigma_n, self.power_floor)
        lam = self.tracker.lam if self.tracker.mode == "forgetting" else 1.0
        self._sigma1_num = lam * self._sigma1_num + sigma1
        self._sigma1_den = lam * self._sigma1_den + 1.0
        self._steps += 1

        b = build_rhs(self.a_hat, sigma1, sigma_n, self.delta)
        _, t1, converged = residue(R, self.a_hat, b)
        if not converged:
            basis = arnoldi_mgs(R, t1, self.num_sources)
            self.a_hat = update_steering(self.a_hat, make_projector(basis), d,
                                         self.norm_target)
        return StepInfo(R=R, d=d, sigma1_sq=sigma1, sigma_n_sq=sigma_n,
                        a_hat=self.a_hat)

    def record_output(self, x: np.ndarray, y: complex) -> None:
        """Feed this snapshot's beamformer output into the cross-correlation."""
        self.tracker.update_crosscorr(x, y)


class OkspmeBeamformer:
    """The direct method: steps 1-3 plus the per-snapshot MVDR solve."""

    name = "okspme"

    def __init__(self, estimator: SteeringEstimator):
        self.estimator = estimator
        self.w = np.ones(estimator.m, dtype=complex)

    @property
    def a_hat(self) -> np.ndarray:
        return self.estimator.a_hat

    @property
    def constraint_steering(self) -> np.ndarray:
        return self.estimator.a_hat

    def process(self, x: np.ndarray) -> np.ndarray:
        """Absorb one snapshot, refresh the weights, return them."""
        info = self.estimator.begin_snapshot(x)
        r_in = inc_matrix(info.R, info.a_hat, info.sigma1_sq)
        self.w = mvdr_weights(r_in, info.a_hat)
        self.estimator.record_output(x, np.vdot(self.w, x))
        return self.w


def default_estimator(a_init: np.ndarray, num_sources: int, noise: NoisePowerSource,
                      delta: float = 0.1, delta0: float = 0.1,
                      mode: str = SAMPLE_MEAN, lam: float = 1.0,
                      unit_norm: bool = False) -> SteeringEstimator:
    tracker = CovarianceTracker(len(a_init), mode=mode, lam=lam, delta0=delta0)
    return SteeringEstimator(a_init, num_sources, tracker, noise,
                             delta=delta, unit_norm=unit_norm)
