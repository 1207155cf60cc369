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

import numpy as np
import scipy.linalg

from .errors import NumericError, ParameterError
from .kernels import cho_solve, cholesky, norm
from .krylov import arnoldi_mgs, make_projector
from .tracking import CovarianceTracker

POWER_FLOOR = 1e-8
TINY = 1e-12
DELTA = 0.1     # loading of step 2's linear system
DELTA0 = 0.1    # initial covariance loading of the estimator's tracker


def estimate_power(a_hat: np.ndarray, x: np.ndarray, sigma_n_sq: float) -> float:
    """Instantaneous desired-signal power from one snapshot.

    ``(|a^H x|^2 - |a^H a| sigma_n^2) / |a^H a|^2``, clamped from below at
    ``POWER_FLOOR`` so a noise-dominated snapshot cannot return a negative
    power and flip the sign of the rank-one subtraction downstream.
    """
    gram = abs(np.vdot(a_hat, a_hat))
    if gram <= 0.0:
        raise ParameterError("steering estimate must be nonzero")
    proj = abs(np.vdot(a_hat, x)) ** 2
    return max(POWER_FLOOR, (proj - gram * sigma_n_sq) / gram**2)


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
    r_norm = norm(r)
    if r_norm < TINY * max(1.0, norm(b)):
        return r, None, True
    return r, r / r_norm, False


def update_steering(a_hat: np.ndarray, P: np.ndarray, d_hat: np.ndarray,
                    norm_target: float) -> np.ndarray:
    """Add the projected cross-correlation direction and renormalize.

    ``norm_target`` is the steering norm to restore, ``sqrt(M)`` for the
    physical ULA steering vector.  A negligible projection leaves the
    estimate untouched.
    """
    proj = P @ d_hat
    proj_norm = norm(proj)
    if proj_norm < TINY * max(1.0, norm(d_hat)):
        return a_hat
    a_new = a_hat + proj / proj_norm
    return a_new * (norm_target / norm(a_new))


def inc_matrix(R_hat: np.ndarray, a_hat: np.ndarray, sigma1_sq: float) -> np.ndarray:
    """Interference-plus-noise covariance ``R_hat - sigma1^2 a a^H``.

    An overestimated desired power can push the result indefinite; in that
    case a minimal diagonal loading ``(|lambda_min| + 1e-6 tr(R)/M) I`` is
    added so the MVDR solve stays well posed.
    """
    r_in = R_hat - sigma1_sq * (a_hat[:, None] * a_hat.conj())
    r_in = 0.5 * (r_in + r_in.conj().T)
    try:
        cholesky(r_in)
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
        factor = cholesky(R_in)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("interference-plus-noise matrix is not positive definite") from exc
    z = cho_solve(factor, a_hat)
    return z / np.vdot(a_hat, z)


class NoisePowerSource:
    """The noise variance of step 1: a fixed, externally supplied value (the
    scenario truth in simulations)."""

    def __init__(self, value: float):
        self.value = float(value)

    def noise_power(self, R: np.ndarray) -> float:
        return self.value


class SteeringEstimator:
    """Shared state machine for steps 1-3 (statistics, power, steering).

    Owns the covariance tracker (forgetting factor ``lam``, initial loading
    ``DELTA0``) that supplies the snapshot statistics, and the noise power
    source; ``lam = 1`` tracks the sample mean.  The steering estimate keeps
    the physical ULA norm ``sqrt(M)``; ``DELTA`` loads the linear system of
    step 2.
    """

    def __init__(self, a_init: np.ndarray, num_sources: int, noise_power: float,
                 lam: float = 1.0):
        a_init = np.asarray(a_init, dtype=complex)
        self.m = a_init.shape[0]
        self.tracker = CovarianceTracker(self.m, lam=lam, delta0=DELTA0)
        self.noise = NoisePowerSource(noise_power)
        self.norm_target = math.sqrt(self.m)
        self.a_hat = a_init * (self.norm_target / norm(a_init))
        self.num_sources = int(num_sources)
        # Smoothed power estimate, weighted like the tracker statistics
        # (forgetting-factor mean, or plain arithmetic mean when lam = 1).
        self._sigma1_num = 0.0
        self._sigma1_den = 0.0

    @property
    def sigma1_sq_mean(self) -> float:
        """Running (tracker-weighted) mean of the power estimates."""
        if self._sigma1_den == 0.0:
            return POWER_FLOOR
        return max(POWER_FLOOR, self._sigma1_num / self._sigma1_den)

    def begin_snapshot(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Absorb a snapshot into the covariance and run steps 1-3.

        Returns the covariance estimate ``R`` and this snapshot's power
        estimate ``sigma1_sq``; the updated steering estimate is ``a_hat``.

        The cross-correlation consumed here runs through the previous
        snapshot; this snapshot's output joins it via ``record_output`` once
        the caller has refreshed its weights ('w(k)' in the cross-correlation
        sum is the weight vector computed at snapshot k).
        """
        self.tracker.update_covariance(x)
        R = self.tracker.covariance()
        d = self.tracker.crosscorr()
        sigma_n = self.noise.noise_power(R)
        sigma1 = estimate_power(self.a_hat, x, sigma_n)
        lam = self.tracker.lam
        self._sigma1_num = lam * self._sigma1_num + sigma1
        self._sigma1_den = lam * self._sigma1_den + 1.0

        b = build_rhs(self.a_hat, sigma1, sigma_n, DELTA)
        _, t1, converged = residue(R, self.a_hat, b)
        if not converged:
            basis = arnoldi_mgs(R, t1, self.num_sources)
            self.a_hat = update_steering(self.a_hat, make_projector(basis), d,
                                         self.norm_target)
        return R, sigma1

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
        R, sigma1_sq = self.estimator.begin_snapshot(x)
        a_hat = self.estimator.a_hat
        self.w = mvdr_weights(inc_matrix(R, a_hat, sigma1_sq), a_hat)
        self.estimator.record_output(x, np.vdot(self.w, x))
        return self.w
