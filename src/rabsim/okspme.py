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
:mod:`rabsim.adaptive`; only step 4 differs between variants, each a
:class:`SteeringEstimator` with its own ``process``.  Every power is in
units of the noise power.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import NumericError
from .kernels import cho_solve, cholesky, norm
from .krylov import arnoldi_mgs, make_projector
from .tracking import CovarianceTracker

# Powers in units of the noise power.
POWER_FLOOR = 1e-8
DELTA = 0.1     # loading of step 2's linear system
DELTA0 = 0.1    # initial covariance loading of the estimator's tracker
TINY = 1e-12


def estimate_power(a_hat: np.ndarray, x: np.ndarray, sigma_n_sq: float) -> float:
    """Instantaneous desired-signal power from one snapshot.

    ``(|a^H x|^2 - |a^H a| sigma_n^2) / |a^H a|^2``, clamped from below at
    ``POWER_FLOOR`` so a noise-dominated snapshot cannot return a negative
    power and flip the sign of the rank-one subtraction downstream.
    """
    gram = abs(np.vdot(a_hat, a_hat))
    proj = abs(np.vdot(a_hat, x)) ** 2
    return max(POWER_FLOOR, (proj - gram * sigma_n_sq) / gram**2)


def build_rhs(a_hat: np.ndarray, sigma1_sq: float, sigma_n_sq: float) -> np.ndarray:
    """Right-hand side ``b = a (a^H a) sigma1^2 + (sigma_n^2 + DELTA) a``."""
    gram = np.vdot(a_hat, a_hat).real
    return (gram * sigma1_sq + sigma_n_sq + DELTA) * a_hat


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


def update_steering(a_hat: np.ndarray, P: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """Add the projected cross-correlation direction and renormalize to
    ``sqrt(M)``, the norm of a ULA steering vector.

    A negligible projection leaves the estimate untouched.
    """
    proj = P @ d_hat
    proj_norm = norm(proj)
    if proj_norm < TINY * max(1.0, norm(d_hat)):
        return a_hat
    a_new = a_hat + proj / proj_norm
    return a_new * (math.sqrt(len(a_hat)) / norm(a_new))


def inc_matrix(R_hat: np.ndarray, a_hat: np.ndarray,
               sigma1_sq: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Interference-plus-noise covariance ``R_hat - sigma1^2 a a^H``.

    An overestimated desired power can push the result indefinite; in that
    case the repair adds ``gamma I`` with ``gamma = |lambda_min| +
    1e-6 tr(R)/M``.  By Sherman-Morrison the subtraction alone does not
    change the direction of ``r_in^-1 a``, so the direct method's weights are
    ``(R + gamma I)^-1 a``, normalized, with ``gamma`` 0 or the repair's: a
    diagonal-loading rule, and not a minimal one.  On the coherent M=12 and
    M=40 acceptance scenarios the repair fires on 40-45% of the direct
    method's snapshots, with a late-trial median ``gamma`` of 358 noise
    powers.

    Returns ``(r_in, factor)``: ``factor`` is the lower Cholesky factor of
    ``r_in`` left by the positive-definiteness test, or None when the
    loading repaired ``r_in``.
    """
    r_in = R_hat - sigma1_sq * (a_hat[:, None] * a_hat.conj())
    r_in = 0.5 * (r_in + r_in.conj().T)
    try:
        return r_in, cholesky(r_in)
    except scipy.linalg.LinAlgError:
        pass
    # cholesky has checked that r_in is finite.
    lam_min = scipy.linalg.eigvalsh(r_in, check_finite=False, driver="evr")[0]
    delta_psd = 1e-6 * np.trace(R_hat).real / R_hat.shape[0]
    return r_in + (abs(lam_min) + abs(delta_psd)) * np.eye(r_in.shape[0]), None


def mvdr_weights(R_in: np.ndarray, a_hat: np.ndarray,
                 factor: np.ndarray | None = None) -> np.ndarray:
    """Distortionless weights ``R_in^-1 a / (a^H R_in^-1 a)``.

    Uses a Hermitian positive-definite factorization, never an explicit
    inverse; ``factor``, the lower Cholesky factor of ``R_in`` when the
    caller already has it, saves refactoring.  The complex-denominator
    normalization leaves ``w^H a`` within rounding error of 1, not exactly
    1 (up to 1.2e-14 at M = 40); acceptance criterion 6 checks it to 1e-10.
    """
    if factor is None:
        try:
            factor = cholesky(R_in)
        except scipy.linalg.LinAlgError as exc:
            raise NumericError(
                "interference-plus-noise matrix is not positive definite") from exc
    z = cho_solve(factor, a_hat)
    return z / np.vdot(a_hat, z)


class NoisePowerSource:
    """The noise variance of step 1.  Powers are in units of the noise
    power, so the engines build it at 1.0."""

    def __init__(self, value: float):
        self.value = float(value)

    def noise_power(self, R: np.ndarray) -> float:
        return self.value


class SteeringEstimator:
    """Shared state machine for steps 1-3 (statistics, power, steering), and
    the base of every OKSPME weight engine.

    Owns the covariance tracker (forgetting factor ``lam``, declared by each
    engine class, and initial loading ``DELTA0``) that supplies the snapshot
    statistics, and the noise power source; ``lam = 1`` tracks the sample
    mean.  The steering estimate keeps the physical ULA norm ``sqrt(M)``;
    ``DELTA`` loads the linear system of step 2.  An engine's ``process``
    refreshes the weights ``w`` (all ones before the first snapshot).
    """

    lam = 1.0

    def __init__(self, a_init: np.ndarray, num_sources: int):
        self.m = a_init.shape[0]
        self.noise = NoisePowerSource(1.0)
        self.tracker = CovarianceTracker(self.m, lam=self.lam, delta0=DELTA0)
        self.a_hat = a_init * (math.sqrt(self.m) / norm(a_init))
        self.num_sources = num_sources
        self.w = np.ones(self.m, dtype=complex)
        # Smoothed power estimate, weighted like the tracker statistics
        # (forgetting-factor mean, or plain arithmetic mean when lam = 1).
        self._sigma1_num = 0.0
        self._sigma1_den = 0.0

    @property
    def sigma1_sq_mean(self) -> float:
        """Running (tracker-weighted) mean of the power estimates."""
        return max(POWER_FLOOR, self._sigma1_num / self._sigma1_den)

    def begin_snapshot(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Absorb a snapshot into the covariance and run steps 1-3.

        Returns the covariance estimate ``R`` and this snapshot's power
        estimate ``sigma1_sq``; the updated steering estimate is ``a_hat``.

        The cross-correlation consumed here runs through the previous
        snapshot; this snapshot's output joins it via
        ``tracker.update_crosscorr`` once the caller has refreshed its
        weights ('w(k)' in the cross-correlation sum is the weight vector
        computed at snapshot k).
        """
        self.tracker.update_covariance(x)
        R = self.tracker.covariance()
        d = self.tracker.crosscorr()
        sigma_n = self.noise.noise_power(R)
        sigma1 = estimate_power(self.a_hat, x, sigma_n)
        lam = self.tracker.lam
        self._sigma1_num = lam * self._sigma1_num + sigma1
        self._sigma1_den = lam * self._sigma1_den + 1.0

        b = build_rhs(self.a_hat, sigma1, sigma_n)
        _, t1, converged = residue(R, self.a_hat, b)
        if not converged:
            basis = arnoldi_mgs(R, t1, self.num_sources)
            self.a_hat = update_steering(self.a_hat, make_projector(basis), d)
        return R, sigma1


class OkspmeBeamformer(SteeringEstimator):
    """The direct method: steps 1-3 plus the per-snapshot MVDR solve, whose
    weights answer the updated steering estimate."""

    name = "okspme"

    def process(self, x: np.ndarray) -> np.ndarray:
        """Absorb one snapshot, refresh the weights, return them."""
        R, sigma1_sq = self.begin_snapshot(x)
        r_in, factor = inc_matrix(R, self.a_hat, sigma1_sq)
        self.w = mvdr_weights(r_in, self.a_hat, factor)
        self.tracker.update_crosscorr(x, np.vdot(self.w, x))
        return self.w
