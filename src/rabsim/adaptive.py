"""Low-complexity weight engines sharing the steering estimator.

All three variants run the same per-snapshot statistics / power / steering
machinery (:class:`rabsim.okspme.SteeringEstimator`) and replace the direct
MVDR solve with an O(M^2)-per-snapshot recursion:

* SG: one projected stochastic-gradient step on the constrained cost.
* CCG: a conventional conjugate-gradient inner loop (N iterations per
  snapshot) that descends ``v^H (R - sigma1^2 a a^H) v - a^H v`` jointly in
  the weights proxy ``v`` and a local refinement of the steering vector.
* MCG: the single-iteration variant with conjugate directions carried across
  snapshots; its steering branch uses the convergence-band placement rule
  with a constant ``eta in [0, 0.5]`` (the band rule for the weight branch
  is kept as an analyzable reference, see ``mcg_alpha_v_bound``).

Degenerate denominators (a power estimate clamped at its floor, collapsed
direction/gradient alignment, or non-positive curvature) are treated as
convergence: the CCG inner loop exits early and the MCG branch update is
skipped for that snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .okspme import SteeringEstimator, inc_matrix

# Relative collapse thresholds for the CG scale factors and restarts.
ALPHA_COLLAPSE = 1e-7
DEN_COLLAPSE = 1e-14
BETA_RESTART = 1e-14
# Cap on one CG step, relative to the current iterate norm.  The subtracted
# quadratic is indefinite while the covariance estimate is rank deficient
# (first few snapshots); uncapped line searches can run away through it.
STEP_CAP = 10.0


def _capped(alpha, p, ref: float):
    """Scale ``alpha`` down so the step ``alpha p`` stays within the cap."""
    step = abs(alpha) * np.linalg.norm(p)
    limit = STEP_CAP * max(1.0, ref)
    if step > limit:
        return alpha * (limit / step)
    return alpha


def record_normalized_output(estimator: SteeringEstimator, w: np.ndarray,
                             x: np.ndarray) -> None:
    """Feed the cross-correlation with a unit-distortionless-gain output.

    The steering update's analysis presumes outputs from weights answering
    the current steering estimate with unit gain; weight engines whose
    normalization wobbles (or settles at -1) would otherwise give individual
    snapshots arbitrary weight inside the cross-correlation average.
    """
    gain = np.vdot(w, estimator.a_hat)
    y = np.vdot(w, x)
    if abs(gain) > 1e-8:
        y = y / gain
    estimator.record_output(x, y)


def sg_update(w: np.ndarray, mu: float, a_hat: np.ndarray, sigma1_sq: float,
              x: np.ndarray, y: complex) -> np.ndarray:
    """One stochastic-gradient weight step.

    ``w <- (I - mu sigma1^2 a a^H) w - mu (sigma1^2 a + y* (x - (a^H x) a / (a^H a)))``

    The data term only injects the component of ``x`` orthogonal to the
    steering estimate.  ``mu`` must satisfy ``0 <= mu < 1/sigma1^2`` so the
    rank-one multiplier stays positive definite.
    """
    if mu < 0 or mu * sigma1_sq >= 1.0:
        raise ParameterError(f"step size {mu} outside [0, 1/sigma1_sq)")
    gram = np.vdot(a_hat, a_hat).real
    x_perp = x - (np.vdot(a_hat, x) / gram) * a_hat
    return (w - mu * sigma1_sq * np.vdot(a_hat, w) * a_hat
            - mu * (sigma1_sq * a_hat + np.conj(y) * x_perp))


class SgBeamformer:
    """Steering estimator + the stochastic-gradient weight recursion.

    The step size adapts to the running power estimate,
    ``mu = mu_scale / mean(sigma1^2)``; smoothing (rather than the raw
    per-snapshot estimate) keeps a single floor-clamped power snapshot from
    exploding the data term.  A cap enforces ``mu < mu_cap / sigma1^2`` at
    every applied step.
    """

    name = "okspme-sg"

    def __init__(self, estimator: SteeringEstimator, mu_scale: float = 0.005,
                 mu_cap: float = 0.5, smooth_power: bool = True):
        if mu_scale <= 0:
            raise ParameterError("mu_scale must be > 0")
        self.estimator = estimator
        self.mu_scale = float(mu_scale)
        self.mu_cap = float(mu_cap)
        self.smooth_power = smooth_power
        self.w = np.ones(estimator.m, dtype=complex)

    @property
    def a_hat(self) -> np.ndarray:
        return self.estimator.a_hat

    @property
    def constraint_steering(self) -> np.ndarray:
        return self.estimator.a_hat

    def process(self, x: np.ndarray) -> np.ndarray:
        info = self.estimator.begin_snapshot(x)
        ref = self.estimator.sigma1_sq_mean if self.smooth_power else info.sigma1_sq
        # Stability requires mu sigma1^2 ||a||^2 < 1 (the rank-one multiplier's
        # eigenvalue), so the cap scales with the squared steering norm.
        gram = np.vdot(info.a_hat, info.a_hat).real
        mu = min(self.mu_scale / (ref * gram),
                 self.mu_cap / (info.sigma1_sq * gram))
        y_curr = np.vdot(self.w, x)
        self.w = sg_update(self.w, mu, info.a_hat, info.sigma1_sq, x, y_curr)
        record_normalized_output(self.estimator, self.w, x)
        return self.w


@dataclass
class CgIterate:
    """State of one conjugate-gradient working set."""

    v: np.ndarray
    a: np.ndarray
    g_a: np.ndarray
    g_v: np.ndarray
    p_a: np.ndarray
    p_v: np.ndarray


def ccg_inner(A: np.ndarray, a0: np.ndarray, v0: np.ndarray, sigma1_sq: float,
              n_inner: int) -> CgIterate:
    """Run the conventional-CG inner loop for one snapshot.

    ``A`` is the interference-plus-noise quadratic the weight proxy descends,
    i.e. the covariance with the estimated desired-signal contribution
    subtracted (positive definite after the same repair the direct solve
    uses).  Gradients are initialized as the true residuals ``g_v = a - A v``
    and ``g_a = sigma1^2 (v^H a) v + v``; each iteration line-searches both
    branches and rebuilds the directions with Fletcher-Reeves coefficients.
    Collapsed denominators or non-positive curvature end the loop early, and
    single steps are trust-capped against the rank-deficient startup phase.
    """
    if n_inner < 1:
        raise ParameterError("n_inner must be >= 1")
    a = np.array(a0, dtype=complex)
    v = np.array(v0, dtype=complex)
    g_a = sigma1_sq * np.vdot(v, a) * v + v
    g_v = a - A @ v
    it = CgIterate(v=v, a=a, g_a=g_a, g_v=g_v, p_a=g_a.copy(), p_v=g_v.copy())

    a_scale = np.linalg.norm(A)
    # Cap references are fixed for the whole inner loop so a runaway iterate
    # cannot ratchet its own trust region.
    ref_v = max(1.0, np.linalg.norm(v))
    ref_a = max(1.0, np.linalg.norm(a))
    for _ in range(n_inner):
        den_a = sigma1_sq * abs(np.vdot(it.v, it.p_a)) ** 2
        norm_v, norm_pa = np.linalg.norm(it.v), np.linalg.norm(it.p_a)
        if den_a <= ALPHA_COLLAPSE * (norm_v * norm_pa) ** 2:
            break
        alpha_a = _capped(-np.vdot(it.g_a, it.p_a) / den_a, it.p_a, ref_a)

        a_pv = A @ it.p_v
        den_v = np.vdot(it.p_v, a_pv).real
        pv_sq = np.vdot(it.p_v, it.p_v).real
        if den_v <= DEN_COLLAPSE * pv_sq * a_scale:
            break
        alpha_v = _capped(np.vdot(it.g_v, it.p_v) / den_v, it.p_v, ref_v)

        it.a = it.a + alpha_a * it.p_a
        it.v = it.v + alpha_v * it.p_v
        g_a_new = sigma1_sq * np.vdot(it.v, it.a) * it.v + it.v
        g_v_new = it.g_v - alpha_v * a_pv

        ga_sq = np.vdot(it.g_a, it.g_a).real
        gv_sq = np.vdot(it.g_v, it.g_v).real
        if ga_sq <= BETA_RESTART * np.vdot(g_a_new, g_a_new).real or \
           gv_sq <= BETA_RESTART * np.vdot(g_v_new, g_v_new).real:
            it.g_a, it.g_v = g_a_new, g_v_new
            break
        beta_a = np.vdot(g_a_new, g_a_new).real / ga_sq
        beta_v = np.vdot(g_v_new, g_v_new).real / gv_sq
        it.p_a = g_a_new + beta_a * it.p_a
        it.p_v = g_v_new + beta_v * it.p_v
        it.g_a, it.g_v = g_a_new, g_v_new

    return it


class CcgBeamformer:
    """Steering estimator + conventional-CG weight refinement per snapshot.

    The weight proxy ``v`` carries over between snapshots; the inner steering
    refinement is local to the snapshot and only shapes this snapshot's
    normalization ``w = v / (a^H v)``.
    """

    name = "okspme-ccg"

    def __init__(self, estimator: SteeringEstimator, n_inner: int = 5):
        self.estimator = estimator
        self.n_inner = int(n_inner)
        self.v = np.ones(estimator.m, dtype=complex)
        self.w = np.ones(estimator.m, dtype=complex)
        self.constraint_steering = estimator.a_hat

    @property
    def a_hat(self) -> np.ndarray:
        return self.estimator.a_hat

    def process(self, x: np.ndarray) -> np.ndarray:
        info = self.estimator.begin_snapshot(x)
        # The warm-started inner loop needs a slowly varying quadratic, so the
        # subtraction uses the smoothed power estimate (the instantaneous one
        # teleports the solve target from snapshot to snapshot).
        quad = inc_matrix(info.R, info.a_hat, self.estimator.sigma1_sq_mean)
        it = ccg_inner(quad, info.a_hat, self.v, info.sigma1_sq, self.n_inner)
        denom = np.vdot(it.a, it.v)
        if abs(denom) > 0:
            self.w = it.v / denom
            self.constraint_steering = it.a
        # Carry the weight proxy at its normalized scale: the emitted weights
        # are scale invariant in v, and an O(1) warm start keeps the inner
        # loop's trust caps meaningful from snapshot to snapshot.
        self.v = self.w.copy()
        record_normalized_output(self.estimator, self.w, x)
        return self.w


def mcg_alpha_a(p_a: np.ndarray, g_a_prev: np.ndarray, v: np.ndarray,
                a_hat: np.ndarray, x: np.ndarray, sigma1_sq: float,
                lam: float, eta_a: float) -> complex:
    """Band-placed steering step size (constant ``eta_a`` in [0, 0.5]).

    ``[lam (p^H v - p^H g_prev) - p^H v + p^H x x^H a + eta_a p^H g_prev]
    / [sigma1^2 |v^H p|^2]``; returns 0 on a collapsed denominator.
    """
    den = sigma1_sq * abs(np.vdot(v, p_a)) ** 2
    scale = (np.linalg.norm(v) * np.linalg.norm(p_a)) ** 2
    if den <= ALPHA_COLLAPSE * scale:
        return 0.0
    pa_v = np.vdot(p_a, v)
    pa_g = np.vdot(p_a, g_a_prev)
    num = (lam * (pa_v - pa_g) - pa_v
           + np.vdot(p_a, x) * np.vdot(x, a_hat) + eta_a * pa_g)
    return num / den


def mcg_alpha_v_bound(p_v: np.ndarray, g_v_prev: np.ndarray, a_hat: np.ndarray,
                      quad: np.ndarray, lam: float, eta_v: float) -> complex:
    """Band-placed weight-proxy step size over the quadratic ``quad``.

    ``[lam (p^H g_prev - p^H a) - eta_v p^H g_prev] / [p^H quad p]``.  This is
    the published placement rule inside the convergence band; it presumes the
    carried proxy already satisfies the steady-state statistics, so the
    per-snapshot weight engine uses an exact line search instead and this
    form is kept as the analyzable reference.
    """
    den = np.vdot(p_v, quad @ p_v).real
    if den == 0.0:
        return 0.0
    pv_g = np.vdot(p_v, g_v_prev)
    return (lam * (pv_g - np.vdot(p_v, a_hat)) - eta_v * pv_g) / den


class McgBeamformer:
    """Steering estimator + a one-iteration-per-snapshot CG weight update.

    Each snapshot takes a single conjugate-gradient step on the current
    interference-plus-noise quadratic, with the direction vector carried
    across snapshots (Polak-Ribiere update, restart on a collapsed
    denominator).  The steering branch applies the convergence-band step
    rule with constant ``eta_a`` on top of the projection update, trust
    capped to the same unit scale as the projection step.

    ``bound_trace`` records ``Re(p_v^H g_v)`` against its previous value for
    the convergence-band diagnostics.
    """

    name = "okspme-mcg"

    def __init__(self, estimator: SteeringEstimator, lam: float = 0.998,
                 eta_a: float = 0.1, eta_v: float = 0.1):
        if not 0.0 <= eta_a <= 0.5 or not 0.0 <= eta_v <= 0.5:
            raise ParameterError("eta constants must lie in [0, 0.5]")
        if not 0.0 < lam <= 1.0:
            raise ParameterError("forgetting factor must lie in (0, 1]")
        self.estimator = estimator
        self.lam = float(lam)
        self.eta_a = float(eta_a)
        self.eta_v = float(eta_v)
        m = estimator.m
        self.v = np.ones(m, dtype=complex)
        self.w = np.ones(m, dtype=complex)
        self.g_a = np.ones(m, dtype=complex)          # g_a(0) = v(0)
        self.p_a = np.ones(m, dtype=complex)
        self.g_v = estimator.a_hat.astype(complex)    # g_v(0) = a(1)
        self.p_v = estimator.a_hat.astype(complex)
        self.bound_trace: list[tuple[float, float]] = []
        self.constraint_steering = estimator.a_hat

    @property
    def a_hat(self) -> np.ndarray:
        return self.estimator.a_hat

    def process(self, x: np.ndarray) -> np.ndarray:
        info = self.estimator.begin_snapshot(x)
        a = info.a_hat
        s1, lam = info.sigma1_sq, self.lam
        quad = inc_matrix(info.R, a, self.estimator.sigma1_sq_mean)

        # Steering branch: band-placed step (capped to the unit scale of the
        # projection update, since this correction persists in the state).
        alpha_a = mcg_alpha_a(self.p_a, self.g_a, self.v, a, x, s1, lam,
                              self.eta_a)
        step = abs(alpha_a) * np.linalg.norm(self.p_a)
        if step > 1.0:
            alpha_a = alpha_a * (1.0 / step)

        # Weight branch: one line-search CG step on the current quadratic.
        g_entry = a - quad @ self.v
        a_pv = quad @ self.p_v
        den_v = np.vdot(self.p_v, a_pv).real
        scale_v = np.vdot(self.p_v, self.p_v).real * np.linalg.norm(quad)
        alpha_v = 0.0
        if den_v > DEN_COLLAPSE * scale_v:
            alpha_v = _capped(np.vdot(g_entry, self.p_v) / den_v, self.p_v,
                              max(1.0, np.linalg.norm(self.v)))

        a_new = a + alpha_a * self.p_a
        self.v = self.v + alpha_v * self.p_v

        g_a_new = ((1 - lam) * self.v + lam * self.g_a
                   + s1 * alpha_a * np.vdot(self.v, self.p_a) * self.v
                   - np.vdot(x, a_new) * x)
        g_v_new = g_entry - alpha_v * a_pv

        self.bound_trace.append((np.vdot(self.p_v, g_v_new).real,
                                 np.vdot(self.p_v, self.g_v).real))

        ga_sq = np.vdot(self.g_a, self.g_a).real
        gv_sq = np.vdot(self.g_v, self.g_v).real
        if ga_sq <= BETA_RESTART * np.vdot(g_a_new, g_a_new).real:
            self.p_a = g_a_new.copy()
        else:
            beta_a = np.vdot(g_a_new - self.g_a, g_a_new) / ga_sq
            self.p_a = g_a_new + beta_a * self.p_a
        if gv_sq <= BETA_RESTART * np.vdot(g_v_new, g_v_new).real:
            self.p_v = g_v_new.copy()
        else:
            beta_v = np.vdot(g_v_new - self.g_v, g_v_new) / gv_sq
            self.p_v = g_v_new + beta_v * self.p_v
        self.g_a, self.g_v = g_a_new, g_v_new

        self.estimator.a_hat = a_new
        denom = np.vdot(a_new, self.v)
        if abs(denom) > 0:
            self.w = self.v / denom
            self.constraint_steering = a_new
            self.v = self.w.copy()
        record_normalized_output(self.estimator, self.w, x)
        return self.w
