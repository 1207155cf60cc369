"""Low-complexity weight engines sharing the steering estimator.

All three variants subclass :class:`rabsim.okspme.SteeringEstimator`, so
they run the same per-snapshot statistics / power / steering machinery, and
replace the direct MVDR solve with an O(M^2)-per-snapshot recursion:

* SG: one projected stochastic-gradient step on the constrained cost.
* CCG: a conventional conjugate-gradient inner loop (``n_inner`` iterations
  per snapshot) that descends ``v^H (R - sigma1^2 a a^H) v - a^H v`` jointly in
  the weights proxy ``v`` and a local refinement of the steering vector.
* MCG: the single-iteration variant with conjugate directions carried across
  snapshots; its steering branch uses the convergence-band placement rule
  with the constant ``ETA_A`` in [0, 0.5].

Degenerate denominators (a power estimate clamped at its floor, collapsed
direction/gradient alignment, or non-positive curvature) are treated as
convergence: the CCG inner loop exits early and the MCG branch update is
skipped for that snapshot.

Every CG step is trust capped by ``_capped`` to an absolute length: CCG's
steps and MCG's weight step to ``STEP_CAP * max(1, ||iterate||)``, MCG's
steering step to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import norm
from .okspme import SteeringEstimator, inc_matrix

# Relative collapse thresholds for the CG scale factors and restarts.
ALPHA_COLLAPSE = 1e-7
DEN_COLLAPSE = 1e-14
BETA_RESTART = 1e-14
# Cap on one CG step, relative to the iterate norm (or 1).  The subtracted
# quadratic is indefinite while the covariance estimate is rank deficient
# (first few snapshots); uncapped line searches can run away through it.
STEP_CAP = 10.0
# SG step-size cap, as a fraction of the stability limit 1 / (sigma1^2 ||a||^2).
MU_CAP = 0.5
# SG step size relative to the stability limit, taken at the smoothed power.
MU_SCALE = 0.005
# MCG's convergence-band constant, in [0, 0.5].
ETA_A = 0.1


def _capped(alpha, p_norm, limit: float):
    """Scale ``alpha`` down so the step ``alpha p`` (``||p|| = p_norm``) is no
    longer than ``limit``; the phase of ``alpha`` is kept."""
    step = abs(alpha) * p_norm
    if step > limit:
        return alpha * (limit / step)
    return alpha


def record_normalized_output(estimator: SteeringEstimator, x: np.ndarray) -> None:
    """Feed the cross-correlation with the output of the estimator's weights
    ``w``, scaled to unit distortionless gain.

    The steering update's analysis presumes outputs from weights answering
    the current steering estimate with unit gain; weight engines whose
    normalization wobbles (or settles at -1) would otherwise give individual
    snapshots arbitrary weight inside the cross-correlation average.
    """
    gain = np.vdot(estimator.w, estimator.a_hat)
    y = np.vdot(estimator.w, x)
    if abs(gain) > 1e-8:
        y = y / gain
    estimator.tracker.update_crosscorr(x, y)


def sg_update(w: np.ndarray, mu: float, a_hat: np.ndarray, sigma1_sq: float,
              x: np.ndarray) -> np.ndarray:
    """One stochastic-gradient weight step.

    ``w <- (I - mu sigma1^2 a a^H) w - mu (sigma1^2 a + y* (x - (a^H x) a / (a^H a)))``

    where ``y = w^H x`` is the output of the weights being stepped.  The data
    term only injects the component of ``x`` orthogonal to the steering
    estimate.  The caller keeps ``0 <= mu < 1/(sigma1^2 ||a||^2)`` so the
    rank-one multiplier stays positive definite.
    """
    y = np.vdot(w, x)
    gram = np.vdot(a_hat, a_hat).real
    x_perp = x - (np.vdot(a_hat, x) / gram) * a_hat
    return (w - mu * sigma1_sq * np.vdot(a_hat, w) * a_hat
            - mu * (sigma1_sq * a_hat + np.conj(y) * x_perp))


class SgBeamformer(SteeringEstimator):
    """Steering estimator + the stochastic-gradient weight recursion.

    The weights do not hold unit gain on the updated steering estimate
    ``a_hat``: on a fixed estimate the step draws ``w^H a_hat`` toward -1,
    and the moving estimate keeps it off that too.  ``record_normalized_output``
    divides the output by the gain before it enters the cross-correlation.

    The step size adapts to the running power estimate,
    ``mu = MU_SCALE / (mean(sigma1^2) ||a||^2)``; the smoothed estimate
    (rather than the raw per-snapshot one) keeps a single floor-clamped power
    snapshot from exploding the data term.  A cap enforces
    ``mu < MU_CAP / (sigma1^2 ||a||^2)`` at every applied step.
    """

    name = "okspme-sg"

    def process(self, x: np.ndarray) -> np.ndarray:
        _, s1 = self.begin_snapshot(x)
        a = self.a_hat
        # Stability requires mu sigma1^2 ||a||^2 < 1 (the rank-one multiplier's
        # eigenvalue), so the cap scales with the squared steering norm.
        gram = np.vdot(a, a).real
        mu = min(MU_SCALE / (self.sigma1_sq_mean * gram),
                 MU_CAP / (s1 * gram))
        self.w = sg_update(self.w, mu, a, s1, x)
        record_normalized_output(self, x)
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
    subtracted, as ``okspme.inc_matrix`` returns it: where the subtraction
    is indefinite, ``A`` carries that repair's diagonal loading ``gamma I``,
    often hundreds of noise powers.  By Sherman-Morrison the minimizer
    ``A^-1 a`` for the ``a`` the subtraction used points along
    ``(R + gamma I)^-1 a`` (``gamma`` 0 without a repair), a loaded
    covariance solve.  Gradients are initialized as the true residuals
    ``g_v = a - A v`` and ``g_a = sigma1^2 (v^H a) v + v``; each iteration
    line-searches both branches and rebuilds the directions with
    Fletcher-Reeves coefficients.  Collapsed denominators or non-positive
    curvature end the loop early, and single steps are trust-capped against
    the rank-deficient startup phase.  Each gradient's squared norm is formed
    once and carried into the next iteration's Fletcher-Reeves coefficient.
    """
    a = np.array(a0, dtype=complex)
    v = np.array(v0, dtype=complex)
    g_a = sigma1_sq * np.vdot(v, a) * v + v
    g_v = a - A @ v
    it = CgIterate(v=v, a=a, g_a=g_a, g_v=g_v, p_a=g_a.copy(), p_v=g_v.copy())

    a_scale = norm(A)
    # Step limits are fixed for the whole inner loop so a runaway iterate
    # cannot ratchet its own trust region.
    limit_v = STEP_CAP * max(1.0, norm(v))
    limit_a = STEP_CAP * max(1.0, norm(a))
    ga_sq = np.vdot(g_a, g_a).real
    gv_sq = np.vdot(g_v, g_v).real
    for _ in range(n_inner):
        den_a = sigma1_sq * abs(np.vdot(it.v, it.p_a)) ** 2
        norm_v, norm_pa = norm(it.v), norm(it.p_a)
        if den_a <= ALPHA_COLLAPSE * (norm_v * norm_pa) ** 2:
            break
        alpha_a = _capped(-np.vdot(it.g_a, it.p_a) / den_a, norm_pa, limit_a)

        a_pv = A @ it.p_v
        den_v = np.vdot(it.p_v, a_pv).real
        pv_sq = np.vdot(it.p_v, it.p_v).real
        if den_v <= DEN_COLLAPSE * pv_sq * a_scale:
            break
        alpha_v = _capped(np.vdot(it.g_v, it.p_v) / den_v, norm(it.p_v), limit_v)

        it.a = it.a + alpha_a * it.p_a
        it.v = it.v + alpha_v * it.p_v
        g_a_new = sigma1_sq * np.vdot(it.v, it.a) * it.v + it.v
        g_v_new = it.g_v - alpha_v * a_pv

        ga_new_sq = np.vdot(g_a_new, g_a_new).real
        gv_new_sq = np.vdot(g_v_new, g_v_new).real
        it.g_a, it.g_v = g_a_new, g_v_new
        if ga_sq <= BETA_RESTART * ga_new_sq or gv_sq <= BETA_RESTART * gv_new_sq:
            break
        it.p_a = g_a_new + (ga_new_sq / ga_sq) * it.p_a
        it.p_v = g_v_new + (gv_new_sq / gv_sq) * it.p_v
        ga_sq, gv_sq = ga_new_sq, gv_new_sq

    return it


class CcgBeamformer(SteeringEstimator):
    """Steering estimator + conventional-CG weight refinement per snapshot.

    The weights warm-start the next snapshot's inner loop as its weight proxy
    ``v``; the inner steering refinement is local to the snapshot and only
    shapes this snapshot's normalization ``w = v / (a^H v)``, so the weights
    answer with unit gain the refined vector ``a`` that ``ccg_inner``
    returns, not ``a_hat``.
    """

    name = "okspme-ccg"
    lam = 0.998
    n_inner = 5     # inner iterations per snapshot

    def process(self, x: np.ndarray) -> np.ndarray:
        R, s1 = self.begin_snapshot(x)
        a = self.a_hat
        # The warm-started inner loop needs a slowly varying quadratic, so the
        # subtraction uses the smoothed power estimate (the instantaneous one
        # teleports the solve target from snapshot to snapshot).
        quad, _ = inc_matrix(R, a, self.sigma1_sq_mean)
        # Warm-start the proxy at the normalized scale of the weights: the
        # emitted weights are scale invariant in v, and an O(1) start keeps
        # the inner loop's trust caps meaningful from snapshot to snapshot.
        it = ccg_inner(quad, a, self.w, s1, self.n_inner)
        denom = np.vdot(it.a, it.v)
        if abs(denom) > 0:
            self.w = it.v / denom
        record_normalized_output(self, x)
        return self.w


def mcg_alpha_a(p_a: np.ndarray, g_a_prev: np.ndarray, v: np.ndarray,
                a_hat: np.ndarray, x: np.ndarray, sigma1_sq: float,
                lam: float) -> complex:
    """Band-placed steering step size, with the constant ``ETA_A``.

    ``[lam (p^H v - p^H g_prev) - p^H v + p^H x x^H a + ETA_A p^H g_prev]
    / [sigma1^2 |v^H p|^2]``; returns 0 on a collapsed denominator.
    """
    den = sigma1_sq * abs(np.vdot(v, p_a)) ** 2
    scale = (norm(v) * norm(p_a)) ** 2
    if den <= ALPHA_COLLAPSE * scale:
        return 0.0
    pa_v = np.vdot(p_a, v)
    pa_g = np.vdot(p_a, g_a_prev)
    num = (lam * (pa_v - pa_g) - pa_v
           + np.vdot(p_a, x) * np.vdot(x, a_hat) + ETA_A * pa_g)
    return num / den


class McgBeamformer(SteeringEstimator):
    """Steering estimator + a one-iteration-per-snapshot CG weight update.

    Each snapshot takes a single conjugate-gradient step on the current
    interference-plus-noise quadratic, with the direction vector carried
    across snapshots (Polak-Ribiere update, restart on a collapsed
    denominator).  The steering branch applies the convergence-band step
    rule with constant ``ETA_A`` on top of the projection update, trust
    capped to the same unit scale as the projection step.  The step rule
    and the steering gradient recursion use the tracker's forgetting factor
    ``lam``.  The branch step moves the estimator's own steering estimate,
    which the weights then answer.  The weight step starts from the weights;
    a step whose normalization ``a^H v`` is exactly 0 is dropped.
    """

    name = "okspme-mcg"
    lam = 0.998

    def __init__(self, a_init: np.ndarray, num_sources: int):
        super().__init__(a_init, num_sources)
        m = self.m
        self.g_a = np.ones(m, dtype=complex)          # g_a(0) = w(0)
        self.p_a = np.ones(m, dtype=complex)
        self.g_v = self.a_hat.astype(complex)         # g_v(0) = a(1)
        self.p_v = self.a_hat.astype(complex)
        # Squared gradient norms, carried to the next snapshot's coefficients.
        self.ga_sq = np.vdot(self.g_a, self.g_a).real
        self.gv_sq = np.vdot(self.g_v, self.g_v).real

    def process(self, x: np.ndarray) -> np.ndarray:
        R, s1 = self.begin_snapshot(x)
        a, lam = self.a_hat, self.lam
        quad, _ = inc_matrix(R, a, self.sigma1_sq_mean)

        # Steering branch: band-placed step (capped to the unit scale of the
        # projection update, since this correction persists in the state).
        alpha_a = mcg_alpha_a(self.p_a, self.g_a, self.w, a, x, s1, lam)
        alpha_a = _capped(alpha_a, norm(self.p_a), 1.0)

        # Weight branch: one line-search CG step on the current quadratic.
        g_entry = a - quad @ self.w
        a_pv = quad @ self.p_v
        den_v = np.vdot(self.p_v, a_pv).real
        scale_v = np.vdot(self.p_v, self.p_v).real * norm(quad)
        alpha_v = 0.0
        if den_v > DEN_COLLAPSE * scale_v:
            alpha_v = _capped(np.vdot(g_entry, self.p_v) / den_v,
                              norm(self.p_v), STEP_CAP * max(1.0, norm(self.w)))

        a_new = a + alpha_a * self.p_a
        v = self.w + alpha_v * self.p_v

        g_a_new = ((1 - lam) * v + lam * self.g_a
                   + s1 * alpha_a * np.vdot(v, self.p_a) * v
                   - np.vdot(x, a_new) * x)
        g_v_new = g_entry - alpha_v * a_pv

        ga_new_sq = np.vdot(g_a_new, g_a_new).real
        gv_new_sq = np.vdot(g_v_new, g_v_new).real
        if self.ga_sq <= BETA_RESTART * ga_new_sq:
            self.p_a = g_a_new.copy()
        else:
            beta_a = np.vdot(g_a_new - self.g_a, g_a_new) / self.ga_sq
            self.p_a = g_a_new + beta_a * self.p_a
        if self.gv_sq <= BETA_RESTART * gv_new_sq:
            self.p_v = g_v_new.copy()
        else:
            beta_v = np.vdot(g_v_new - self.g_v, g_v_new) / self.gv_sq
            self.p_v = g_v_new + beta_v * self.p_v
        self.g_a, self.g_v = g_a_new, g_v_new
        self.ga_sq, self.gv_sq = ga_new_sq, gv_new_sq

        self.a_hat = a_new
        denom = np.vdot(a_new, v)
        if abs(denom) > 0:
            self.w = v / denom
        record_normalized_output(self, x)
        return self.w
