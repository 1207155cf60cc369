import math

import numpy as np
import pytest

from rabsim import rng
from rabsim.adaptive import (ALPHA_COLLAPSE, BETA_RESTART, DEN_COLLAPSE, ETA_A,
                             CcgBeamformer, CgIterate, McgBeamformer,
                             SgBeamformer, _capped, ccg_inner, mcg_alpha_a,
                             record_normalized_output, sg_update)
from rabsim.analysis import FlopModel, flops
from rabsim.arrays import generate_snapshots, make_steering
from rabsim.errors import ParameterError
from rabsim.kernels import norm
from rabsim.okspme import SteeringEstimator, inc_matrix, mvdr_weights


def _rand(g, m):
    return g.standard_normal(m) + 1j * g.standard_normal(m)


# ---------------------------------------------------------------- SG engine

def test_sg_zero_step_is_identity():
    g = np.random.default_rng(0)
    w = _rand(g, 4)
    out = sg_update(w, 0.0, make_steering(4, 10.0), 2.0, _rand(g, 4), 1.0 + 0j)
    assert np.array_equal(out, w)


def test_sg_collinear_snapshot_drops_data_term():
    # x proportional to the steering estimate: the projected data term
    # vanishes and the update reduces to the deterministic part
    g = np.random.default_rng(1)
    a = make_steering(4, 20.0)
    w = _rand(g, 4)
    mu, s1 = 0.01, 3.0
    y = np.vdot(w, a)
    out = sg_update(w, mu, a, s1, a.copy(), y)
    expect = w - mu * s1 * np.vdot(a, w) * a - mu * s1 * a
    assert np.abs(out - expect).max() < 1e-12


def test_sg_matches_independent_evaluation():
    # independent oracle: assemble the published update from the explicit
    # rank-one matrix form instead of the streamed arithmetic
    g = np.random.default_rng(2)
    m = 4
    a = _rand(g, m)
    w = _rand(g, m)
    x = _rand(g, m)
    y = np.vdot(w, x)
    mu, s1 = 0.003, 5.0
    out = sg_update(w, mu, a, s1, x, y)
    gram = np.vdot(a, a).real
    eye_term = (np.eye(m) - mu * s1 * np.outer(a, a.conj())) @ w
    oracle = eye_term - mu * (s1 * a + np.conj(y) * (x - (np.vdot(a, x) * a) / gram))
    rel = np.abs(out - oracle).max() / np.abs(oracle).max()
    assert rel < 1e-12


def test_sg_rejects_step_outside_bound():
    a = make_steering(3, 0.0)
    with pytest.raises(ParameterError):
        sg_update(np.ones(3, dtype=complex), 0.6, a, 2.0, np.ones(3, dtype=complex), 0j)
    with pytest.raises(ParameterError):
        sg_update(np.ones(3, dtype=complex), -0.1, a, 2.0, np.ones(3, dtype=complex), 0j)


def test_sg_stability_long_stationary_run():
    m = 6
    a_true = make_steering(m, 10.0)
    obs = generate_snapshots(np.repeat(a_true[:, None], 10_000, axis=1), 1.0,
                             [], 0.0, 1.0, rng.stream(3, 0, 0))
    est = SteeringEstimator(a_true.copy(), 1, 1.0)
    bf = SgBeamformer(est)
    norms = []
    for i in range(10_000):
        w = bf.process(obs[:, i])
        norms.append(np.linalg.norm(w))
    norms = np.array(norms)
    assert np.isfinite(norms).all()
    assert norms.max() < 100.0 * np.median(norms)


# --------------------------------------------------------------- CCG engine

def test_ccg_collapsed_gradients_leave_state():
    # zero desired power collapses the steering-branch curvature: the inner
    # loop exits immediately and only the normalization is recomputed
    g = np.random.default_rng(4)
    m = 4
    A = np.eye(m, dtype=complex)
    a = make_steering(m, 10.0)
    v0 = _rand(g, m)
    it = ccg_inner(A, a, v0, 0.0, 5)
    assert np.array_equal(it.v, v0)
    assert np.array_equal(it.a, a)


def test_ccg_converges_to_direct_solve_on_exact_input():
    # stationary exact covariance: the iterated weight proxy reproduces the
    # direct interference-plus-noise solve
    m = 5
    a = make_steering(m, 10.0)
    sigma1, sigma_n = 2.0, 0.5
    R = sigma1 * np.outer(a, a.conj()) + sigma_n * np.eye(m)
    quad = inc_matrix(R, a, sigma1)
    w_direct = mvdr_weights(quad, a)
    v = np.ones(m, dtype=complex)
    for _ in range(30):
        it = ccg_inner(quad, a, v, sigma1, 5)
        v = it.v / np.vdot(it.a, it.v)
    w = v / np.vdot(a, v)
    assert np.abs(w - w_direct).max() / np.abs(w_direct).max() < 1e-3


def test_ccg_alpha_v_matches_independent_recomputation():
    g = np.random.default_rng(5)
    m = 3
    b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    A = b @ b.conj().T + np.eye(m)
    a = _rand(g, m)
    v0 = _rand(g, m)
    s1 = 0.8
    it = ccg_inner(A, a, v0, s1, 1)
    # first-iteration scale factor, recomputed from scratch; the one step
    # taken is v - v0 = alpha_v p_v0
    g_v0 = a - A @ v0
    p_v0 = g_v0
    expect = np.vdot(g_v0, p_v0) / np.vdot(p_v0, A @ p_v0).real
    alpha_v = np.vdot(p_v0, it.v - v0) / np.vdot(p_v0, p_v0)
    assert abs(alpha_v - expect) < 1e-12 * abs(expect)
    assert np.abs(it.v - v0 - alpha_v * p_v0).max() < 1e-12 * np.abs(it.v - v0).max()


def test_ccg_direction_conjugacy():
    # the steering branch never touches the fixed quadratic, so successive
    # weight-branch directions stay conjugate with respect to it
    g = np.random.default_rng(6)
    m = 6
    b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    A = b @ b.conj().T + np.eye(m)
    a = _rand(g, m)
    v0 = _rand(g, m)
    # the run with n inner iterations ends on the direction the next one uses
    hist = [a - A @ v0] + [ccg_inner(A, a, v0, 0.05, n).p_v for n in (1, 2, 3)]
    for p_prev, p_next in zip(hist, hist[1:]):
        assert not np.array_equal(p_prev, p_next)
        num = abs(np.vdot(p_next, A @ p_prev))
        den = np.linalg.norm(p_next) * np.linalg.norm(A @ p_prev)
        assert num / den < 1e-6


def test_ccg_gradient_matches_finite_differences():
    # Criterion-5 style check at unit-test scale: the steering gradient
    # formula and the weight-branch residual recursion both match central
    # finite differences of the joint cost.
    g = np.random.default_rng(7)
    m = 4
    b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    R = b @ b.conj().T + np.eye(m)
    a = _rand(g, m)
    s1 = 0.05  # small power keeps R - s1 a a^H positive definite (no repair)
    quad = inc_matrix(R, a, s1)
    assert np.abs(quad - (R - s1 * np.outer(a, a.conj()))).max() < 1e-12
    v0 = _rand(g, m)
    it = ccg_inner(quad, a, v0, s1, 2)

    def cost_v(v):
        return (np.vdot(v, quad @ v).real - 2 * np.vdot(a, v).real)

    # conjugate-Wirtinger FD gradient of the (real) cost in v at the iterate
    h = 1e-6
    fd = np.zeros(m, dtype=complex)
    for k in range(m):
        e = np.zeros(m, dtype=complex)
        e[k] = h
        d_re = (cost_v(it.v + e) - cost_v(it.v - e)) / (2 * h)
        d_im = (cost_v(it.v + 1j * e) - cost_v(it.v - 1j * e)) / (2 * h)
        fd[k] = 0.5 * (d_re + 1j * d_im)
    # g_v tracks the negative gradient (residual) of the quadratic cost
    rel = np.abs(it.g_v - (-fd)).max() / max(np.abs(fd).max(), 1e-12)
    assert rel < 1e-6


def test_ccg_beamformer_constraint_and_determinism():
    m = 6
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 30.0)]

    def run():
        obs = generate_snapshots(np.repeat(a_true[:, None], 40, axis=1), 5.0,
                                 interferers, 5.0, 1.0, rng.stream(8, 0, 0))
        est = SteeringEstimator(make_steering(m, 12.0), 2, 1.0, lam=0.998)
        bf = CcgBeamformer(est)
        out = []
        for i in range(40):
            w = bf.process(obs[:, i])
            assert abs(np.vdot(w, bf.constraint_steering) - 1.0) < 1e-10
            out.append(w)
        return np.array(out)

    assert np.array_equal(run(), run())


# --------------------------------------------------------------- MCG engine

def test_mcg_alpha_a_matches_independent_recomputation():
    g = np.random.default_rng(9)
    m = 4
    p_a, g_prev, v, a, x = (_rand(g, m) for _ in range(5))
    s1, lam, eta = 1.7, 0.998, 0.1
    alpha = mcg_alpha_a(p_a, g_prev, v, a, x, s1, lam, eta)
    num = (lam * (np.vdot(p_a, v) - np.vdot(p_a, g_prev)) - np.vdot(p_a, v)
           + np.vdot(p_a, x) * np.vdot(x, a) + eta * np.vdot(p_a, g_prev))
    den = s1 * abs(np.vdot(v, p_a)) ** 2
    assert abs(alpha - num / den) < 1e-12 * abs(num / den)


def test_mcg_eta_validation():
    # MCG's step rule reads the tracker's forgetting factor, checked there
    with pytest.raises(ParameterError):
        SteeringEstimator(make_steering(4, 10.0), 1, 1.0, lam=0.0)


def _bound_pair(bf, x):
    """Process one snapshot; return the convergence-band pair
    ``(Re p_v^H g_v_new, Re p_v^H g_v)`` of the direction it stepped along."""
    p_v, g_v = bf.p_v, bf.g_v
    bf.process(x)
    return np.vdot(p_v, bf.g_v).real, np.vdot(p_v, g_v).real


def test_mcg_constraint_and_bound_trace():
    m = 6
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 30.0)]
    obs = generate_snapshots(np.repeat(a_true[:, None], 50, axis=1), 5.0,
                             interferers, 5.0, 1.0, rng.stream(10, 0, 0))
    est = SteeringEstimator(make_steering(m, 11.0), 2, 1.0, lam=0.998)
    bf = McgBeamformer(est)
    pairs = []
    for i in range(50):
        pairs.append(_bound_pair(bf, obs[:, i]))
        assert abs(np.vdot(bf.w, bf.constraint_steering) - 1.0) < 1e-10
    # the line-search step keeps the direction/gradient alignment nonnegative
    post = np.array([b[0] for b in pairs[5:]])
    assert (post >= -1e-8).all()


def test_mcg_runs_on_sample_mean_tracker():
    m = 5
    a_true = make_steering(m, 10.0)
    obs = generate_snapshots(np.repeat(a_true[:, None], 30, axis=1), 2.0,
                             [], 0.0, 1.0, rng.stream(11, 0, 0))
    est = SteeringEstimator(a_true.copy(), 1, 1.0, lam=1.0)
    bf = McgBeamformer(est)
    for i in range(30):
        w = bf.process(obs[:, i])
    assert np.isfinite(w).all()


# ------------------------------------------------------ shared invariants

def test_per_snapshot_cost_scales_quadratically():
    # the flop models confirm the adaptive engines avoid the cubic solve
    for name in ("okspme-sg", "okspme-mcg"):
        f1 = flops(FlopModel(name, 100, order=4))
        f2 = flops(FlopModel(name, 200, order=4))
        assert f2 / f1 < 5.0  # quadratic growth, not cubic
    fc1 = flops(FlopModel("okspme-ccg", 100, order=4, inner=5))
    fc2 = flops(FlopModel("okspme-ccg", 200, order=4, inner=5))
    assert fc2 / fc1 < 5.0
    fd1 = flops(FlopModel("okspme", 100, order=4))
    fd2 = flops(FlopModel("okspme", 200, order=4))
    assert fd2 / fd1 > 6.0  # the direct method is cubic


# ------------------------------------------- bit oracles for the CG engines
# The loops as they ran before each gradient's squared norm was carried
# forward and the trust cap took a norm: every squared norm is recomputed
# where it is read.  ``_ccg_oracle`` also returns why its loop ended.

def _capped_vector(alpha, p, ref):
    return _capped(alpha, norm(p), ref)


def _ccg_oracle(A, a0, v0, sigma1_sq, n_inner):
    a = np.array(a0, dtype=complex)
    v = np.array(v0, dtype=complex)
    g_a = sigma1_sq * np.vdot(v, a) * v + v
    g_v = a - A @ v
    it = CgIterate(v=v, a=a, g_a=g_a, g_v=g_v, p_a=g_a.copy(), p_v=g_v.copy())
    a_scale = norm(A)
    ref_v = max(1.0, norm(v))
    ref_a = max(1.0, norm(a))
    for _ in range(n_inner):
        den_a = sigma1_sq * abs(np.vdot(it.v, it.p_a)) ** 2
        norm_v, norm_pa = norm(it.v), norm(it.p_a)
        if den_a <= ALPHA_COLLAPSE * (norm_v * norm_pa) ** 2:
            return it, "alpha_collapse"
        alpha_a = _capped_vector(-np.vdot(it.g_a, it.p_a) / den_a, it.p_a, ref_a)
        a_pv = A @ it.p_v
        den_v = np.vdot(it.p_v, a_pv).real
        pv_sq = np.vdot(it.p_v, it.p_v).real
        if den_v <= DEN_COLLAPSE * pv_sq * a_scale:
            return it, "den_collapse"
        alpha_v = _capped_vector(np.vdot(it.g_v, it.p_v) / den_v, it.p_v, ref_v)
        it.a = it.a + alpha_a * it.p_a
        it.v = it.v + alpha_v * it.p_v
        g_a_new = sigma1_sq * np.vdot(it.v, it.a) * it.v + it.v
        g_v_new = it.g_v - alpha_v * a_pv
        ga_sq = np.vdot(it.g_a, it.g_a).real
        gv_sq = np.vdot(it.g_v, it.g_v).real
        if ga_sq <= BETA_RESTART * np.vdot(g_a_new, g_a_new).real or \
           gv_sq <= BETA_RESTART * np.vdot(g_v_new, g_v_new).real:
            it.g_a, it.g_v = g_a_new, g_v_new
            return it, "restart"
        beta_a = np.vdot(g_a_new, g_a_new).real / ga_sq
        beta_v = np.vdot(g_v_new, g_v_new).real / gv_sq
        it.p_a = g_a_new + beta_a * it.p_a
        it.p_v = g_v_new + beta_v * it.p_v
        it.g_a, it.g_v = g_a_new, g_v_new
    return it, "n_inner"


class _McgOracle(McgBeamformer):
    def process(self, x):
        R, s1 = self.estimator.begin_snapshot(x)
        a, lam = self.estimator.a_hat, self.estimator.tracker.lam
        quad = inc_matrix(R, a, self.estimator.sigma1_sq_mean)
        alpha_a = mcg_alpha_a(self.p_a, self.g_a, self.v, a, x, s1, lam, ETA_A)
        step = abs(alpha_a) * norm(self.p_a)
        if step > 1.0:
            alpha_a = alpha_a * (1.0 / step)
        g_entry = a - quad @ self.v
        a_pv = quad @ self.p_v
        den_v = np.vdot(self.p_v, a_pv).real
        scale_v = np.vdot(self.p_v, self.p_v).real * norm(quad)
        alpha_v = 0.0
        if den_v > DEN_COLLAPSE * scale_v:
            alpha_v = _capped_vector(np.vdot(g_entry, self.p_v) / den_v, self.p_v,
                                     max(1.0, norm(self.v)))
        a_new = a + alpha_a * self.p_a
        self.v = self.v + alpha_v * self.p_v
        g_a_new = ((1 - lam) * self.v + lam * self.g_a
                   + s1 * alpha_a * np.vdot(self.v, self.p_a) * self.v
                   - np.vdot(x, a_new) * x)
        g_v_new = g_entry - alpha_v * a_pv
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


def _same_iterate(x, y):
    return all(np.array_equal(getattr(x, f), getattr(y, f))
               for f in ("v", "a", "g_a", "g_v", "p_a", "p_v"))


def test_ccg_inner_bits_match_oracle():
    g = np.random.default_rng(21)
    reasons = set()
    for trial in range(40):
        m = int(g.integers(2, 13))
        b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
        A = b @ b.conj().T + 0.1 * np.eye(m)
        a = _rand(g, m)
        s1 = float(g.uniform(0.01, 3.0))
        v0 = _rand(g, m)
        if trial % 4 == 0:
            # 1 + s1 v^H a = -1e-12: the first steering gradient nearly
            # vanishes, so the next one dwarfs it and the loop restarts
            v0 = -(1.0 - 1e-12) * a / (s1 * np.vdot(a, a).real)
        for n_inner in range(1, 7):
            it = ccg_inner(A, a, v0, s1, n_inner)
            oracle, reason = _ccg_oracle(A, a, v0, s1, n_inner)
            assert _same_iterate(it, oracle), (trial, n_inner, reason)
            reasons.add(reason)
    assert {"restart", "n_inner"} <= reasons, reasons


def test_mcg_snapshots_bits_match_oracle():
    m = 8
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 30.0), make_steering(m, -40.0)]
    obs = generate_snapshots(np.repeat(a_true[:, None], 50, axis=1), 5.0,
                             interferers, 5.0, 1.0, rng.stream(9, 0, 0))
    engines = []
    for cls in (McgBeamformer, _McgOracle):
        est = SteeringEstimator(make_steering(m, 13.0), 3, 1.0, lam=0.998)
        engines.append(cls(est))
    new, old = engines
    for i in range(50):
        x = obs[:, i]
        assert _bound_pair(new, x) == _bound_pair(old, x), i
        assert np.array_equal(new.w, old.w), i
        for field in ("v", "g_a", "g_v", "p_a", "p_v", "a_hat"):
            assert np.array_equal(getattr(new, field), getattr(old, field)), (i, field)
