import math

import numpy as np
import pytest

from rabsim import rng
from rabsim.adaptive import (CcgBeamformer, McgBeamformer, SgBeamformer,
                             ccg_inner, mcg_alpha_a, mcg_alpha_v_bound,
                             sg_update)
from rabsim.analysis import FlopModel, flops
from rabsim.arrays import SourceConfig, generate_snapshots, make_steering
from rabsim.errors import ParameterError
from rabsim.okspme import (NoisePowerSource, default_estimator, inc_matrix,
                           mvdr_weights)


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
    sources = [SourceConfig(10.0, 1.0, is_desired=True)]
    batch = generate_snapshots(sources, a_true, 1.0, 10_000, rng.stream(3, 0, 0))
    est = default_estimator(a_true.copy(), 1, NoisePowerSource("oracle", 1.0, 1))
    bf = SgBeamformer(est)
    norms = []
    for i in range(10_000):
        w = bf.process(batch.observations[:, i])
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
    sources = [SourceConfig(10.0, 5.0, is_desired=True), SourceConfig(30.0, 5.0)]

    def run():
        batch = generate_snapshots(sources, a_true, 1.0, 40, rng.stream(8, 0, 0))
        est = default_estimator(make_steering(m, 12.0), 2,
                                NoisePowerSource("oracle", 1.0, 2),
                                mode="forgetting", lam=0.998)
        bf = CcgBeamformer(est)
        out = []
        for i in range(40):
            w = bf.process(batch.observations[:, i])
            assert abs(np.vdot(w, bf.constraint_steering) - 1.0) < 1e-10
            out.append(w)
        return np.array(out)

    assert np.array_equal(run(), run())


# --------------------------------------------------------------- MCG engine

def test_mcg_alpha_v_bound_hand_value():
    # 2-dim hand evaluation with lam = 1, eta = 0 and zero power: the
    # numerator reduces to the pure placement expression over p^H R p
    p_v = np.array([1.0, 1.0j], dtype=complex)
    g_prev = np.array([2.0, 0.0], dtype=complex)
    a = np.array([1.0, 0.0], dtype=complex)
    R = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    alpha = mcg_alpha_v_bound(p_v, g_prev, a, R, lam=1.0, eta_v=0.0)
    # by hand: p^H g_prev = 2, p^H a = 1, p^H R p = 2 + 1 = 3
    assert abs(alpha - (2.0 - 1.0) / 3.0) < 1e-14


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
    est = default_estimator(make_steering(4, 10.0), 1,
                            NoisePowerSource("oracle", 1.0, 1))
    with pytest.raises(ParameterError):
        McgBeamformer(est, eta_a=0.6)
    with pytest.raises(ParameterError):
        McgBeamformer(est, lam=0.0)


def test_mcg_constraint_and_bound_trace():
    m = 6
    a_true = make_steering(m, 10.0)
    sources = [SourceConfig(10.0, 5.0, is_desired=True), SourceConfig(30.0, 5.0)]
    batch = generate_snapshots(sources, a_true, 1.0, 50, rng.stream(10, 0, 0))
    est = default_estimator(make_steering(m, 11.0), 2,
                            NoisePowerSource("oracle", 1.0, 2),
                            mode="forgetting", lam=0.998)
    bf = McgBeamformer(est)
    for i in range(50):
        w = bf.process(batch.observations[:, i])
        assert abs(np.vdot(w, bf.constraint_steering) - 1.0) < 1e-10
    assert len(bf.bound_trace) == 50
    # the line-search step keeps the direction/gradient alignment nonnegative
    post = np.array([b[0] for b in bf.bound_trace[5:]])
    assert (post >= -1e-8).all()


def test_mcg_runs_on_sample_mean_tracker():
    m = 5
    a_true = make_steering(m, 10.0)
    sources = [SourceConfig(10.0, 2.0, is_desired=True)]
    batch = generate_snapshots(sources, a_true, 1.0, 30, rng.stream(11, 0, 0))
    est = default_estimator(a_true.copy(), 1, NoisePowerSource("oracle", 1.0, 1))
    bf = McgBeamformer(est, lam=0.998)
    for i in range(30):
        w = bf.process(batch.observations[:, i])
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
