import math

import numpy as np
import pytest

from rabsim import rng
from rabsim.analysis import output_sinr
from rabsim.arrays import generate_snapshots, make_steering
from rabsim.errors import NumericError, ParameterError
from rabsim.okspme import (OkspmeBeamformer, SteeringEstimator, build_rhs,
                           estimate_power, inc_matrix, mvdr_weights, residue,
                           update_steering)


def test_power_noiseless_exact_model():
    a = make_steering(4, 10.0)
    s = 2.0
    assert abs(estimate_power(a, a * s, 0.0) - 4.0) < 1e-12


def test_power_hand_value_clamps_to_floor():
    a = np.array([1.0, 1.0], dtype=complex)
    x = np.array([1.0, 0.0], dtype=complex)
    # (1 - 2*0.5)/4 = 0 -> clamped
    assert estimate_power(a, x, 0.5) == 1e-8


def test_power_zero_snapshot_clamps():
    a = make_steering(5, 0.0)
    assert estimate_power(a, np.zeros(5, dtype=complex), 1.0) == 1e-8


def test_power_rejects_zero_steering():
    with pytest.raises(ParameterError):
        estimate_power(np.zeros(3, dtype=complex), np.ones(3, dtype=complex), 1.0)


def test_rhs_zero_power_is_noise_scaled():
    a = make_steering(3, 20.0)
    assert np.allclose(build_rhs(a, 0.0, 0.7, 0.0), 0.7 * a)


def test_rhs_hand_value():
    a = make_steering(4, 0.0)  # gram 4
    assert np.allclose(build_rhs(a, 1.0, 0.1, 0.1), 4.2 * a)


def test_rhs_zero_steering():
    assert np.allclose(build_rhs(np.zeros(3, dtype=complex), 1.0, 1.0, 1.0), 0.0)


def test_residue_converged_signal():
    a = make_steering(3, 0.0)
    R = np.eye(3, dtype=complex)
    b = R @ a
    _, t1, converged = residue(R, a, b)
    assert converged and t1 is None


def test_residue_hand_value():
    e1 = np.array([1.0, 0.0], dtype=complex)
    r, t1, converged = residue(np.eye(2, dtype=complex), 2 * e1, 3 * e1)
    assert not converged
    assert np.allclose(r, e1)
    assert np.allclose(t1, e1)


def test_residue_direction_is_unit():
    g = np.random.default_rng(0)
    R = np.eye(4) + 0j
    a = g.standard_normal(4) + 1j * g.standard_normal(4)
    b = g.standard_normal(4) + 1j * g.standard_normal(4)
    _, t1, converged = residue(R, a, b)
    assert not converged
    assert abs(np.linalg.norm(t1) - 1.0) < 1e-12


def test_update_skips_on_null_projection():
    a = make_steering(4, 10.0)
    P = np.zeros((4, 4), dtype=complex)
    d = np.ones(4, dtype=complex)
    assert update_steering(a, P, d, math.sqrt(4)) is a


def test_update_hand_value():
    # a = sqrt(2) e1 (M = 2), P = e2 e2^H, d = 5 e2:
    # pre-norm [sqrt(2), 1], rescaled to norm sqrt(2)
    a = np.array([math.sqrt(2.0), 0.0], dtype=complex)
    P = np.diag([0.0, 1.0]).astype(complex)
    d = np.array([0.0, 5.0], dtype=complex)
    out = update_steering(a, P, d, math.sqrt(2))
    expect = np.array([math.sqrt(2.0), 1.0]) * (math.sqrt(2.0) / math.sqrt(3.0))
    assert np.allclose(out, expect, atol=1e-12)


def test_update_collinear_preserves_direction():
    a = make_steering(5, 10.0)
    P = np.eye(5, dtype=complex)
    out = update_steering(a, P, 3.0 * a, math.sqrt(5))
    cos = abs(np.vdot(out, a)) / (np.linalg.norm(out) * np.linalg.norm(a))
    assert abs(cos - 1.0) < 1e-12
    assert abs(np.linalg.norm(out) - math.sqrt(5)) < 1e-12


def test_inc_zero_power_returns_covariance():
    g = np.random.default_rng(1)
    b = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    R = b @ b.conj().T + np.eye(3)
    assert np.allclose(inc_matrix(R, make_steering(3, 0.0), 0.0), R)


def test_inc_hand_value():
    R = 2.0 * np.eye(2, dtype=complex)
    a = np.array([1.0, 1.0], dtype=complex)
    out = inc_matrix(R, a, 0.5)
    assert np.allclose(out, [[1.5, -0.5], [-0.5, 1.5]])


def test_inc_exact_cancellation():
    a = make_steering(4, 10.0)
    R = 2.0 * np.outer(a, a.conj()) + 0.3 * np.eye(4)
    out = inc_matrix(R, a, 2.0)
    assert np.allclose(out, 0.3 * np.eye(4), atol=1e-12)


def test_inc_repair_restores_positive_definiteness():
    a = make_steering(4, 10.0)
    R = 1.0 * np.outer(a, a.conj()) + 0.3 * np.eye(4)
    out = inc_matrix(R, a, 5.0)  # heavy over-subtraction
    eigs = np.linalg.eigvalsh(out)
    assert eigs[0] > 0


def test_mvdr_identity_covariance():
    a = make_steering(3, 15.0)
    w = mvdr_weights(np.eye(3, dtype=complex), a)
    assert np.allclose(w, a / 3.0)
    assert abs(np.vdot(w, a) - 1.0) < 1e-12


def test_mvdr_hand_value():
    w = mvdr_weights(np.diag([1.0, 2.0]).astype(complex),
                     np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0])


def test_mvdr_scale_invariance():
    g = np.random.default_rng(2)
    b = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    R = b @ b.conj().T + np.eye(4)
    a = make_steering(4, 25.0)
    assert np.allclose(mvdr_weights(R, a), mvdr_weights(7.5 * R, a))


def test_mvdr_rejects_indefinite():
    with pytest.raises(NumericError):
        mvdr_weights(np.diag([1.0, -1.0]).astype(complex),
                     np.array([1.0, 1.0], dtype=complex))


def _beamformer(m=4, num_sources=1, noise=0.0, a_init=None):
    a_init = make_steering(m, 10.0) if a_init is None else a_init
    est = SteeringEstimator(a_init, num_sources, noise)
    return OkspmeBeamformer(est)


def test_snapshot_ideal_conditions():
    # zero mismatch, noise free, single source: constraint met and the
    # steering estimate never leaves the true direction
    m = 4
    a_true = make_steering(m, 10.0)
    obs = generate_snapshots(np.repeat(a_true[:, None], 10, axis=1), 1.0,
                             [], 0.0, 0.0, rng.stream(1, 0, 0))
    bf = _beamformer(m=m, noise=0.0)
    for i in range(10):
        w = bf.process(obs[:, i])
    assert abs(np.vdot(w, a_true) - 1.0) < 1e-6
    # interference-free, noise-free scenario attains unbounded SINR
    assert output_sinr(w[None], 1.0, a_true[None],
                       np.zeros((m, m), dtype=complex))[0] == math.inf


def test_first_snapshot_well_posed_with_loading():
    m = 6
    a_true = make_steering(m, 10.0)
    obs = generate_snapshots(np.repeat(a_true[:, None], 1, axis=1), 1.0,
                             [], 0.0, 1.0, rng.stream(2, 0, 0))
    bf = _beamformer(m=m, noise=1.0)
    w = bf.process(obs[:, 0])
    assert np.isfinite(w).all()


def test_steering_norm_invariant_every_snapshot():
    m = 5
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 40.0)]
    obs = generate_snapshots(np.repeat(a_true[:, None], 40, axis=1), 2.0,
                             interferers, 2.0, 1.0, rng.stream(3, 0, 0))
    bf = _beamformer(m=m, num_sources=2, noise=1.0)
    for i in range(40):
        bf.process(obs[:, i])
        assert abs(np.linalg.norm(bf.a_hat) - math.sqrt(m)) < 1e-8


def test_constraint_satisfaction_during_run():
    m = 6
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 30.0)]
    obs = generate_snapshots(np.repeat(a_true[:, None], 60, axis=1), 5.0,
                             interferers, 5.0, 1.0, rng.stream(5, 0, 0))
    bf = _beamformer(m=m, num_sources=2, noise=1.0,
                     a_init=make_steering(m, 12.0))
    for i in range(60):
        w = bf.process(obs[:, i])
        assert abs(np.vdot(w, bf.a_hat) - 1.0) < 1e-10


def test_weights_collinear_with_smi_on_exact_input():
    # with exact desired statistics, the covariance acting on the emitted
    # weights reproduces the steering direction (up to a positive scalar)
    m = 6
    a = make_steering(m, 10.0)
    sigma1 = 2.0
    r_in = 0.5 * np.eye(m, dtype=complex)
    R = sigma1 * np.outer(a, a.conj()) + r_in
    w = mvdr_weights(inc_matrix(R, a, sigma1), a)
    z = R @ w
    cos = abs(np.vdot(z, a)) / (np.linalg.norm(z) * np.linalg.norm(a))
    assert abs(cos - 1.0) < 1e-12
    # proportionality constant matches 1/(a^H R^-1 a)
    scale = np.vdot(a, np.linalg.solve(R, a)).real
    assert np.allclose(z, a / scale, atol=1e-10)


def test_run_is_deterministic():
    m = 5
    a_true = make_steering(m, 10.0)
    interferers = [make_steering(m, 30.0)]

    def run():
        obs = generate_snapshots(np.repeat(a_true[:, None], 30, axis=1), 2.0,
                                 interferers, 2.0, 1.0, rng.stream(6, 1, 0))
        bf = _beamformer(m=m, num_sources=2, noise=1.0)
        return np.array([bf.process(obs[:, i]) for i in range(30)])

    assert np.array_equal(run(), run())


def test_trending_upward_under_mismatch():
    # single seeded mismatch trial: the SINR trace trends upward
    from rabsim.config import config_from_dict
    from rabsim.harness import run_trial

    cfg = config_from_dict({
        "sensors": 10, "desired_doa_deg": 10.0,
        "interferer_doas_deg": [30.0, 50.0], "snr_db": 10.0,
        "snapshots": 300, "trials": 1, "master_seed": 7,
        "scattering": {"kind": "coherent"}, "algorithms": ["okspme"],
    })
    trace = run_trial(cfg, 0).sinr_db["okspme"]
    slope = np.polyfit(np.arange(300), trace, 1)[0]
    assert slope > 0
    assert np.mean(trace[-50:]) > np.mean(trace[:50])
