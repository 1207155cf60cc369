import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rabsim
from rabsim.analysis import (FlopModel, epsilon_moments, flops, mse_bounds,
                             optimal_weights, output_sinr, smi_weights, steering_mse)
from rabsim.arrays import make_steering
from rabsim.errors import NumericError, ParameterError
from rabsim.kernels import cholesky


def _pd(g, m, floor=0.5):
    b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    return b @ b.conj().T + floor * np.eye(m)


# ------------------------------------------------------------- beamformers

def test_smi_identity():
    a = make_steering(4, 10.0)
    assert np.allclose(smi_weights(np.eye(4, dtype=complex), a), a / 4.0)


def test_smi_hand_value():
    w = smi_weights(np.diag([1.0, 2.0]).astype(complex),
                    np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_smi_unit_response(seed):
    g = np.random.default_rng(seed)
    a = make_steering(5, 17.0)
    w = smi_weights(_pd(g, 5), a)
    assert abs(np.vdot(w, a) - 1.0) < 1e-12


def test_smi_singular_raises():
    with pytest.raises(NumericError):
        smi_weights(np.zeros((3, 3), dtype=complex), make_steering(3, 0.0))


def test_smi_indefinite_raises():
    g = np.random.default_rng(6)
    R = _pd(g, 5)
    R = R - 0.5 * np.trace(R).real / 5 * np.eye(5)     # Hermitian, indefinite
    assert np.linalg.eigvalsh(R)[0] < 0 < np.linalg.eigvalsh(R)[-1]
    with pytest.raises(NumericError):
        smi_weights(R, make_steering(5, 0.0))
    # loading too small to make it positive definite
    with pytest.raises(NumericError):
        smi_weights(R - 1e3 * np.eye(5) + 1.0 * np.eye(5), make_steering(5, 0.0))


@pytest.mark.parametrize("m", [2, 12, 40])
def test_smi_is_the_cholesky_mvdr_of_scipy(m):
    # same bits as scipy's cho_factor/cho_solve run in this process, and
    # within 1e-12 of its general Hermitian solve
    g = np.random.default_rng(50 + m)
    for _ in range(10):
        R = _pd(g, m)
        a = make_steering(m, g.uniform(-60.0, 60.0))
        z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(R, lower=True), a)
        w = smi_weights(R, a)
        assert w.tobytes() == (z / np.vdot(a, z)).tobytes()
        z_her = scipy.linalg.solve(R, a, assume_a="her")
        w_her = z_her / np.vdot(a, z_her)
        assert np.linalg.norm(w - w_her) <= 1e-12 * np.linalg.norm(w_her)


# ------------------------------------------------------------ SINR metrics

def _optimum_sinr(sigma1_sq, a, r_in):
    """``output_sinr`` of the clairvoyant weights, as the trial loop scores
    the optimum."""
    return output_sinr(optimal_weights(a, cholesky(r_in))[None], sigma1_sq, a[None],
                       r_in)[0]


def test_optimal_sinr_noise_only():
    a = make_steering(10, 10.0)
    # 10 log10(M sigma1^2 / sigma_n^2): unit powers give 10 dB
    assert abs(_optimum_sinr(1.0, a, np.eye(10, dtype=complex)) - 10.0) < 1e-9
    # SNR 10 dB gives 20 dB
    assert abs(_optimum_sinr(10.0, a, np.eye(10, dtype=complex)) - 20.0) < 1e-9


def test_optimal_sinr_orthogonal_interferer():
    m = 4
    a = np.zeros(m, dtype=complex)
    a[0] = 2.0  # norm^2 = 4 = M
    b = np.zeros(m, dtype=complex)
    b[1] = 1.0  # orthogonal interferer direction
    r_noise = np.eye(m, dtype=complex)
    r_with = r_noise + 100.0 * np.outer(b, b.conj())
    assert abs(_optimum_sinr(1.0, a, r_with) - _optimum_sinr(1.0, a, r_noise)) < 1e-9


def test_output_sinr_attains_optimum():
    # the attainable SINR is 10 log10(sigma1^2 a^H R_in^-1 a)
    g = np.random.default_rng(2)
    a = make_steering(6, 10.0)
    r_in = _pd(g, 6)
    bound = 10.0 * math.log10(2.0 * np.vdot(a, np.linalg.solve(r_in, a)).real)
    assert abs(_optimum_sinr(2.0, a, r_in) - bound) < 1e-9


def test_output_sinr_scale_invariant():
    g = np.random.default_rng(3)
    a = make_steering(5, 10.0)
    r_in = _pd(g, 5)
    w = g.standard_normal(5) + 1j * g.standard_normal(5)
    s0 = output_sinr(w[None], 1.0, a[None], r_in)[0]
    assert abs(output_sinr((0.3 - 2.1j) * w[None], 1.0, a[None], r_in)[0] - s0) < 1e-9


def test_output_sinr_floor_for_orthogonal_weights():
    a = np.array([1.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0], dtype=complex)
    assert output_sinr(w[None], 1.0, a[None], np.eye(2, dtype=complex))[0] == -200.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_output_never_exceeds_optimal(seed):
    g = np.random.default_rng(seed)
    m = 5
    a = make_steering(m, 12.0)
    r_in = _pd(g, m)
    w = g.standard_normal(m) + 1j * g.standard_normal(m)
    assert output_sinr(w[None], 3.0, a[None], r_in)[0] <= _optimum_sinr(3.0, a, r_in) + 1e-9


def test_steering_mse_scale_free_in_estimate():
    g = np.random.default_rng(4)
    a_true = make_steering(6, 10.0) * 1.7
    est = g.standard_normal(6) + 1j * g.standard_normal(6)
    assert abs(steering_mse(est[None], a_true[None])[0]
               - steering_mse(5.0 * est[None], a_true[None])[0]) < 1e-9
    assert steering_mse(a_true[None], a_true[None])[0] < 1e-20


# ---------------------------------------------------------------- bounds

def test_mse_bounds_shrink_with_sector():
    b = mse_bounds(1e-6, 1.0, "okspme")
    assert b.lower < 1e-10
    assert mse_bounds(1e-6, 1.0, "sqp").lower < 1e-10


def test_mse_bounds_five_degree_value():
    theta = math.radians(5.0)
    b = mse_bounds(theta, 12.0, "okspme")
    expect = (2 - 2 * math.sin(theta) / theta + math.sin(theta / 2) ** 2) * 12.0
    assert abs(b.lower - expect) < 1e-9
    assert abs(b.lower - 0.0533) < 2e-4


def test_mse_bounds_ordering_and_positivity():
    for theta in np.linspace(0.01, math.pi / 4 - 0.01, 50):
        ok = mse_bounds(float(theta), 3.0, "okspme")
        sq = mse_bounds(float(theta), 3.0, "sqp")
        assert 0.0 <= ok.lower < sq.lower
        assert ok.upper < sq.upper
        assert ok.lower <= ok.upper and sq.lower <= sq.upper


def test_mse_bounds_monotone_in_theta():
    grid = np.linspace(0.02, math.pi / 4 - 0.02, 40)
    for method in ("okspme", "sqp"):
        lows = [mse_bounds(float(t), 1.0, method).lower for t in grid]
        ups = [mse_bounds(float(t), 1.0, method).upper for t in grid]
        assert all(a < b for a, b in zip(lows, lows[1:]))
        assert all(a < b for a, b in zip(ups, ups[1:]))


@pytest.mark.parametrize("theta, norm", [
    *[pytest.param(t, 1.0, id=repr(t)) for t in (0.0, -0.1, math.pi / 4, 1.0)],
    *[pytest.param(0.1, v, id=f"norm-{v}") for v in (0.0, -1.0, math.nan, math.inf)],
])
def test_mse_bounds_domain(theta, norm):
    for method in ("okspme", "sqp"):
        with pytest.raises(ParameterError):
            mse_bounds(theta, norm, method)
    with pytest.raises(ParameterError):
        epsilon_moments(theta, norm)


def test_bounds_and_moments_beyond_the_float_range():
    theta = math.radians(40.0)
    with pytest.raises(ParameterError, match="overflow"):
        mse_bounds(theta, 1e308, "sqp")
    assert math.isfinite(mse_bounds(theta, 1e308, "okspme").upper)
    with pytest.raises(ParameterError, match="overflow"):
        epsilon_moments(0.7, 1e200)


def test_tiny_sectors_return():
    # The leading series term underflows to zero here; these calls once
    # looped forever, so they run in a child process with a time limit.
    code = """
from rabsim.analysis import epsilon_moments, mse_bounds
for t in (1e-108, 1e-162, 1e-300, 5e-324):
    for method in ("okspme", "sqp"):
        b = mse_bounds(t, 1.0, method)
        assert 0.0 <= b.lower <= b.upper < 1e-200, (t, method, b)
    mean, var, msq = epsilon_moments(t, 1.0)
    assert 0.0 <= mean < 1e-100 and 0.0 <= msq < 1e-200, (t, mean, msq)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr


def test_epsilon_moments_tiny_sector():
    mean, var, msq = epsilon_moments(1e-6, 1.0)
    assert mean < 1e-5 and var < 1e-10 and msq < 1e-10


def test_epsilon_moments_identity_and_literal_form():
    theta, norm = 0.3, 2.5
    mean, var, msq = epsilon_moments(theta, norm)
    assert abs(var + mean**2 - msq) < 1e-12
    literal_var = 2 * norm**2 * (1 - math.sin(theta) / theta
                                 - 32 * math.sin(theta / 4) ** 4 / theta**2)
    assert abs(var - literal_var) < 1e-12 * literal_var


# ----------------------------------------------------------------- flops

def test_flop_competitor_rows():
    assert flops(FlopModel("locsme", 10)) == 4 * 1000 + 3 * 100 + 200
    assert flops(FlopModel("rcb", 10)) == 2 * 1000 + 11 * 100
    assert flops(FlopModel("locme", 10)) == 2 * 1000 + 4 * 100 + 50
    assert flops(FlopModel("sqp", 10)) == round(10**3.5)
    assert flops(FlopModel("okspme-ccg", 10, order=4, inner=5)) == 64 * 100 + 262 * 10
    assert flops(FlopModel("okspme-mcg", 10, order=4)) == 30 * 100 + 154 * 10


@given(m=st.integers(2, 100))
def test_flops_strictly_positive(m):
    assert flops(FlopModel("okspme", m, order=4)) > 0
    assert flops(FlopModel("okspme-sg", m, order=4)) > 0


# ----------------------------------------- stacked scoring against the scalar
# The per-snapshot scorers as they were before they took stacks; the stacked
# forms must give their bits row by row, with the true steering read as the
# strided column of an (M, n) array, as the trial loop stores it.

def _output_sinr_scalar(w, sigma1_sq, a_true, R_in_true):
    from rabsim.analysis import SINR_FLOOR_DB
    num = sigma1_sq * abs(np.vdot(w, a_true)) ** 2
    den = np.vdot(w, R_in_true @ w).real
    if den <= 0:
        return math.inf if num > 0 else SINR_FLOOR_DB
    if num <= 0:
        return SINR_FLOOR_DB
    return max(SINR_FLOOR_DB, 10.0 * math.log10(num / den))


def _steering_mse_scalar(a_hat, a_true):
    from rabsim.kernels import norm
    scale = norm(a_true) / norm(a_hat)
    return float(norm(a_hat * scale - a_true) ** 2)


def _trajectories(g, m, n):
    truth = np.empty((m, n), dtype=complex)     # columns, as the trial stores them
    for i in range(n):
        truth[:, i] = make_steering(m, g.uniform(-60, 60)) * g.uniform(0.5, 2.0)
    scale = 10.0 ** g.uniform(-3, 3, size=(n, 1))
    weights = scale * (g.standard_normal((n, m)) + 1j * g.standard_normal((n, m)))
    a_hats = truth.T + 0.3 * (g.standard_normal((n, m)) + 1j * g.standard_normal((n, m)))
    return truth, weights, a_hats


@pytest.mark.parametrize("m", [2, 3, 7, 12, 31, 40])
def test_stacked_scoring_bits_match_scalar_rows(m):
    g = np.random.default_rng(100 + m)
    n = 120
    truth, weights, a_hats = _trajectories(g, m, n)
    r_in = _pd(g, m)
    sinr = output_sinr(weights, 3.0, truth.T, r_in)
    mse = steering_mse(a_hats, truth.T)
    assert sinr.shape == mse.shape == (n,)
    for i in range(n):
        assert sinr[i] == _output_sinr_scalar(weights[i], 3.0, truth[:, i], r_in)
        assert mse[i] == _steering_mse_scalar(a_hats[i], truth[:, i])


def test_stacked_scoring_floor_inf_and_zero_rows():
    m = 4
    e = np.eye(m, dtype=complex)
    truth = np.repeat(e[:, :1], 3, axis=1)          # a_true = e1 in every column
    weights = np.array([e[1],                       # nulled: floor
                        e[1] + 1e-110 * e[0],       # below the floor: floor
                        e[0] + e[2]])               # finite
    sinr = output_sinr(weights, 2.0, truth.T, np.eye(m, dtype=complex))
    assert sinr[0] == sinr[1] == -200.0 and -200.0 < sinr[2] < math.inf
    expect = [_output_sinr_scalar(w, 2.0, truth[:, i], np.eye(m, dtype=complex))
              for i, w in enumerate(weights)]
    assert sinr.tolist() == expect
    # zero denominator: +inf with a signal, the floor without
    zero = np.zeros((m, m), dtype=complex)
    sinr = output_sinr(weights, 2.0, truth.T, zero)
    assert sinr.tolist() == [-200.0, math.inf, math.inf]
    # a zero-weight row nulls the signal too: the floor
    zeroed = weights.copy()
    zeroed[1] = 0.0
    sinr = output_sinr(zeroed, 2.0, truth.T, np.eye(m, dtype=complex))
    assert sinr.tolist() == [-200.0, -200.0, expect[2]]
