import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabsim.errors import ParameterError
from rabsim.tracking import CovarianceTracker


def _absorb(t, x, y):
    t.update_covariance(x)
    t.update_crosscorr(x, y)


def test_init_is_loaded_identity():
    t = CovarianceTracker(3, "sample_mean", delta0=0.1)
    assert np.allclose(t.covariance(), 0.1 * np.eye(3))
    assert np.allclose(t.crosscorr(), 0.0)
    assert t.count == 0


def test_init_zero_loading_is_singular():
    t = CovarianceTracker(4, delta0=0.0)
    assert np.allclose(t.covariance(), 0.0)


def test_init_mode_independent():
    a = CovarianceTracker(3, "sample_mean", delta0=0.25)
    b = CovarianceTracker(3, "forgetting", lam=0.99, delta0=0.25)
    assert np.array_equal(a.covariance(), b.covariance())
    assert np.array_equal(a.crosscorr(), b.crosscorr())


@pytest.mark.parametrize("kwargs", [
    dict(mode="forgetting", lam=0.0), dict(mode="forgetting", lam=1.5),
    dict(delta0=-0.1), dict(mode="window"),
])
def test_init_validation(kwargs):
    with pytest.raises(ParameterError):
        CovarianceTracker(3, **kwargs)


def test_first_snapshot_sample_mean_rank_one():
    t = CovarianceTracker(2, delta0=0.0)
    x = np.array([1.0 + 1.0j, 2.0], dtype=complex)
    _absorb(t, x, 3.0 - 1.0j)
    assert np.allclose(t.covariance(), np.outer(x, x.conj()))
    assert np.allclose(t.crosscorr(), x * np.conj(3.0 - 1.0j))


def test_forgetting_one_step_hand_value():
    t = CovarianceTracker(2, "forgetting", lam=0.5, delta0=1.0)
    _absorb(t, np.array([1.0, 0.0], dtype=complex), 0.0)
    assert np.allclose(t.covariance() * t.weight, [[1.5, 0.0], [0.0, 0.5]])


def test_constant_snapshot_mean_is_projector():
    t = CovarianceTracker(3, delta0=0.0)
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    for _ in range(7):
        _absorb(t, e1, 1.0)
        assert np.allclose(t.covariance(), np.outer(e1, e1))


def test_dimension_mismatch():
    t = CovarianceTracker(3)
    with pytest.raises(ParameterError):
        t.update_covariance(np.zeros(4, dtype=complex))
    with pytest.raises(ParameterError):
        t.update_crosscorr(np.zeros(4, dtype=complex), 0.0)


complex_vec = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(seed=complex_vec, n=st.integers(1, 12), delta0=st.floats(0.0, 1.0))
def test_sample_mean_matches_brute_force(seed, n, delta0):
    g = np.random.default_rng(seed)
    m = 4
    xs = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
    ys = g.standard_normal(n) + 1j * g.standard_normal(n)
    t = CovarianceTracker(m, delta0=delta0)
    for x, y in zip(xs, ys):
        _absorb(t, x, y)
    brute_r = sum(np.outer(x, x.conj()) for x in xs) / n + (delta0 / n) * np.eye(m)
    brute_d = sum(x * np.conj(y) for x, y in zip(xs, ys)) / n
    r_hat = t.covariance()
    assert np.abs(r_hat - brute_r).max() < 1e-10
    assert np.abs(t.crosscorr() - brute_d).max() < 1e-10
    assert np.abs(r_hat - r_hat.conj().T).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=complex_vec, n=st.integers(1, 12), lam=st.floats(0.5, 1.0))
def test_forgetting_matches_brute_force(seed, n, lam):
    g = np.random.default_rng(seed)
    m = 3
    xs = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
    ys = g.standard_normal(n) + 1j * g.standard_normal(n)
    t = CovarianceTracker(m, "forgetting", lam=lam, delta0=0.2)
    for x, y in zip(xs, ys):
        _absorb(t, x, y)
    brute_r = (lam**n) * 0.2 * np.eye(m)
    brute_d = np.zeros(m, dtype=complex)
    for k, (x, y) in enumerate(zip(xs, ys), start=1):
        brute_r = brute_r + lam ** (n - k) * np.outer(x, x.conj())
        brute_d = brute_d + lam ** (n - k) * x * np.conj(y)
    # raw forgetting sums: the normalized statistics times the total weight
    raw_r, raw_d = t.covariance() * t.weight, t.crosscorr() * t.weight
    assert np.abs(raw_r - brute_r).max() < 1e-10 * max(1.0, np.abs(brute_r).max())
    assert np.abs(raw_d - brute_d).max() < 1e-10 * max(1.0, np.abs(brute_d).max())


def test_forgetting_lambda_one_is_cumulative_sum():
    g = np.random.default_rng(0)
    xs = g.standard_normal((5, 3)) + 1j * g.standard_normal((5, 3))
    t = CovarianceTracker(3, "forgetting", lam=1.0, delta0=0.0)
    for x in xs:
        _absorb(t, x, 1.0)
    total = sum(np.outer(x, x.conj()) for x in xs)
    assert np.allclose(t.covariance() * t.weight, total)
    assert np.allclose(t.crosscorr() * t.weight, xs.sum(axis=0))


def test_split_updates_track_separate_counts():
    t = CovarianceTracker(2, delta0=0.0)
    x = np.array([1.0, 1.0j])
    t.update_covariance(x)
    assert t.count == 1 and t.count_d == 0
    assert np.allclose(t.crosscorr(), 0.0)
    t.update_crosscorr(x, 2.0)
    assert t.count_d == 1
    assert np.allclose(t.crosscorr(), x * 2.0)


def test_normalized_accessors_forgetting():
    t = CovarianceTracker(2, "forgetting", lam=0.5, delta0=0.0)
    x = np.array([1.0, 0.0], dtype=complex)
    for _ in range(20):
        _absorb(t, x, 1.0)
    # exponentially weighted mean of a constant stream is the constant
    assert np.allclose(t.covariance(), np.outer(x, x.conj()), atol=1e-6)
    assert np.allclose(t.crosscorr(), x, atol=1e-6)
