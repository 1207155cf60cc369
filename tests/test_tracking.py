import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabsim.tracking import CovarianceTracker


def _absorb(t, x, y):
    t.update_covariance(x)
    t.update_crosscorr(x, y)


def test_forgetting_one_step_hand_value():
    t = CovarianceTracker(2, lam=0.5, delta0=1.0)
    _absorb(t, np.array([1.0, 0.0], dtype=complex), 0.0)
    assert np.allclose(t.covariance() * t.weight, [[1.5, 0.0], [0.0, 0.5]])


complex_vec = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(seed=complex_vec, n=st.integers(1, 12), delta0=st.floats(0.0, 1.0))
@example(seed=0, n=1, delta0=0.0)  # the first snapshot alone: rank one
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
@example(seed=0, n=5, lam=1.0)  # no forgetting: the cumulative sum
def test_forgetting_matches_brute_force(seed, n, lam):
    g = np.random.default_rng(seed)
    m = 3
    xs = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
    ys = g.standard_normal(n) + 1j * g.standard_normal(n)
    t = CovarianceTracker(m, lam=lam, delta0=0.2)
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


class _SampleMeanOracle:
    """Reference sample mean: plain sums ``R <- R + x x^H`` and
    ``d <- d + x y*`` divided by the count, whose bits ``lam = 1`` keeps."""

    def __init__(self, m, delta0):
        self.sr = delta0 * np.eye(m, dtype=complex)
        self.sd = np.zeros(m, dtype=complex)
        self.count = self.count_d = 0

    def update_covariance(self, x):
        self.sr = self.sr + x[:, None] * x.conj()
        self.sr = 0.5 * (self.sr + self.sr.conj().T)
        self.count += 1

    def update_crosscorr(self, x, y):
        self.sd = self.sd + x * np.conj(y)
        self.count_d += 1

    def covariance(self):
        return self.sr / float(self.count)

    def crosscorr(self):
        return self.sd / float(self.count_d) if self.count_d else self.sd


@settings(max_examples=25, deadline=None)
@given(seed=complex_vec, n=st.integers(1, 40), m=st.integers(1, 12),
       delta0=st.floats(0.0, 1.0))
def test_lambda_one_bits_match_sample_mean_oracle(seed, n, m, delta0):
    g = np.random.default_rng(seed)
    xs = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
    ys = g.standard_normal(n) + 1j * g.standard_normal(n)
    t = CovarianceTracker(m, lam=1.0, delta0=delta0)
    oracle = _SampleMeanOracle(m, delta0)
    for x, y in zip(xs, ys):
        for tracker in (t, oracle):
            tracker.update_covariance(x)
        assert np.array_equal(t.covariance(), oracle.covariance())
        assert np.array_equal(t.crosscorr(), oracle.crosscorr())
        for tracker in (t, oracle):
            tracker.update_crosscorr(x, y)
        assert np.array_equal(t.crosscorr(), oracle.crosscorr())


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
    t = CovarianceTracker(2, lam=0.5, delta0=0.0)
    x = np.array([1.0, 0.0], dtype=complex)
    for _ in range(20):
        _absorb(t, x, 1.0)
    # exponentially weighted mean of a constant stream is the constant
    assert np.allclose(t.covariance(), np.outer(x, x.conj()), atol=1e-6)
    assert np.allclose(t.crosscorr(), x, atol=1e-6)
