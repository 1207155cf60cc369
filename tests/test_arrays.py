import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabsim import rng
from rabsim.arrays import (ScatteringSpec, desired_steering, generate_snapshots,
                           make_steering)
from rabsim.errors import ParameterError


def _fixed(a, count):
    """The M x count truth of a steering vector that holds for every snapshot."""
    return np.repeat(a[:, None], count, axis=1)


def test_steering_broadside_is_all_ones():
    assert np.allclose(make_steering(4, 0.0), np.ones(4))


def test_steering_endfire_two_elements():
    assert np.allclose(make_steering(2, 90.0), [1.0, -1.0])


def test_steering_thirty_degrees():
    # sin 30 deg = 0.5 -> phases 0, pi/2, pi
    assert np.allclose(make_steering(3, 30.0), [1.0, 1.0j, -1.0], atol=1e-12)


@given(m=st.integers(2, 40), theta=st.floats(-90.0, 90.0))
def test_steering_norm_is_sqrt_m(m, theta):
    a = make_steering(m, theta)
    assert abs(np.linalg.norm(a) ** 2 - m) < 1e-12 * m


@given(m=st.integers(2, 24), theta=st.floats(0.0, 90.0))
def test_steering_conjugate_symmetry(m, theta):
    assert np.allclose(make_steering(m, -theta), make_steering(m, theta).conj(),
                       atol=1e-14)


def test_none_repeats_the_nominal_and_draws_nothing():
    nominal = make_steering(6, 10.0)
    g = rng.stream(1, 0, 0)
    truth = desired_steering(nominal, ScatteringSpec(kind="none"), g, 4)
    assert truth.shape == (6, 4) and truth.flags.c_contiguous
    assert np.array_equal(truth, _fixed(nominal, 4))
    assert g.standard_normal() == rng.stream(1, 0, 0).standard_normal()


class _ForcedGains:
    """Stub generator: unit direct-path gain, used as an rng stand-in."""

    def uniform(self, lo, hi, size=None):
        return np.full(size, (lo + hi) / 2.0)

    def standard_normal(self, shape):
        z = np.zeros(shape)
        z[..., 0, 0] = math.sqrt(2.0)  # s_0 = (sqrt(2) + 0j)/sqrt(2) = 1
        return z


@pytest.mark.parametrize("kind", ["coherent", "incoherent"])
def test_zero_paths_leave_the_nominal(kind):
    nominal = make_steering(4, 10.0)
    spec = ScatteringSpec(kind=kind, num_paths=0)
    truth = desired_steering(nominal, spec, _ForcedGains(), 3)
    assert np.allclose(truth, _fixed(nominal, 3))


def test_coherent_degenerate_draw():
    # zero angle spread: every path is b(mean) = p, so the composite is
    # p (1 + sum_k exp(j phi_k)) with the phases replayed from the same stream
    nominal = make_steering(5, 10.0)
    spec = ScatteringSpec(kind="coherent", num_paths=4, angle_mean_deg=10.0,
                          angle_std_deg=0.0)
    truth = desired_steering(nominal, spec, rng.stream(1, 0, 0), 2)

    g = rng.stream(1, 0, 0)
    g.uniform(10.0, 10.0, size=4)
    phis = g.uniform(0.0, 2 * math.pi, size=4)
    expect = (1.0 + np.exp(1j * phis).sum()) * nominal
    assert np.allclose(truth, _fixed(expect, 2), atol=1e-12)


def test_coherent_seeded_redraw_matches_brute_force():
    nominal = make_steering(8, 10.0)
    spec = ScatteringSpec(kind="coherent", num_paths=4, angle_mean_deg=10.0,
                          angle_std_deg=2.0)
    truth = desired_steering(nominal, spec, rng.stream(33, 5, rng.ROLE_SCATTER), 3)

    # brute-force redraw with an identical stream, replaying the draw order;
    # one composite holds for every snapshot
    g = rng.stream(33, 5, rng.ROLE_SCATTER)
    half = math.sqrt(3.0) * 2.0
    thetas = g.uniform(10.0 - half, 10.0 + half, size=4)
    phis = g.uniform(0.0, 2 * math.pi, size=4)
    expect = nominal.astype(complex)
    for th, ph in zip(thetas, phis):
        expect = expect + np.exp(1j * ph) * make_steering(8, th)
    assert truth.shape == (8, 3) and truth.flags.c_contiguous
    assert np.allclose(truth, _fixed(expect, 3), atol=1e-14)


def test_incoherent_successive_snapshots_differ():
    nominal = make_steering(6, 10.0)
    spec = ScatteringSpec(kind="incoherent")
    truth = desired_steering(nominal, spec, rng.stream(4, 0, 0), 2)
    assert truth.shape == (6, 2)
    assert not np.allclose(truth[:, 0], truth[:, 1])


def test_incoherent_seeded_redraw_matches_brute_force():
    nominal = make_steering(8, 10.0)
    spec = ScatteringSpec(kind="incoherent", num_paths=3, angle_std_deg=2.0)
    truth = desired_steering(nominal, spec, rng.stream(7, 1, rng.ROLE_SCATTER), 5)

    # replay the draw order, the path angles and then one gain draw per
    # snapshot, and each snapshot's own gains @ paths product: the CSV bytes
    # rest on these bits
    g = rng.stream(7, 1, rng.ROLE_SCATTER)
    half = math.sqrt(3.0) * 2.0
    paths = np.array([nominal] + [make_steering(8, th)
                                  for th in g.uniform(10.0 - half, 10.0 + half, size=3)])
    assert truth.flags.c_contiguous
    for i in range(5):
        z = g.standard_normal((4, 2))
        gains = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        assert np.array_equal(truth[:, i], gains @ paths)


def test_incoherent_gain_variance():
    # over many snapshots, var of s0(i) * p element-wise approaches |p_k|^2
    nominal = make_steering(3, 10.0)
    spec = ScatteringSpec(kind="incoherent", num_paths=0)
    draws = desired_steering(nominal, spec, rng.stream(5, 0, 0), 10_000).T
    var = np.var(draws, axis=0)
    assert np.all(np.abs(var - np.abs(nominal) ** 2) < 0.05 * np.abs(nominal) ** 2)


def _replay(truth, desired_power, interferers, interferer_power, g):
    """``generate_snapshots`` rebuilt from its documented draw order: the
    desired symbols, each interferer's symbols in list order, then the unit
    sensor noise."""
    m, count = truth.shape

    def symbols(power):
        z = g.standard_normal((count, 2))
        return math.sqrt(power / 2.0) * (z[:, 0] + 1j * z[:, 1])

    want = np.zeros((m, count), dtype=complex)
    want += truth * symbols(desired_power)[None, :]
    for a in interferers:
        want += np.outer(a, symbols(interferer_power))
    z = g.standard_normal((m, count, 2))
    want += math.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])
    return want


def test_generate_snapshots_zero_everything():
    # zero source powers leave the unit noise alone
    truth = _fixed(make_steering(4, 10.0), 5)
    x = generate_snapshots(truth, 0.0, [], 0.0, rng.stream(0, 0, 0))
    g = rng.stream(0, 0, 0)
    g.standard_normal((5, 2))       # the desired symbols, scaled by 0
    z = g.standard_normal((4, 5, 2))
    assert np.array_equal(x, math.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1]))


def test_generate_snapshots_covariance_matches_model():
    a = make_steering(4, 10.0)
    x = generate_snapshots(_fixed(a, 100_000), 2.0, [], 0.0, rng.stream(9, 0, 0))
    scm = x @ x.conj().T / x.shape[1]
    model = 2.0 * np.outer(a, a.conj()) + np.eye(4)
    err = np.linalg.norm(scm - model) / np.linalg.norm(model)
    assert err < 0.02


def test_generate_snapshots_desired_term_follows_truth_columns():
    # desired source only: column i is truth[:, i] times one symbol, plus noise
    nominal = make_steering(4, 10.0)
    spec = ScatteringSpec(kind="incoherent")
    truth = desired_steering(nominal, spec, rng.stream(2, 0, 0), 7)
    x = generate_snapshots(truth, 1.0, [], 0.0, rng.stream(3, 0, 0))
    assert x.shape == (4, 7)
    assert np.array_equal(x, _replay(truth, 1.0, [], 0.0, rng.stream(3, 0, 0)))


def test_generate_snapshots_draw_order():
    # the CSV bytes depend on the stream order: the desired symbols, each
    # interferer's symbols in list order, then the sensor noise
    m, count = 5, 9
    spec = ScatteringSpec(kind="incoherent")
    truth = desired_steering(make_steering(m, 10.0), spec, rng.stream(4, 0, 0), count)
    a1, a2 = make_steering(m, 30.0), make_steering(m, -20.0)
    x = generate_snapshots(truth, 2.0, [a1, a2], 3.0, rng.stream(12, 0, rng.ROLE_DATA))
    want = _replay(truth, 2.0, [a1, a2], 3.0, rng.stream(12, 0, rng.ROLE_DATA))
    assert np.array_equal(x, want)


def test_scattering_spec_validation():
    with pytest.raises(ParameterError):
        ScatteringSpec(kind="weird")
    with pytest.raises(ParameterError):
        ScatteringSpec(kind="coherent", num_paths=-1)
    with pytest.raises(ParameterError):
        ScatteringSpec(kind="coherent", angle_std_deg=-0.1)
    # the path angles are uniform on mean +- sqrt(3) std, which has that mean and std
    assert ScatteringSpec(angle_mean_deg=10.0, angle_std_deg=2.0).support_deg == (
        10.0 - math.sqrt(3.0) * 2.0, 10.0 + math.sqrt(3.0) * 2.0)
    assert ScatteringSpec(angle_mean_deg=-5.0, angle_std_deg=0.0).support_deg == (-5.0, -5.0)
