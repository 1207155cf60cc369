import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabsim.errors import NumericError, ParameterError
from rabsim.krylov import BREAKDOWN, RANK_CAP, arnoldi_mgs, make_projector


def _random_hermitian(g, m, floor=0.1):
    b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    return b @ b.conj().T + floor * np.eye(m)


def _compressed(basis, R):
    """``T^H R T``: the Arnoldi coefficients, Hessenberg by construction."""
    return basis.T.conj().T @ R @ basis.T


def _unit(g, m):
    t = g.standard_normal(m) + 1j * g.standard_normal(m)
    return t / np.linalg.norm(t)


def test_identity_breaks_down_immediately():
    t1 = _unit(np.random.default_rng(0), 5)
    basis = arnoldi_mgs(np.eye(5, dtype=complex), t1, 3)
    assert basis.m == 1
    assert basis.stop_reason == BREAKDOWN
    assert np.allclose(basis.T[:, 0], t1)


def test_diagonal_eigenvector_seed():
    R = np.diag([1.0, 2.0]).astype(complex)
    basis = arnoldi_mgs(R, np.array([1.0, 0.0], dtype=complex), 2)
    assert basis.m == 1
    assert basis.stop_reason == BREAKDOWN
    assert abs(_compressed(basis, R)[0, 0] - 1.0) < 1e-14


def test_two_by_two_full_basis():
    R = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    basis = arnoldi_mgs(R, np.array([1.0, 0.0], dtype=complex), 2)
    assert basis.m == 2
    assert basis.stop_reason == BREAKDOWN  # residual vanishes after 2 columns
    assert np.allclose(basis.T, np.eye(2))
    h = _compressed(basis, R)
    assert abs(h[0, 0] - 2.0) < 1e-14   # h_11
    assert abs(h[1, 0] - 1.0) < 1e-14   # h_21 (residual norm)
    assert abs(h[0, 1] - 1.0) < 1e-14   # h_12 coefficient
    assert abs(h[1, 1] - 2.0) < 1e-14   # h_22


def test_rank_cap_limits_order():
    g = np.random.default_rng(1)
    R = _random_hermitian(g, 10)
    basis = arnoldi_mgs(R, _unit(g, 10), 2)
    assert basis.m == 3
    assert basis.stop_reason == RANK_CAP


def test_seed_must_be_unit():
    with pytest.raises(ParameterError):
        arnoldi_mgs(np.eye(3, dtype=complex),
                    np.array([2.0, 0.0, 0.0], dtype=complex), 2)


def test_nonfinite_rejected():
    R = np.eye(3, dtype=complex)
    R[0, 0] = np.nan
    with pytest.raises(NumericError):
        arnoldi_mgs(R, np.array([1.0, 0, 0], dtype=complex), 2)


def test_breakdown_tol_scales_with_matrix():
    # the dimensionless test must behave identically for c*I at any scale
    for c in (1e-6, 1.0, 1e6):
        basis = arnoldi_mgs(c * np.eye(4, dtype=complex),
                            _unit(np.random.default_rng(3), 4), 3)
        assert basis.m == 1 and basis.stop_reason == BREAKDOWN


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), k=st.integers(1, 5))
def test_basis_invariants(seed, m, k):
    g = np.random.default_rng(seed)
    R = _random_hermitian(g, m)
    basis = arnoldi_mgs(R, _unit(g, m), k)
    T = basis.T
    assert basis.m <= k + 1
    assert np.abs(T.conj().T @ T - np.eye(basis.m)).max() < 1e-10
    P = make_projector(basis)
    assert np.abs(P - P.conj().T).max() < 1e-12
    assert np.abs(P @ P - P).max() < 1e-9
    assert abs(np.trace(P).real - basis.m) < 1e-8
    # projector leaves every basis column fixed
    assert np.abs(P @ T - T).max() < 1e-9
    # the Arnoldi coefficients T^H R T are Hessenberg, hence tridiagonal for
    # Hermitian R, with a real diagonal
    h = _compressed(basis, R)
    scale = max(1.0, np.abs(h).max())
    assert np.abs(np.tril(h, -2)).max(initial=0.0) <= 1e-10 * scale
    assert np.abs(np.triu(h, 2)).max(initial=0.0) <= 1e-10 * scale
    for j in range(basis.m):
        assert abs(h[j, j].imag) <= 1e-10 * max(1.0, abs(h[j, j]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_krylov_span_property(seed):
    g = np.random.default_rng(seed)
    m, k = 6, 3
    R = _random_hermitian(g, m)
    t1 = _unit(g, m)
    basis = arnoldi_mgs(R, t1, k)
    P = make_projector(basis)
    # span(T) subset of span{t1, R t1, ..., R^(m-1) t1}: each basis column
    # must be reproducible from the raw Krylov vectors
    raw = np.column_stack([np.linalg.matrix_power(R, j) @ t1
                           for j in range(basis.m)])
    q, _ = np.linalg.qr(raw)
    residual = basis.T - q @ (q.conj().T @ basis.T)
    assert np.abs(residual).max() < 1e-8
    # and powers of R applied to t1 stay inside the projector's range
    vec = t1.copy()
    for _ in range(basis.m):
        assert np.linalg.norm(P @ vec - vec) < 1e-8 * np.linalg.norm(vec)
        vec = R @ vec
        vec = vec / np.linalg.norm(vec)
        if basis.stop_reason == RANK_CAP:
            break


def test_projector_single_column():
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    basis = arnoldi_mgs(np.eye(4, dtype=complex), e1, 3)
    assert np.allclose(make_projector(basis), np.outer(e1, e1.conj()))


def test_projector_random_orthonormal():
    g = np.random.default_rng(7)
    q, _ = np.linalg.qr(g.standard_normal((4, 2)) + 1j * g.standard_normal((4, 2)))
    P = q @ q.conj().T
    assert np.abs(P @ P - P).max() < 1e-12
    assert abs(np.trace(P).real - 2.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_projection_never_increases_norm(seed):
    g = np.random.default_rng(seed)
    m = 8
    R = _random_hermitian(g, m)
    basis = arnoldi_mgs(R, _unit(g, m), 3)
    P = make_projector(basis)
    d = g.standard_normal(m) + 1j * g.standard_normal(m)
    assert np.linalg.norm(P @ d) <= np.linalg.norm(d) * (1 + 1e-12)


def test_determinism():
    g = np.random.default_rng(5)
    R = _random_hermitian(g, 9)
    t1 = _unit(g, 9)
    b1 = arnoldi_mgs(R, t1, 4)
    b2 = arnoldi_mgs(R, t1, 4)
    assert np.array_equal(b1.T, b2.T)
    assert (b1.m, b1.stop_reason) == (b2.m, b2.stop_reason)
