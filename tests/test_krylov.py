import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabsim.errors import NumericError
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


def test_nonfinite_rejected():
    R = np.eye(3, dtype=complex)
    R[0, 0] = np.nan
    with pytest.raises(NumericError):
        arnoldi_mgs(R, np.array([1.0, 0, 0], dtype=complex), 2)


def test_breakdown_tol_scales_with_matrix():
    # the dimensionless test must behave identically for c*I at any scale:
    # the seed alone spans the basis
    t1 = _unit(np.random.default_rng(3), 4)
    for c in (1e-6, 1.0, 1e6):
        basis = arnoldi_mgs(c * np.eye(4, dtype=complex), t1, 3)
        assert basis.m == 1 and basis.stop_reason == BREAKDOWN
        assert np.allclose(basis.T[:, 0], t1)


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


# The iteration as it ran before it stopped at the rank cap: it formed and
# orthogonalized one more Krylov vector once the basis was full, only to pick
# the stop label.  Kept as the oracle for the bits of ``T`` and ``m``.
def _arnoldi_before_cap_stop(R, t1, num_sources):
    from rabsim.kernels import norm
    from rabsim.krylov import REORTH_RATIO
    R = np.asarray(R)
    t1 = np.asarray(t1, dtype=complex)
    if not np.isfinite(R).all() or not np.isfinite(t1).all():
        raise NumericError("non-finite entries in Arnoldi inputs")
    breakdown_tol = 1e-8 * norm(R)
    cap = num_sources + 1
    cols = [t1]
    stop = RANK_CAP
    m_out = cap
    for j in range(cap):
        u = R @ cols[j]
        norm_before = norm(u)
        for l in range(j + 1):
            u = u - np.vdot(cols[l], u) * cols[l]
        res = norm(u)
        if res < REORTH_RATIO * norm_before:
            for l in range(j + 1):
                u = u - np.vdot(cols[l], u) * cols[l]
            res = norm(u)
        if res <= breakdown_tol:
            m_out, stop = j + 1, BREAKDOWN
            break
        if j + 1 >= cap:
            m_out, stop = j + 1, RANK_CAP
            break
        cols.append(u / res)
    return np.column_stack(cols[:m_out]), m_out, stop


def _assert_matches_oracle(R, t1, k):
    basis = arnoldi_mgs(R, t1, k)
    T, m, stop = _arnoldi_before_cap_stop(R, t1, k)
    assert np.array_equal(basis.T, T) and basis.m == m
    # Only a breakdown detected at the cap itself changes its label.
    assert basis.stop_reason == (RANK_CAP if m == k + 1 else stop)
    return basis, stop


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), k=st.integers(1, 5),
       rank=st.integers(1, 40))
def test_basis_bits_match_full_pass_oracle(seed, m, k, rank):
    # Low-rank-plus-identity matrices break down early; full-rank ones run to
    # the cap.
    g = np.random.default_rng(seed)
    b = g.standard_normal((m, min(rank, m))) + 1j * g.standard_normal((m, min(rank, m)))
    R = b @ b.conj().T + (0.1 if rank < m else 0.0) * np.eye(m)
    _assert_matches_oracle(R, _unit(g, m), k)


def test_invariant_subspace_at_the_cap_reads_rank_cap():
    # M = K + 1: the full basis spans the whole space, so the next Krylov
    # vector vanishes after orthogonalization.  The full pass called that a
    # breakdown; the basis is the same and now reads RANK_CAP.
    g = np.random.default_rng(11)
    for k in range(1, 6):
        R = _random_hermitian(g, k + 1)
        basis, old_stop = _assert_matches_oracle(R, _unit(g, k + 1), k)
        assert old_stop == BREAKDOWN
        assert basis.m == k + 1 and basis.stop_reason == RANK_CAP
    # A breakdown before the cap keeps its label.
    basis, old_stop = _assert_matches_oracle(np.eye(4, dtype=complex), _unit(g, 4), 3)
    assert basis.stop_reason == old_stop == BREAKDOWN


def test_input_checks_follow_the_norms():
    g = np.random.default_rng(12)
    t1 = _unit(g, 3)
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
        R = np.eye(3, dtype=complex)
        R[1, 2] = bad
        with pytest.raises(NumericError):
            arnoldi_mgs(R, t1, 2)
        seed = t1.copy()
        seed[0] = bad
        with pytest.raises(NumericError):
            arnoldi_mgs(np.eye(3, dtype=complex), seed, 2)
    # a zero R gives a zero threshold, and its zero residual breaks down at
    # order one
    basis = arnoldi_mgs(np.zeros((3, 3), dtype=complex), t1, 2)
    assert basis.m == 1 and basis.stop_reason == BREAKDOWN
    # finite entries whose Frobenius norm overflows are accepted; the
    # infinite tolerance stops at order one, as the full pass did
    R = 1e200 * np.eye(3, dtype=complex)
    with np.errstate(over="ignore"):
        basis, _ = _assert_matches_oracle(R, t1, 2)
    assert basis.m == 1 and basis.stop_reason == BREAKDOWN
