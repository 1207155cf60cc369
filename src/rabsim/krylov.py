"""Orthonormal Krylov bases via Arnoldi iteration with modified Gram-Schmidt.

Starting from a unit seed vector ``t1``, the iteration builds columns of the
subspace ``span{t1, R t1, R^2 t1, ...}`` and stops either on breakdown (the
orthogonalized residual vanishes, i.e. an invariant subspace was reached) or
at the rank cap ``K + 1`` that suffices to capture one desired source plus
``K - 1`` interferers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

BREAKDOWN = "breakdown"
RANK_CAP = "rank_cap"

# Second orthogonalization sweep kicks in when cancellation ate most of u_j.
REORTH_RATIO = 1e-4


@dataclass
class KrylovBasis:
    """Orthonormal basis ``T`` (M x m), its order, and why the iteration stopped."""

    T: np.ndarray
    m: int
    stop_reason: str


def arnoldi_mgs(
    R: np.ndarray,
    t1: np.ndarray,
    num_sources: int,
    breakdown_tol: float | None = None,
) -> KrylovBasis:
    """Build the Krylov basis of ``R`` seeded by the unit vector ``t1``.

    ``breakdown_tol`` is the absolute threshold on the residual norm; the
    default is ``1e-8 * ||R||_F`` so the exact-arithmetic test ``h = 0``
    becomes scale invariant.  The emitted order never exceeds
    ``num_sources + 1``.
    """
    R = np.asarray(R)
    t1 = np.asarray(t1, dtype=complex)
    m_dim = t1.shape[0]
    if R.shape != (m_dim, m_dim):
        raise ParameterError(f"R must be {m_dim}x{m_dim}, got {R.shape}")
    if not np.isfinite(R).all() or not np.isfinite(t1).all():
        raise NumericError("non-finite entries in Arnoldi inputs")
    if abs(np.linalg.norm(t1) - 1.0) > 1e-8:
        raise ParameterError("seed vector t1 must have unit norm")
    if num_sources < 1:
        raise ParameterError("num_sources must be >= 1")
    if breakdown_tol is None:
        breakdown_tol = 1e-8 * np.linalg.norm(R)
    if breakdown_tol <= 0:
        raise ParameterError("breakdown_tol must be > 0")

    cap = num_sources + 1
    cols = [t1]
    stop = RANK_CAP
    m_out = cap

    for j in range(cap):
        u = R @ cols[j]
        norm_before = np.linalg.norm(u)
        for l in range(j + 1):
            u = u - np.vdot(cols[l], u) * cols[l]
        if np.linalg.norm(u) < REORTH_RATIO * norm_before:
            for l in range(j + 1):
                u = u - np.vdot(cols[l], u) * cols[l]
        res = np.linalg.norm(u)
        if res <= breakdown_tol:
            m_out, stop = j + 1, BREAKDOWN
            break
        if j + 1 >= cap:
            m_out, stop = j + 1, RANK_CAP
            break
        cols.append(u / res)

    T = np.column_stack(cols[:m_out])
    return KrylovBasis(T=T, m=m_out, stop_reason=stop)


def make_projector(basis: KrylovBasis) -> np.ndarray:
    """Orthogonal projector ``P = T T^H`` onto the basis span."""
    return basis.T @ basis.T.conj().T
