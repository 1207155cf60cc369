"""Orthonormal Krylov bases via Arnoldi iteration with modified Gram-Schmidt.

Starting from a unit seed vector ``t1``, the iteration builds columns of the
subspace ``span{t1, R t1, R^2 t1, ...}`` and stops either on breakdown (the
orthogonalized residual vanishes before the basis is full, i.e. an invariant
subspace was reached) or at the rank cap ``K + 1`` that suffices to capture
one desired source plus ``K - 1`` interferers.  A full basis stops with
``RANK_CAP`` without forming one more Krylov vector, so an invariant subspace
of dimension exactly ``K + 1`` also reads ``RANK_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .kernels import norm

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


def arnoldi_mgs(R: np.ndarray, t1: np.ndarray, num_sources: int) -> KrylovBasis:
    """Build the Krylov basis of ``R`` seeded by the unit vector ``t1``.

    ``R`` is M x M and ``t1`` a complex unit M-vector; ``num_sources >= 1``.
    The residual norm counts as zero at ``1e-8 * ||R||_F`` or below, so the
    exact-arithmetic test ``h = 0`` becomes scale invariant; a zero ``R``
    breaks down at order 1.  The emitted order never exceeds
    ``num_sources + 1``; ``stop_reason`` is ``BREAKDOWN`` when the residual
    vanished before the basis reached that cap, ``RANK_CAP`` otherwise.
    """
    # A finite norm means finite entries; only an overflowing (or non-finite)
    # norm needs the entrywise test.
    r_norm, t1_norm = norm(R), norm(t1)
    if (not math.isfinite(r_norm) and not np.isfinite(R).all()) or \
       (not math.isfinite(t1_norm) and not np.isfinite(t1).all()):
        raise NumericError("non-finite entries in Arnoldi inputs")
    tol = 1e-8 * r_norm

    cap = num_sources + 1
    cols = [t1]
    stop = RANK_CAP
    while len(cols) < cap:
        u = R @ cols[-1]
        norm_before = norm(u)
        for col in cols:
            u -= np.vdot(col, u) * col
        res = norm(u)
        if res < REORTH_RATIO * norm_before:
            for col in cols:
                u -= np.vdot(col, u) * col
            res = norm(u)
        if res <= tol:
            stop = BREAKDOWN
            break
        cols.append(u / res)

    # One copy into a C-ordered m x M array; T is its transposed view, whose
    # projector has the bits of a C-ordered T's.
    return KrylovBasis(T=np.array(cols).T, m=len(cols), stop_reason=stop)


def make_projector(basis: KrylovBasis) -> np.ndarray:
    """Orthogonal projector ``P = T T^H`` onto the basis span."""
    return basis.T @ basis.T.conj().T
