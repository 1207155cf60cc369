"""Running second-order statistics of the array data.

``CovarianceTracker`` maintains the covariance matrix ``R_hat`` of the
snapshots and the cross-correlation vector ``d_hat`` between snapshots and the
beamformer output as exponentially weighted raw sums

    ``R <- lam R + x x^H``,  ``d <- lam d + x y*``,

seeded with ``R(0) = delta0 I`` and ``d(0) = 0``.  ``covariance()`` /
``crosscorr()`` divide the raw sums by the accumulated weight ``sum lam^k``,
which is what the estimators downstream consume.  ``lam = 1`` is the sample
mean ``(1/i) sum x x^H``, with the initial loading folded in as a decaying
``(delta0/i) I`` term so that ``R_hat`` stays invertible from snapshot 1.
"""

from __future__ import annotations

import numpy as np


class CovarianceTracker:
    def __init__(self, m_sensors: int, lam: float = 1.0, delta0: float = 0.0):
        self.m = m_sensors
        self.lam = lam
        self.count = 0      # snapshots absorbed into R_hat
        self.count_d = 0    # (snapshot, output) pairs absorbed into d_hat
        # Raw accumulators: _sr starts at delta0*I, _sd at zero.
        self._sr = delta0 * np.eye(self.m, dtype=complex)
        self._sd = np.zeros(self.m, dtype=complex)

    def update_covariance(self, x: np.ndarray) -> None:
        """Absorb one snapshot into the covariance statistic only.

        Split from the cross-correlation update because the snapshot enters
        the covariance before this snapshot's beamformer output exists; the
        output (and hence the cross-correlation term) is only available after
        the weights are refreshed.
        """
        self._sr = self.lam * self._sr + x[:, None] * x.conj()
        # Rank-1 updates drift off Hermitian symmetry in floating point.
        self._sr = 0.5 * (self._sr + self._sr.conj().T)
        self.count += 1

    def update_crosscorr(self, x: np.ndarray, y: complex) -> None:
        """Absorb one (snapshot, output) pair into the cross-correlation."""
        self._sd = self.lam * self._sd + x * np.conj(y)
        self.count_d += 1

    def _accumulated_weight(self, n: int) -> float:
        if self.lam < 1.0:
            return (1.0 - self.lam**n) / (1.0 - self.lam)
        return float(n)

    @property
    def weight(self) -> float:
        """Total weight of the absorbed snapshots (sum of lam powers; i at lam = 1)."""
        return self._accumulated_weight(self.count)

    def covariance(self) -> np.ndarray:
        """``R_hat`` normalized to covariance scale (read after a snapshot)."""
        return self._sr / self.weight

    def crosscorr(self) -> np.ndarray:
        """``d_hat`` normalized to covariance scale."""
        if self.count_d == 0:
            return self._sd
        return self._sd / self._accumulated_weight(self.count_d)
