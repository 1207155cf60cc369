"""Running second-order statistics of the array data.

``CovarianceTracker`` maintains the sample covariance matrix ``R_hat`` of the
snapshots and the sample cross-correlation vector ``d_hat`` between snapshots
and the beamformer output, in one of two modes:

* ``sample_mean``: growing averages ``(1/i) sum x x^H`` and ``(1/i) sum x y*``,
  with the initial diagonal loading ``delta0 I`` folded in as a decaying
  ``(delta0/i) I`` term so that ``R_hat`` stays invertible from snapshot 1.
* ``forgetting``: exponentially weighted raw sums ``R <- lam R + x x^H`` and
  ``d <- lam d + x y*`` seeded with ``R(0) = delta0 I``.

``covariance()`` / ``crosscorr()`` return the statistics on covariance scale
in both modes (the forgetting-mode raw sums are divided by the accumulated
weight ``sum lam^k``), which is what the estimators downstream consume.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

SAMPLE_MEAN = "sample_mean"
FORGETTING = "forgetting"


class CovarianceTracker:
    def __init__(self, m_sensors: int, mode: str = SAMPLE_MEAN,
                 lam: float = 1.0, delta0: float = 0.0):
        if mode not in (SAMPLE_MEAN, FORGETTING):
            raise ParameterError(f"unknown tracker mode {mode!r}")
        if mode == FORGETTING and not 0.0 < lam <= 1.0:
            raise ParameterError(f"forgetting factor must lie in (0, 1], got {lam}")
        if delta0 < 0:
            raise ParameterError(f"delta0 must be >= 0, got {delta0}")
        if m_sensors < 1:
            raise ParameterError("m_sensors must be >= 1")
        self.m = int(m_sensors)
        self.mode = mode
        self.lam = float(lam)
        self.delta0 = float(delta0)
        self.count = 0      # snapshots absorbed into R_hat
        self.count_d = 0    # (snapshot, output) pairs absorbed into d_hat
        # Raw accumulators: _sr starts at delta0*I, _sd at zero.
        self._sr = self.delta0 * np.eye(self.m, dtype=complex)
        self._sd = np.zeros(self.m, dtype=complex)

    def update_covariance(self, x: np.ndarray) -> "CovarianceTracker":
        """Absorb one snapshot into the covariance statistic only.

        Split from the cross-correlation update because the snapshot enters
        the covariance before this snapshot's beamformer output exists; the
        output (and hence the cross-correlation term) is only available after
        the weights are refreshed.
        """
        x = np.asarray(x)
        if x.shape != (self.m,):
            raise ParameterError(f"snapshot must have shape ({self.m},), got {x.shape}")
        outer = np.outer(x, x.conj())
        if self.mode == FORGETTING:
            self._sr = self.lam * self._sr + outer
        else:
            self._sr = self._sr + outer
        # Rank-1 updates drift off Hermitian symmetry in floating point.
        self._sr = 0.5 * (self._sr + self._sr.conj().T)
        self.count += 1
        return self

    def update_crosscorr(self, x: np.ndarray, y: complex) -> "CovarianceTracker":
        """Absorb one (snapshot, output) pair into the cross-correlation."""
        x = np.asarray(x)
        if x.shape != (self.m,):
            raise ParameterError(f"snapshot must have shape ({self.m},), got {x.shape}")
        if self.mode == FORGETTING:
            self._sd = self.lam * self._sd + x * np.conj(y)
        else:
            self._sd = self._sd + x * np.conj(y)
        self.count_d += 1
        return self

    def _accumulated_weight(self, n: int) -> float:
        if n == 0:
            return 0.0
        if self.mode == FORGETTING and self.lam < 1.0:
            return (1.0 - self.lam**n) / (1.0 - self.lam)
        return float(n)

    @property
    def weight(self) -> float:
        """Total weight of the absorbed snapshots (i, or sum of lam powers)."""
        return self._accumulated_weight(self.count)

    def covariance(self) -> np.ndarray:
        """``R_hat`` normalized to covariance scale regardless of mode."""
        if self.count == 0:
            return self._sr
        return self._sr / self.weight

    def crosscorr(self) -> np.ndarray:
        """``d_hat`` normalized to covariance scale regardless of mode."""
        if self.count_d == 0:
            return self._sd
        return self._sd / self._accumulated_weight(self.count_d)
