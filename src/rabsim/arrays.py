"""Uniform linear array signal model.

Steering vectors for a half-wavelength ULA, the two local-scattering
mismatch models (coherent: one fixed composite vector per trial;
incoherent: a fresh random composite every snapshot), and the snapshot
generator that mixes the desired signal, a segment's interferers and
unit-power noise.  A trial's realized desired steering is always an M x n
matrix, one column per snapshot; interferers are plain steering vectors.

Conventions: a plain steering vector has element ``k = exp(j*pi*k*sin(theta))``
and therefore Euclidean norm ``sqrt(M)``.  Angles at the API boundary are
degrees; radians appear only inside formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ScatteringSpec:
    """Local scattering around the desired signal.

    ``kind`` is one of ``none | coherent | incoherent``.  Scattered-path
    angles are drawn uniformly on ``mean +- sqrt(3)*std``, the unique uniform
    law with the requested mean and standard deviation.
    """

    kind: str = "none"
    num_paths: int = 4
    angle_mean_deg: float = 10.0
    angle_std_deg: float = 2.0

    def __post_init__(self):
        if self.kind not in ("none", "coherent", "incoherent"):
            raise ParameterError(f"unknown scattering kind {self.kind!r}")
        if self.num_paths < 0:
            raise ParameterError("num_paths must be >= 0")
        if self.angle_std_deg < 0:
            raise ParameterError("angle_std_deg must be >= 0")


def make_steering(m_sensors: int, theta_deg: float) -> np.ndarray:
    """Steering vector of an M-element half-wavelength ULA toward ``theta_deg``."""
    if m_sensors < 2:
        raise ParameterError(f"need at least 2 sensors, got {m_sensors}")
    if not -90.0 <= theta_deg <= 90.0:
        raise ParameterError(f"DoA must lie in [-90, 90] degrees, got {theta_deg}")
    phase = math.pi * math.sin(math.radians(theta_deg))
    return np.exp(1j * phase * np.arange(m_sensors))


def scatter_angles(spec: ScatteringSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw the scattered-path DoAs for one trial (degrees)."""
    half_width = SQRT3 * spec.angle_std_deg
    lo = spec.angle_mean_deg - half_width
    hi = spec.angle_mean_deg + half_width
    return rng.uniform(lo, hi, size=spec.num_paths)


def make_coherent_mismatch(
    nominal: np.ndarray,
    spec: ScatteringSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Composite steering vector for time-invariant multipath.

    Returns ``p + sum_k exp(j*phi_k) b(theta_k)`` where ``p`` is the direct
    path (the nominal vector), path angles follow ``spec`` and path phases are
    uniform on [0, 2*pi].  One draw per trial; constant across snapshots.
    """
    if spec.kind != "coherent":
        raise ParameterError(f"spec.kind must be 'coherent', got {spec.kind!r}")
    m = nominal.shape[0]
    thetas = scatter_angles(spec, rng)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=spec.num_paths)
    out = nominal.astype(complex, copy=True)
    for theta, phi in zip(thetas, phis):
        out += np.exp(1j * phi) * make_steering(m, theta)
    return out


def make_incoherent_mismatch(
    nominal: np.ndarray,
    spec: ScatteringSpec,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Per-snapshot steering vectors for time-varying multipath, M x ``count``.

    Column ``i`` is ``s_0(i) p + sum_k s_k(i) b(theta_k)`` with i.i.d.
    unit-variance circular complex Gaussian gains redrawn every snapshot.
    Path angles are drawn first, then all snapshots' gains in one draw, in
    snapshot order.  Each column is that snapshot's own ``gains @ paths``
    product: a stacked matmul keeps its bits, where one matrix product over
    all snapshots rounds differently.  The result is C-ordered.
    """
    if spec.kind != "incoherent":
        raise ParameterError(f"spec.kind must be 'incoherent', got {spec.kind!r}")
    m = nominal.shape[0]
    thetas = scatter_angles(spec, rng)
    paths = np.empty((spec.num_paths + 1, m), dtype=complex)
    paths[0] = nominal
    for k, theta in enumerate(thetas):
        paths[k + 1] = make_steering(m, theta)
    z = rng.standard_normal((count, spec.num_paths + 1, 2))
    gains = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
    return np.ascontiguousarray((gains[:, None, :] @ paths)[:, 0].T)


def generate_snapshots(
    truth: np.ndarray,
    desired_power: float,
    interferers: Sequence[np.ndarray],
    interferer_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate ``x(i) = a(i) s(i) + sum_k a_k s_k(i) + n(i)`` per column of ``truth``.

    ``truth`` is the M x count realized desired steering ``a(i)``, one column
    per snapshot, and ``interferers`` holds one segment's interferer steering
    vectors ``a_k``; the M x count observations are returned.  Symbols are
    zero-mean circular complex Gaussian, at ``desired_power`` for the desired
    signal and ``interferer_power`` for each interferer; sensor noise is
    circular complex Gaussian with unit per-element variance, the unit of
    every power.  The stream is drawn in that order: desired symbols, each
    interferer's symbols in list order, then the noise.
    """
    m, count = truth.shape
    if count < 1:
        raise ParameterError("snapshot count must be >= 1")

    def draw_symbols(power: float) -> np.ndarray:
        z = rng.standard_normal((count, 2))
        return math.sqrt(power / 2.0) * (z[:, 0] + 1j * z[:, 1])

    obs = np.zeros((m, count), dtype=complex)
    obs += truth * draw_symbols(desired_power)[None, :]
    for a in interferers:
        obs += np.outer(a, draw_symbols(interferer_power))
    z = rng.standard_normal((m, count, 2))
    obs += math.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])
    return obs
