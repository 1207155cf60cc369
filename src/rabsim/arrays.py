"""Uniform linear array signal model.

Steering vectors for a half-wavelength ULA, the local-scattering model and
the snapshot generator that mixes the desired signal, a segment's
interferers and unit-power noise.  ``desired_steering`` alone draws a trial's
realized desired steering, an M x n matrix with one column per snapshot, for
every ``ScatteringSpec.kind`` (none; coherent: one fixed composite per trial;
incoherent: a fresh random composite every snapshot), with path angles on
``ScatteringSpec.support_deg``.  Interferers are plain steering vectors.

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


@dataclass(frozen=True)
class ScatteringSpec:
    """Local scattering around the desired signal, drawn by :func:`desired_steering`.

    ``kind`` is one of ``none | coherent | incoherent``.  Scattered-path
    angles are drawn uniformly on :attr:`support_deg`.
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

    @property
    def support_deg(self) -> tuple:
        """The path-angle interval ``mean +- sqrt(3)*std`` (degrees): the unique
        uniform law with the requested mean and standard deviation."""
        half_width = math.sqrt(3.0) * self.angle_std_deg
        return self.angle_mean_deg - half_width, self.angle_mean_deg + half_width


def make_steering(m_sensors: int, theta_deg: float) -> np.ndarray:
    """Steering vector of an M-element half-wavelength ULA toward ``theta_deg``."""
    phase = math.pi * math.sin(math.radians(theta_deg))
    return np.exp(1j * phase * np.arange(m_sensors))


def desired_steering(
    nominal: np.ndarray,
    spec: ScatteringSpec,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Realized desired steering of ``count`` snapshots, M x ``count`` and C-ordered.

    Column ``i`` is what snapshot ``i`` sees of the direct path ``p`` (the
    nominal vector) and ``spec.num_paths`` scattered paths ``b(theta_k)``,
    angles uniform on ``spec.support_deg``:

    * ``none``: every column is ``p``; nothing is drawn.
    * ``coherent``: every column is ``p + sum_k exp(j*phi_k) b(theta_k)``; the
      path angles are drawn, then the phases, uniform on [0, 2*pi].
    * ``incoherent``: column ``i`` is ``s_0(i) p + sum_k s_k(i) b(theta_k)``
      with i.i.d. unit-variance circular complex Gaussian gains; the path
      angles are drawn, then all snapshots' gains in one draw, in snapshot
      order.  Each column is that snapshot's own ``gains @ paths`` product: a
      stacked matmul keeps its bits, where one matrix product over all
      snapshots rounds differently.
    """
    if spec.kind == "none":
        return np.repeat(nominal[:, None], count, axis=1)
    m = nominal.shape[0]
    scattered = [make_steering(m, theta)
                 for theta in rng.uniform(*spec.support_deg, size=spec.num_paths)]
    if spec.kind == "coherent":
        phis = rng.uniform(0.0, 2.0 * math.pi, size=spec.num_paths)
        composite = nominal.astype(complex, copy=True)
        for phi, b in zip(phis, scattered):
            composite += np.exp(1j * phi) * b
        return np.repeat(composite[:, None], count, axis=1)
    paths = np.array([nominal, *scattered], dtype=complex)
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
