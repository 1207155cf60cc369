"""Robust adaptive beamforming with Krylov-subspace steering estimation.

Numerical building blocks (array model, covariance tracking, Arnoldi bases,
the beamformer family and its baselines, closed-form analysis) plus a seeded
Monte Carlo harness with a CSV-producing CLI.
"""

__version__ = "0.1.0"
