"""Last-bit sensitivity of every engine's steady-state SINR.

Trial 0 of seeds 1-8 of the M=12 coherent-scattering scenario (the criterion
9/10 setting) runs once on its snapshots and once on the snapshots scaled by
``1 + 2**-52``, a one-ulp stand-in for another BLAS build's rounding.  An
engine passes when its mean SINR over the last ``STEADY_WINDOW`` snapshots
moves by at most ``TOL_DB`` on every seed, so no verdict scored on it rests
on one seed's last-bit rounding.
"""

import dataclasses

import numpy as np
import pytest

from rabsim import harness
from rabsim.harness import STEADY_WINDOW, run_trial

SEEDS = range(1, 9)
PERTURBATION = 1.0 + 2.0**-52
TOL_DB = 1e-6


def _steady_sinr(cfg):
    rec = run_trial(cfg, 0)
    return {name: float(np.mean(trace[-STEADY_WINDOW:]))
            for name, trace in rec.sinr_db.items()}


@pytest.fixture(scope="module")
def drift_db(scenario):
    """Engine -> |change of steady-state SINR| per seed, in dB."""
    simulate = harness.simulate_trial_data

    def perturbed(*args):
        ctx, p_des = simulate(*args)
        return dataclasses.replace(
            ctx, observations=ctx.observations * PERTURBATION), p_des

    drift = {}
    for seed in SEEDS:
        cfg = scenario("coherent_m12_snapshots", master_seed=seed)
        base = _steady_sinr(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "simulate_trial_data", perturbed)
            moved = _steady_sinr(cfg)
        for name in base:
            drift.setdefault(name, []).append(abs(moved[name] - base[name]))
    return drift


def _cg_sensitive(name, measured, cause):
    return pytest.param(name, marks=pytest.mark.xfail(
        strict=True,
        reason=f"{name} amplifies a one-ulp input change: {measured}.  {cause}"))


@pytest.mark.parametrize("name", [
    "okspme", "okspme-sg", "smi", "loaded-smi", "optimal",
    _cg_sensitive(
        "okspme-ccg", "7e-7 to 7.5e-2 dB over seeds 1-8",
        "Cause: the warm start ccg_inner(quad, a, self.w, ...), which carries the "
        "weights into the next snapshot's inner loop.  On trial 0 of seeds 1-16, 15 "
        "seeds drift above 1e-6 dB (at most 0.075 dB) with it, and every seed drifts "
        "at most 3e-7 dB with the inner loop started from a_hat."),
    _cg_sensitive(
        "okspme-mcg", "5.9 dB on seed 2, 7.3 dB on seed 8, 4.6e-3 dB on seed 7 and at "
        "most 1e-8 dB on the other seeds",
        "Cause: no single branch.  The relative weight difference grows steadily from "
        "snapshot 1, by 0.012 to 0.17 decades per snapshot over seeds 1-16 (0.046 to "
        "0.17 on the 7 seeds that drift above 1e-6 dB), until it is O(1)."),
])
def test_steady_sinr_insensitive_to_last_bit(drift_db, name):
    drift = drift_db[name]
    for seed, d in zip(SEEDS, drift):
        print(f"[sensitivity] {name} seed {seed}: |delta SINR| = {d:.3g} dB")
    assert all(d <= TOL_DB for d in drift), drift
