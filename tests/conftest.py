"""Shared fixtures: the Monte Carlo runs the acceptance criteria score.

The heavy experiments are session-scoped and reused across criteria (the
mismatch-robustness run also serves the variant-parity and large-array
comparisons).
"""

import pytest

from rabsim.config import config_from_dict
from rabsim.harness import run_experiment

FULL_ROSTER = ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg",
               "smi", "loaded-smi", "optimal"]


def _mismatch_doc(sensors, kind="coherent", **overrides):
    doc = {
        "sensors": sensors,
        "desired_doa_deg": 10.0,
        "interferer_doas_deg": [30.0, 50.0],
        "snr_db": 10.0,
        "sir_db": 0.0,
        "scattering": {"kind": kind, "num_paths": 4, "angle_std_deg": 2.0},
        "sector_halfwidth_deg": 5.0,
        "snapshots": 300,
        "trials": 100,
        "master_seed": 42,
        "algorithms": list(FULL_ROSTER),
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="session")
def mismatch_run():
    """Criterion 9/10 scenario: M=12, K=3, SNR 10 dB, coherent scattering."""
    return run_experiment(config_from_dict(_mismatch_doc(12)))


@pytest.fixture(scope="session")
def nomismatch_run():
    """Criterion 8 scenario: M=10, K=1, SNR 0 dB, no scattering."""
    doc = _mismatch_doc(10, kind="none", snr_db=0.0)
    doc["interferer_doas_deg"] = []
    doc["scattering"] = {"kind": "none"}
    doc["algorithms"] = ["okspme", "smi", "optimal"]
    return run_experiment(config_from_dict(doc))


@pytest.fixture(scope="session")
def tracking_run():
    """Criterion 11 scenario: interferer redistribution at snapshot 151."""
    doc = _mismatch_doc(12)
    doc["interferer_schedule"] = [{
        "start_snapshot": 151,
        "interferer_doas_deg": [20.0, 30.0, 40.0, 50.0, 60.0],
    }]
    doc["algorithms"] = ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg"]
    return run_experiment(config_from_dict(doc))


@pytest.fixture(scope="session")
def m40_coherent_run():
    return run_experiment(config_from_dict(_mismatch_doc(40)))


@pytest.fixture(scope="session")
def m40_incoherent_run():
    return run_experiment(config_from_dict(_mismatch_doc(40, kind="incoherent")))
