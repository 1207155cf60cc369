"""Shared fixtures: the Monte Carlo runs the acceptance criteria score.

The heavy experiments are session-scoped and reused across criteria (the
mismatch-robustness run also serves the variant-parity and large-array
comparisons, and is seed 42 of criterion 10a's seed ensemble).  A verdict
reads its paired Monte Carlo error from the per-trial rows of the same run.
"""

import pytest

from rabsim import adaptive
from rabsim.config import config_from_dict
from rabsim.harness import run_experiment

# Aggregates are bit-identical for any worker count, so every fixture runs two
# pool workers to cut the wall time.  Each worker keeps its BLAS on one thread,
# so at M = 40 too the two workers share the cores instead of oversubscribing.
WORKERS = 2

FULL_ROSTER = ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg",
               "smi", "loaded-smi", "optimal"]

# Criterion 10a's seed ensemble, fixed before any gap is looked at: the
# scenario seed 42 plus seeds 43-45.  One seed's gap swings by about 1 dB
# around the 2 dB bound, so seed 42 alone decided the verdict by its luck.
CCG_PARITY_SEEDS = (42, 43, 44, 45)


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
    return run_experiment(config_from_dict(_mismatch_doc(12)), workers=WORKERS)


@pytest.fixture(scope="session")
def ccg_parity_runs(mismatch_run):
    """Criterion 10a: seed -> the criterion 9/10 scenario's aggregate at each
    seed of ``CCG_PARITY_SEEDS``.  Seed 42 is ``mismatch_run`` itself; the
    other seeds run only the direct method and CCG."""
    return {seed: mismatch_run if seed == 42 else run_experiment(config_from_dict(
                _mismatch_doc(12, master_seed=seed, algorithms=["okspme", "okspme-ccg"])),
                workers=WORKERS)
            for seed in CCG_PARITY_SEEDS}


@pytest.fixture
def ccg_refined(monkeypatch):
    """The refined steering vector ``a`` of each iterate ``adaptive.ccg_inner``
    returns, in call order: the vector CCG's weights answer with unit gain."""
    inner, refined = adaptive.ccg_inner, []

    def capture(*args):
        it = inner(*args)
        refined.append(it.a)
        return it

    monkeypatch.setattr(adaptive, "ccg_inner", capture)
    return refined


@pytest.fixture(scope="session")
def nomismatch_run():
    """Criterion 8 scenario: M=10, K=1, SNR 0 dB, no scattering."""
    doc = _mismatch_doc(10, kind="none", snr_db=0.0)
    doc["interferer_doas_deg"] = []
    doc["scattering"] = {"kind": "none"}
    doc["algorithms"] = ["okspme", "smi", "optimal"]
    return run_experiment(config_from_dict(doc), workers=WORKERS)


@pytest.fixture(scope="session")
def tracking_run():
    """Criterion 11 scenario: interferer redistribution at snapshot 151."""
    doc = _mismatch_doc(12)
    doc["interferer_schedule"] = [{
        "start_snapshot": 151,
        "interferer_doas_deg": [20.0, 30.0, 40.0, 50.0, 60.0],
    }]
    doc["algorithms"] = ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg"]
    return run_experiment(config_from_dict(doc), workers=WORKERS)


@pytest.fixture(scope="session")
def m40_coherent_run():
    return run_experiment(config_from_dict(_mismatch_doc(40)), workers=WORKERS)


@pytest.fixture(scope="session")
def m40_incoherent_run():
    return run_experiment(config_from_dict(_mismatch_doc(40, kind="incoherent")),
                          workers=WORKERS)
