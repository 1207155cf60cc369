"""Shared fixtures: the Monte Carlo runs the acceptance criteria score, and
the CPU count the trial pool reads; and the "verdicts" section of the
terminal summary.

Each run is a bundled scenario file under ``scripts/scenarios`` at master
seed 42, with the keys a criterion changes overridden, so an experiment is
defined once, in the file rabsim itself runs.  The heavy experiments are
session-scoped and reused across criteria.  The mismatch-robustness run also
serves the variant-parity and large-array comparisons.  It is seed 42 of the
M=12 seed ensemble (criteria 10a and 12), and the M=40 coherent run is seed
42 of the M=40 one (criterion 12).  Each verdict is scored once, from the
per-trial rows of these runs, with its paired Monte Carlo error.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from rabsim import adaptive, harness
from rabsim.config import config_from_dict
from rabsim.harness import run_experiment

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

# Aggregates are bit-identical for any worker count, so every fixture runs two
# pool workers to cut the wall time.  Each worker keeps its BLAS on one thread,
# so at M = 40 too the two workers share the cores instead of oversubscribing.
WORKERS = 2

# The seed ensemble of criterion 10a and of criterion 12's okspme clause, fixed
# before any gap is looked at: the scenario seed 42 plus seeds 43-45.  One
# seed's 10a gap swings by about 1 dB around the 2 dB bound, and one seed's
# okspme widening sits within one SE of 0, so seed 42 alone decided each
# verdict by its luck.
ENSEMBLE_SEEDS = (42, 43, 44, 45)


# Stdout lines the terminal summary's "verdicts" section collects.
VERDICT_PREFIXES = ("[criterion ", "[sensitivity]")


def pytest_terminal_summary(terminalreporter):
    """Print every verdict line the tests wrote to their captured stdout, in
    one section, whatever the outcome: a strict xfail's reading shows too,
    where ``-rP`` prints passing tests' output only.  Each line leads with
    its test's outcome."""
    lines = [f"{outcome:8} {line}"
             for outcome in ("passed", "failed", "xfailed", "xpassed")
             for report in terminalreporter.stats.get(outcome, [])
             if report.when == "call"
             for line in report.capstdout.splitlines()
             if line.startswith(VERDICT_PREFIXES)]
    if lines:
        terminalreporter.write_sep("=", "verdicts")
        for line in lines:
            terminalreporter.write_line(line)


def load_scenario(name, **overrides):
    """The bundled scenario ``scripts/scenarios/<name>.json``, the file
    ``rabsim simulate``, perfbench and ``scripts/csv_digest.py`` run, with
    ``overrides`` replacing its top-level keys."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    return config_from_dict({**doc, **overrides})


@pytest.fixture(scope="session")
def scenario():
    """``scenario(name, **overrides)``: :func:`load_scenario`."""
    return load_scenario


@pytest.fixture(scope="session")
def m12_trial():
    """``m12_trial(kind)``: the :class:`harness.TrialContext` of trial 0 of
    the criterion 9/10 scenario (seed 42) with its scattering ``kind``
    replaced."""
    def context(kind):
        cfg = load_scenario("coherent_m12_snapshots", master_seed=42, trials=1)
        cfg = dataclasses.replace(
            cfg, scattering=dataclasses.replace(cfg.scattering, kind=kind))
        return harness.simulate_trial_data(cfg, 0, 0)[0]
    return context


def _run(name, master_seed=42, **overrides):
    return run_experiment(load_scenario(name, master_seed=master_seed, **overrides),
                          workers=WORKERS)


@pytest.fixture(scope="session")
def mismatch_run():
    """Criterion 9/10 scenario: M=12, K=3, SNR 10 dB, coherent scattering."""
    return _run("coherent_m12_snapshots")


def _seed_runs(seed42, name, algorithms):
    """Seed -> the aggregate of scenario ``name`` at each seed of
    ``ENSEMBLE_SEEDS``: ``seed42`` itself for seed 42, and only
    ``algorithms`` at the other seeds."""
    return {seed: seed42 if seed == 42 else _run(name, master_seed=seed,
                                                  algorithms=algorithms)
            for seed in ENSEMBLE_SEEDS}


@pytest.fixture(scope="session")
def m12_seed_runs(mismatch_run):
    """Criteria 10a and 12 (okspme): the criterion 9/10 scenario at each
    ensemble seed, running the direct method, CCG and the optimum."""
    return _seed_runs(mismatch_run, "coherent_m12_snapshots",
                      ["okspme", "okspme-ccg", "optimal"])


@pytest.fixture(scope="session")
def m40_seed_runs(m40_coherent_run):
    """Criterion 12 (okspme): the M=40 coherent scenario at each ensemble
    seed, running the direct method and the optimum."""
    return _seed_runs(m40_coherent_run, "coherent_m40_snapshots", ["okspme", "optimal"])


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes the trial pool's cap read ``count`` CPUs this
    process may run on, so a worker count above one starts a real pool on a
    1-CPU runner too."""
    def set_count(count):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return set_count


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
    return _run("coherent_m12_snapshots", sensors=10, interferer_doas_deg=[],
                snr_db=0.0, scattering={"kind": "none"},
                algorithms=["okspme", "smi", "optimal"])


@pytest.fixture(scope="session")
def tracking_run():
    """Criterion 11 scenario: interferer redistribution at snapshot 151."""
    return _run("interferer_switch_m12",
                algorithms=["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg"])


@pytest.fixture(scope="session")
def m40_coherent_run():
    return _run("coherent_m40_snapshots")


@pytest.fixture(scope="session")
def m40_incoherent_run():
    """The M=40 incoherent sweep's scenario at its SNR of 10 dB."""
    return _run("incoherent_m40_snr_sweep", snr_db=10.0)
