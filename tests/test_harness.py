import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabsim
import rabsim.okspme
from rabsim import harness, kernels
from rabsim.arrays import make_steering
from rabsim.config import (AlgorithmSpec, ScenarioConfig, config_from_dict,
                           load_config)
from rabsim.errors import ConfigError, ExperimentError, NumericError
from rabsim.harness import (ALGORITHMS, run_experiment, run_trial,
                            simulate_trial_data, write_csv)


def _base_doc(**overrides):
    doc = {
        "sensors": 6,
        "desired_doa_deg": 10.0,
        "interferer_doas_deg": [30.0],
        "snr_db": 10.0,
        "snapshots": 20,
        "trials": 3,
        "master_seed": 11,
        "algorithms": ["okspme", "smi"],
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------- config

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(snr="oops"))


def test_unknown_scattering_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(scattering={"kind": "coherent", "paths": 4}))


# Parameters of the wrong JSON type, each rejected when the file is loaded.
MISTYPED_PARAMETERS = [
    {"name": "okspme", "lam": "abc"},
    {"name": "okspme-sg", "mu_scale": "x"},
    {"name": "loaded-smi", "loading_scale": "x"},
    {"name": "okspme-ccg", "n_inner": "5"},
    {"name": "okspme-ccg", "n_inner": 2.5},
    {"name": "okspme", "delta": True},
]


def test_unknown_algorithm_and_parameter_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(algorithms=["music"]))
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(algorithms=[{"name": "okspme", "mu": 1}]))
    for entry in MISTYPED_PARAMETERS + [
            {"name": "okspme-ccg", "n_inner": True},
            {"name": "okspme-mcg", "eta_a": False},
            {"name": "okspme", "delta0": "0.1"}]:
        param = next(key for key in entry if key != "name")
        with pytest.raises(ConfigError, match=param):
            config_from_dict(_base_doc(algorithms=[entry]))
    # numbers of either JSON kind are accepted for float parameters
    config_from_dict(_base_doc(algorithms=[{"name": "okspme", "lam": 1},
                                           {"name": "smi", "delta0": 0.5}]))


def test_mistyped_parameters_exit_2_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    for i, entry in enumerate(MISTYPED_PARAMETERS):
        config = tmp_path / f"bad{i}.json"
        config.write_text(json.dumps(_base_doc(algorithms=[entry])), encoding="utf-8")
        res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                              "--config", str(config), "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2, (entry, res.stderr)
        assert "Traceback" not in res.stderr and "error:" in res.stderr


def test_schedule_validation():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 25, "interferer_doas_deg": [20.0]}]))
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 10, "interferer_doas_deg": [20.0]},
            {"start_snapshot": 10, "interferer_doas_deg": [25.0]}]))
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 5, "doas": [20.0]}]))


def test_empty_sweep_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(snr_db=[]))


def test_duplicate_algorithm_names_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_base_doc(algorithms=["okspme", "okspme"]))


def test_power_resolution():
    cfg = config_from_dict(_base_doc(snr_db=10.0, sir_db=0.0, noise_power=0.1))
    assert abs(cfg.desired_power(10.0) - 1.0) < 1e-12  # per-element SNR 10 dB
    assert abs(cfg.interferer_power(10.0) - 1.0) < 1e-12
    cfg_inr = config_from_dict(_base_doc(inr_db=20.0, noise_power=0.1))
    assert abs(cfg_inr.interferer_power(10.0) - 10.0) < 1e-12


def test_segments_and_source_flags():
    cfg = config_from_dict(_base_doc(interferer_schedule=[
        {"start_snapshot": 11, "interferer_doas_deg": [20.0, 40.0, 60.0]}]))
    segs = cfg.segments(10.0)
    assert [s[0] for s in segs] == [0, 10]
    first_sources = segs[0][1]
    assert sum(s.is_desired for s in first_sources) == 1
    assert len(segs[1][1]) == 4
    assert cfg.num_sources == 2  # one desired + one initial interferer


def test_load_config_round_trip(tmp_path):
    import json
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_base_doc()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.sensors == 6
    assert [a.name for a in cfg.algorithms] == ["okspme", "smi"]


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------- trials

def test_trial_determinism():
    cfg = config_from_dict(_base_doc())
    r1 = run_trial(cfg, 0)
    r2 = run_trial(cfg, 0)
    for name in ("okspme", "smi"):
        assert np.array_equal(r1.sinr_db[name], r2.sinr_db[name])
        assert np.array_equal(r1.steering_mse[name], r2.steering_mse[name])


def test_trials_are_prefix_stable():
    cfg3 = config_from_dict(_base_doc(trials=3))
    cfg5 = config_from_dict(_base_doc(trials=5))
    for t in range(3):
        a = run_trial(cfg3, t)
        b = run_trial(cfg5, t)
        assert np.array_equal(a.sinr_db["okspme"], b.sinr_db["okspme"])


def test_same_stream_for_every_algorithm():
    # adding algorithms to the roster must not change the data another
    # algorithm observes
    one = config_from_dict(_base_doc(algorithms=["okspme"]))
    many = config_from_dict(_base_doc(
        algorithms=["smi", "loaded-smi", "okspme", "optimal"]))
    a = run_trial(one, 1)
    b = run_trial(many, 1)
    assert np.array_equal(a.sinr_db["okspme"], b.sinr_db["okspme"])


def test_interference_dimension_changes_at_schedule_point():
    cfg = config_from_dict(_base_doc(
        sensors=12, snapshots=30, interferer_doas_deg=[30.0, 50.0],
        interferer_schedule=[{"start_snapshot": 16,
                              "interferer_doas_deg": [20.0, 30.0, 40.0, 50.0, 60.0]}]))
    ctx, _ = simulate_trial_data(cfg, 0, 0)

    def interference_rank(r):
        eigs = np.linalg.eigvalsh(r)
        return int(np.sum(eigs > 1.5 * cfg.noise_power))

    (start0, end0, r0), (start1, end1, r1) = ctx.segments
    assert (start0, end0, start1, end1) == (0, 15, 15, 30)
    assert interference_rank(r0) == 2
    assert interference_rank(r1) == 5


@pytest.mark.parametrize("schedule", [
    [], [{"start_snapshot": 8, "interferer_doas_deg": [20.0, 40.0]}],
    [{"start_snapshot": 2, "interferer_doas_deg": [20.0]},
     {"start_snapshot": 20, "interferer_doas_deg": [40.0]}],
], ids=["fixed", "switch", "one-snapshot-ends"])
@pytest.mark.parametrize("kind", ["none", "coherent", "incoherent"])
def test_trial_truth_is_m_by_n_and_segments_tile_the_trial(kind, schedule):
    cfg = config_from_dict(_base_doc(scattering={"kind": kind},
                                     interferer_schedule=schedule))
    ctx, _ = simulate_trial_data(cfg, 0, 0)
    m, n = cfg.sensors, cfg.snapshots
    truth = ctx.truth
    assert ctx.observations.shape == truth.shape == (m, n)
    assert truth.flags.c_contiguous
    assert np.array_equal(truth, truth[:, :1].repeat(n, axis=1)) == (kind != "incoherent")
    bounds = [(start, end) for start, end, _ in ctx.segments]
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(start < end for start, end in bounds)
    assert all(end == start for (_, end), (start, _) in zip(bounds, bounds[1:]))


def test_single_snapshot_trace():
    cfg = config_from_dict(_base_doc(snapshots=1, algorithms=["smi"]))
    rec = run_trial(cfg, 0)
    assert rec.sinr_db["smi"].shape == (1,)


def test_incoherent_scenario_runs():
    cfg = config_from_dict(_base_doc(
        scattering={"kind": "incoherent"}, snapshots=15))
    rec = run_trial(cfg, 0)
    assert np.isfinite(rec.sinr_db["okspme"]).all()


def test_optimal_algorithm_tracks_truth():
    cfg = config_from_dict(_base_doc(algorithms=["optimal"],
                                     scattering={"kind": "coherent"}))
    rec = run_trial(cfg, 0)
    assert np.allclose(rec.steering_mse["optimal"], 0.0)


def _same_record(a, b, name):
    return (a.failed[name] == b.failed[name]
            and a.sinr_db[name].tobytes() == b.sinr_db[name].tobytes()
            and a.steering_mse[name].tobytes() == b.steering_mse[name].tobytes())


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_registry_defaults_written_out_change_nothing(name):
    explicit = {"name": name, **ALGORITHMS[name].resolve({})}
    docs = [_base_doc(algorithms=[name], scattering={"kind": "coherent"}),
            _base_doc(algorithms=[explicit], scattering={"kind": "coherent"})]
    bare, spelled = (run_trial(config_from_dict(json.loads(json.dumps(d))), 0)
                     for d in docs)
    assert _same_record(bare, spelled, name)


# One alternative value per parameter name, for every registry parameter.
ALTERNATIVES = {"delta": 0.5, "delta0": 0.5, "lam": 0.99, "mu_scale": 0.02,
                "n_inner": 2, "eta_a": 0.3, "loading_scale": 1.0}


@pytest.mark.parametrize("name, param, value", [
    (name, param, ALTERNATIVES[param])
    for name, entry in ALGORITHMS.items() for param in entry.params])
def test_engine_parameter_changes_only_its_algorithm(name, param, value):
    assert value != ALGORITHMS[name].resolve({})[param]
    roster = list(ALGORITHMS)
    base = run_trial(config_from_dict(_base_doc(algorithms=roster)), 0)
    roster[roster.index(name)] = {"name": name, param: value}
    changed = run_trial(config_from_dict(_base_doc(algorithms=roster)), 0)
    for other in ALGORITHMS:
        assert _same_record(base, changed, other) == (other != name), other


def test_readme_parameter_table_lists_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| parameter | type | default | algorithms |")[1]
    rows = rows.split("\n\n")[0].strip().splitlines()[1:]
    documented = {name for row in rows
                  for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert documented == {param for entry in ALGORITHMS.values()
                          for param in entry.params}


# ------------------------------------------------------------- aggregates

def test_single_trial_aggregate_is_the_trial():
    cfg = config_from_dict(_base_doc(trials=1))
    agg = run_experiment(cfg)
    rec = run_trial(cfg, 0)
    assert np.allclose(agg.mean_sinr_db["okspme"], rec.sinr_db["okspme"])
    assert agg.x_kind == "snapshot"
    assert agg.x_values == list(range(1, 21))


def test_sweep_has_one_point_per_snr():
    cfg = config_from_dict(_base_doc(
        snr_db=[-10, -5, 0, 5, 10, 15, 20, 25, 30], trials=2, snapshots=10,
        algorithms=["smi"]))
    agg = run_experiment(cfg)
    assert agg.x_kind == "snr_db"
    assert len(agg.x_values) == 9
    assert agg.mean_sinr_db["smi"].shape == (9,)


def test_experiment_error_when_everything_fails(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("forced failure")

    monkeypatch.setattr(rabsim.okspme.OkspmeBeamformer, "process", boom)
    cfg = config_from_dict(_base_doc(trials=2, algorithms=["okspme"]))
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_parallel_equals_serial():
    cfg = config_from_dict(_base_doc(trials=4))
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    for name in ("okspme", "smi"):
        assert np.array_equal(serial.mean_sinr_db[name],
                              parallel.mean_sinr_db[name])


def test_pool_asks_for_at_most_one_worker_per_trial(monkeypatch):
    # A fork pool starts every worker it is asked for, once per SNR point;
    # this stand-in records the count and runs the trials in this process.
    requested = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = config_from_dict(_base_doc(trials=3, snr_db=[0.0, 10.0]))
    pooled = run_experiment(cfg, workers=64)
    assert requested == [3, 3]
    serial = run_experiment(cfg, workers=1)
    assert requested == [3, 3]
    for name in ("okspme", "smi"):
        assert np.array_equal(serial.mean_sinr_db[name], pooled.mean_sinr_db[name])


# ------------------------------------------------------------------- CSV

@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_runs_trials_on_one_blas_thread(monkeypatch, workers):
    before = kernels.blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded")
    trial, collect = harness.run_trial, harness._collect_trials
    seen = []

    def reporting_trial(*args):
        record = trial(*args)
        record.blas_threads = kernels.blas_threads()
        return record

    def collecting(*args):
        records = collect(*args)
        seen.extend(r.blas_threads for r in records)
        return records

    monkeypatch.setattr(harness, "run_trial", reporting_trial)
    monkeypatch.setattr(harness, "_collect_trials", collecting)
    # two threads each, so the restored counts differ from the pinned ones
    kernels.set_blas_threads([2] * len(before))
    try:
        run_experiment(config_from_dict(_base_doc(trials=2)), workers=workers)
        after = kernels.blas_threads()
    finally:
        kernels.set_blas_threads(before)
    assert seen == [[1] * len(before)] * 2
    assert after == [2] * len(before)


def test_csv_header_only_for_empty_roster(tmp_path):
    # A scenario file must name an algorithm; the Python API may still pass none.
    cfg = dataclasses.replace(config_from_dict(_base_doc(trials=1, snapshots=3)),
                              algorithms=[])
    agg = run_experiment(cfg)
    path = tmp_path / "empty.csv"
    write_csv(agg, path)
    assert path.read_text(encoding="utf-8") == \
        "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials\n"


def test_csv_row_count_and_round_trip(tmp_path):
    cfg = config_from_dict(_base_doc(trials=2, snapshots=300,
                                     algorithms=["smi", "loaded-smi"]))
    agg = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_csv(agg, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 2 * 300
    # parse back and compare exactly
    for line in lines[1:]:
        name, kind, x, sinr, mse, trials = line.split(",")
        i = int(x) - 1
        assert kind == "snapshot"
        assert float(sinr) == agg.mean_sinr_db[name][i]
        assert float(mse) == agg.mean_steering_mse[name][i]
        assert int(trials) == 2


def test_csv_bytes_are_deterministic(tmp_path):
    cfg = config_from_dict(_base_doc(trials=2))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(cfg), p1)
    write_csv(run_experiment(cfg, workers=2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_io_error():
    cfg = config_from_dict(_base_doc(trials=1, snapshots=2, algorithms=["smi"]))
    agg = run_experiment(cfg)
    with pytest.raises(OSError):
        write_csv(agg, "/nonexistent-dir/nope.csv")
