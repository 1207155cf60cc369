import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabsim
from rabsim import adaptive, analysis, harness, kernels, okspme
from rabsim.arrays import make_steering
from rabsim.config import config_from_dict, load_config
from rabsim.errors import NumericError, ParameterError
from rabsim.harness import run_experiment, run_trial, simulate_trial_data, write_csv
from rabsim.tracking import CovarianceTracker


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
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(snr="oops"))


def test_unknown_scattering_key_rejected():
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(scattering={"kind": "coherent", "paths": 4}))


# Object entries carrying an engine value, once of the wrong JSON type.  A
# roster entry is a name, so each is rejected when the file is loaded.
MISTYPED_PARAMETERS = [
    {"name": "okspme", "lam": "abc"},
    {"name": "okspme-sg", "mu_scale": "x"},
    {"name": "loaded-smi", "loading_scale": "x"},
    {"name": "okspme-ccg", "n_inner": "5"},
    {"name": "okspme-ccg", "n_inner": 2.5},
    {"name": "okspme", "delta": True},
]


def test_unknown_algorithm_and_parameter_rejected():
    with pytest.raises(ParameterError, match="unknown algorithm"):
        config_from_dict(_base_doc(algorithms=["music"]))
    # objects, well typed or not, and entries of any other JSON type
    for entry in MISTYPED_PARAMETERS + [
            {"name": "okspme"}, {"name": "okspme", "mu": 1},
            {"name": "okspme", "lam": 1}, {"name": "smi", "delta0": 0.5},
            {"lam": 0.99}, 1, None, True, ["okspme"]]:
        with pytest.raises(ParameterError, match="must be names"):
            config_from_dict(_base_doc(algorithms=["smi", entry]))


def test_mistyped_parameters_exit_2_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    for i, entry in enumerate(MISTYPED_PARAMETERS):
        config = tmp_path / f"bad{i}.json"
        config.write_text(json.dumps(_base_doc(algorithms=[entry])), encoding="utf-8")
        res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                              "--config", str(config), "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2, (entry, res.stderr)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (entry, res.stderr)
        assert not (tmp_path / "x.csv").exists()


def test_schedule_validation():
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 25, "interferer_doas_deg": [20.0]}]))
    # snapshot 1 would leave the first segment empty
    with pytest.raises(ParameterError, match=r"\[2, snapshots\]"):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 1, "interferer_doas_deg": [20.0]}]))
    for start in (2, 20):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": start, "interferer_doas_deg": [20.0]}]))
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 10, "interferer_doas_deg": [20.0]},
            {"start_snapshot": 10, "interferer_doas_deg": [25.0]}]))
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(interferer_schedule=[
            {"start_snapshot": 5, "doas": [20.0]}]))


def test_empty_sweep_rejected():
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(snr_db=[]))


def test_duplicate_algorithm_names_rejected():
    with pytest.raises(ParameterError):
        config_from_dict(_base_doc(algorithms=["okspme", "okspme"]))


def test_power_resolution():
    # powers in units of the noise power
    cfg = config_from_dict(_base_doc(snr_db=10.0, sir_db=0.0))
    assert abs(cfg.desired_power(10.0) - 10.0) < 1e-12  # per-element SNR 10 dB
    assert abs(cfg.interferer_power(10.0) - 10.0) < 1e-12
    cfg_inr = config_from_dict(_base_doc(inr_db=20.0))
    assert abs(cfg_inr.interferer_power(10.0) - 100.0) < 1e-12


def test_segments_tile_the_snapshots():
    cfg = config_from_dict(_base_doc(snapshots=20))
    assert cfg.segments() == [(0, 20, (30.0,))]
    cfg = config_from_dict(_base_doc(snapshots=20, interferer_schedule=[
        {"start_snapshot": 11, "interferer_doas_deg": [20.0, 40.0, 60.0]},
        {"start_snapshot": 15, "interferer_doas_deg": []}]))
    # 1-based change-points 11 and 15 start the 0-based spans at 10 and 14
    assert cfg.segments() == [(0, 10, (30.0,)), (10, 14, (20.0, 40.0, 60.0)), (14, 20, ())]
    assert cfg.num_sources == 2  # one desired + one initial interferer


def test_load_config_round_trip(tmp_path):
    import json
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_base_doc()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.sensors == 6
    assert cfg.algorithms == ["okspme", "smi"]


SCENARIO_FILES = sorted(
    (Path(__file__).parents[1] / "scripts" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_bundled_scenario_loads(path):
    # perfbench and scripts/csv_digest.py run these files
    roster = json.loads(path.read_text(encoding="utf-8"))["algorithms"]
    assert all(isinstance(entry, str) for entry in roster), roster
    assert load_config(path).algorithms == roster


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParameterError):
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
        return int(np.sum(eigs > 1.5))

    (start0, end0, r0), (start1, end1, r1) = ctx.segments
    assert (start0, end0, start1, end1) == (0, 15, 15, 30)
    assert interference_rank(r0) == 2
    assert interference_rank(r1) == 5
    # each segment's INC is I + sum_k p_int a_k a_k^H (unit noise), term by
    # term in DoA order
    p_int = cfg.interferer_power(cfg.snr_db)
    doas_per_segment = ([30.0, 50.0], [20.0, 30.0, 40.0, 50.0, 60.0])
    for (_, _, r_in), doas in zip(ctx.segments, doas_per_segment):
        want = np.eye(cfg.sensors, dtype=complex)
        for d in doas:
            a = make_steering(cfg.sensors, d)
            want += p_int * np.outer(a, a.conj())
        assert np.array_equal(r_in, want)


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


def test_failed_optimum_leaves_the_other_engines_alone(monkeypatch):
    # the optimum factors each true INC matrix through kernels.cholesky; a
    # LinAlgError there fails the optimum's trial and no other engine's
    cfg = config_from_dict(_base_doc(
        algorithms=["okspme", "optimal", "smi"], scattering={"kind": "incoherent"},
        interferer_schedule=[{"start_snapshot": 11, "interferer_doas_deg": [-20.0]}]))
    clean = run_trial(cfg, 1)

    def indefinite(a):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(kernels, "cholesky", indefinite)
    rec = run_trial(cfg, 1)
    assert rec.failed == {"okspme": False, "optimal": True, "smi": False}
    assert np.isnan(rec.sinr_db["optimal"]).all()
    for name in ("okspme", "smi"):
        assert np.array_equal(rec.sinr_db[name], clean.sinr_db[name])
        assert np.array_equal(rec.steering_mse[name], clean.steering_mse[name])


def test_optimal_algorithm_tracks_truth():
    cfg = config_from_dict(_base_doc(algorithms=["optimal"],
                                     scattering={"kind": "coherent"}))
    rec = run_trial(cfg, 0)
    assert np.allclose(rec.steering_mse["optimal"], 0.0)


@pytest.mark.parametrize("name", ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg"])
def test_okspme_engines_share_the_estimator_shell(name):
    # every OKSPME engine is a SteeringEstimator with its own weight step
    cfg = config_from_dict(_base_doc(snapshots=10, algorithms=[name]))
    ctx, _ = simulate_trial_data(cfg, 0, 0)
    bf = harness.ALGORITHMS[name](ctx)
    assert isinstance(bf, okspme.SteeringEstimator)
    assert bf.constraint_steering is bf.a_hat
    assert np.array_equal(bf.w, np.ones(cfg.sensors))
    for i in range(cfg.snapshots):
        bf.process(ctx.observations[:, i])
        # the direct and SG weights answer the updated estimate itself
        if name in ("okspme", "okspme-sg"):
            assert bf.constraint_steering is bf.a_hat


@pytest.mark.parametrize("name, delta0, loading", [
    ("smi", harness.SMI_DELTA0, 0.0),
    ("loaded-smi", 0.0, harness.LOADING_SCALE),
])
def test_smi_runners_solve_the_loaded_sample_covariance(name, delta0, loading):
    # bit for bit smi_weights(R_hat + loading I, a_nominal) at every snapshot
    cfg = config_from_dict(_base_doc(algorithms=[name]))
    ctx, _ = simulate_trial_data(cfg, 0, 0)
    bf = harness.ALGORITHMS[name](ctx)
    tracker = CovarianceTracker(cfg.sensors, delta0=delta0)
    for i in range(cfg.snapshots):
        x = ctx.observations[:, i]
        tracker.update_covariance(x)
        expect = analysis.smi_weights(
            tracker.covariance() + loading * np.eye(cfg.sensors), ctx.a_nominal)
        assert bf.process(x).tobytes() == expect.tobytes(), i


# The engine values the README's table documents, in the modules that fix them.
FIXED_VALUES = {"okspme.DELTA": okspme.DELTA, "okspme.DELTA0": okspme.DELTA0,
                "okspme.SteeringEstimator.lam": okspme.SteeringEstimator.lam,
                "adaptive.CcgBeamformer.lam": adaptive.CcgBeamformer.lam,
                "adaptive.McgBeamformer.lam": adaptive.McgBeamformer.lam,
                "adaptive.MU_SCALE": adaptive.MU_SCALE,
                "adaptive.CcgBeamformer.n_inner": adaptive.CcgBeamformer.n_inner,
                "adaptive.ETA_A": adaptive.ETA_A,
                "harness.SMI_DELTA0": harness.SMI_DELTA0,
                "harness.LOADING_SCALE": harness.LOADING_SCALE}


def test_readme_parameter_table_lists_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| constant | value | meaning |")[1]
    rows = rows.split("\n\n")[0].strip().splitlines()[1:]
    documented = {}
    for row in rows:
        name, value = row.split("|")[1:3]
        documented[name.strip().strip("`")] = float(value)
    assert documented == FIXED_VALUES


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

    monkeypatch.setattr(okspme.OkspmeBeamformer, "process", boom)
    cfg = config_from_dict(_base_doc(trials=2, algorithms=["okspme"]))
    with pytest.raises(NumericError, match="all trials failed"):
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
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-process thread list to count")
    trial, collect = harness.run_trial, harness._collect_trials
    seen, os_threads = [], []

    def reporting_trial(*args):
        record = trial(*args)
        record.blas_threads = kernels.blas_threads()
        record.os_threads = len(os.listdir("/proc/self/task"))
        return record

    def collecting(*args):
        records = collect(*args)
        seen.extend(r.blas_threads for r in records)
        os_threads.extend(r.os_threads for r in records)
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
    if workers > 1:
        # A forked worker inherits the one-thread pin and starts no BLAS
        # thread server: its trials run on its main thread alone.
        assert os_threads == [1] * 2


def test_empty_roster_rejected_by_the_config_itself():
    cfg = config_from_dict(_base_doc())
    with pytest.raises(ParameterError, match="at least one algorithm"):
        dataclasses.replace(cfg, algorithms=[])


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
