import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from rabsim import adaptive, analysis, harness, kernels, okspme
from rabsim.arrays import ScatteringSpec, make_steering
from rabsim.config import ScenarioConfig, ScheduleChange, config_from_dict, load_config
from rabsim.errors import NumericError
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


SCENARIO_FILES = sorted(
    (Path(__file__).parents[1] / "scripts" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_bundled_scenario_loads(path):
    # perfbench and scripts/csv_digest.py run these files
    roster = json.loads(path.read_text(encoding="utf-8"))["algorithms"]
    assert all(isinstance(entry, str) for entry in roster), roster
    assert load_config(path).algorithms == roster


# ---------------------------------------------------------------- trials

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
    assert np.array_equal(bf.w, np.ones(cfg.sensors))


@pytest.mark.parametrize("name, delta0, loading", [
    ("smi", harness.SMI_DELTA0, 0.0),
    ("loaded-smi", 0.0, harness.LOADING_SCALE),
])
def test_smi_runners_solve_the_loaded_sample_covariance(name, delta0, loading):
    # bit for bit smi_weights(R_hat + loading I, a_nominal) at every snapshot;
    # smi's zero loading moves no bit of smi_weights(R_hat, a_nominal)
    cfg = config_from_dict(_base_doc(algorithms=[name]))
    ctx, _ = simulate_trial_data(cfg, 0, 0)
    bf = harness.ALGORITHMS[name](ctx)
    tracker = CovarianceTracker(cfg.sensors, delta0=delta0)
    for i in range(cfg.snapshots):
        x = ctx.observations[:, i]
        tracker.update_covariance(x)
        r_hat = tracker.covariance()
        if loading:
            r_hat = r_hat + loading * np.eye(cfg.sensors)
        expect = analysis.smi_weights(r_hat, ctx.a_nominal)
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


def _readme_section(title):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n")[1].split("\n## ")[0]


def _field_defaults(cls, prefix=""):
    """``prefix + name`` -> default of each field of dataclass ``cls``
    ("required" for a field without one)."""
    defaults = {}
    for f in dataclasses.fields(cls):
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        defaults[prefix + f.name] = "required" if default is dataclasses.MISSING else default
    return defaults


def test_readme_scenario_table_lists_every_field():
    rows = _readme_section("Scenario files").split("| key | JSON type | default |")[1]
    rows = rows.split("\n\n")[0].strip().splitlines()[1:]
    documented = {}
    for row in rows:
        key, _, default = (cell.strip() for cell in row.split("|")[1:4])
        documented[key.strip("`")] = default.strip("`")
    expected = {**_field_defaults(ScenarioConfig),
                **_field_defaults(ScatteringSpec, "scattering."),
                **_field_defaults(ScheduleChange, "interferer_schedule[].")}
    assert documented.keys() == expected.keys()
    # the scattering mean follows the desired DoA
    assert documented.pop("scattering.angle_mean_deg") == "desired_doa_deg"
    cfg = config_from_dict(_base_doc(desired_doa_deg=-3.0, scattering={}))
    assert cfg.scattering.angle_mean_deg == -3.0
    for key, default in documented.items():
        want = expected[key]
        if default == "required":
            assert want == "required", key
        elif dataclasses.is_dataclass(want):
            assert type(want)(**json.loads(default)) == want, key
        else:   # as JSON text, so 10 and 10.0 differ
            assert json.dumps(json.loads(default)) == json.dumps(want), key


def test_readme_scenario_example_loads():
    example = _readme_section("Scenario files").split("```json\n")[1].split("```")[0]
    cfg = config_from_dict(json.loads(example))
    assert set(cfg.algorithms) <= set(harness.ALGORITHMS)


# ------------------------------------------------------------- aggregates

def test_single_trial_aggregate_is_the_trial(tmp_path):
    # The CSV means are np.mean over the trials' records in trial order, to the
    # bit; from 8 trials up NumPy's pairwise sum tells another order apart.
    for doc in (_base_doc(trials=1), _base_doc(trials=9),
                _base_doc(trials=9, snr_db=[0.0, 10.0, 20.0])):
        cfg = config_from_dict(doc)
        agg = run_experiment(cfg)
        assert (agg.x_kind, agg.x_values) == (
            ("snr_db", [0.0, 10.0, 20.0]) if cfg.is_sweep else ("snapshot", list(range(1, 21))))
        write_csv(agg, tmp_path / "out.csv")
        rows = [line.split(",") for line in
                (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[:3] for row in rows] == [[name, agg.x_kind, repr(x)]
                                             for name in sorted(cfg.algorithms)
                                             for x in agg.x_values]
        reduce = ((lambda trace: np.mean(trace[-harness.STEADY_WINDOW:]))
                  if cfg.is_sweep else (lambda trace: trace))
        points = [[run_trial(cfg, t, j) for t in range(cfg.trials)]
                  for j in range(len(cfg.snr_points()))]
        for name in cfg.algorithms:
            for column, field in ((3, "sinr_db"), (4, "steering_mse")):
                want = np.ravel([np.mean([reduce(getattr(r, field)[name]) for r in records],
                                         axis=0) for records in points])
                got = [float(row[column]) for row in rows if row[0] == name]
                assert (np.array(got) == want).all(), (doc, name, field)
        assert {row[5] for row in rows} == {str(cfg.trials)}


def test_sweep_has_one_point_per_snr():
    cfg = config_from_dict(_base_doc(
        snr_db=[-10, -5, 0, 5, 10, 15, 20, 25, 30], trials=2, snapshots=10,
        algorithms=["smi"]))
    agg = run_experiment(cfg)
    assert agg.x_kind == "snr_db"
    assert len(agg.x_values) == 9
    assert agg.sinr_db["smi"].shape == (9, 2)
    assert agg.means("smi")[0].shape == (9,)


def test_experiment_error_when_everything_fails(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("forced failure")

    monkeypatch.setattr(okspme.OkspmeBeamformer, "process", boom)
    cfg = config_from_dict(_base_doc(trials=2, algorithms=["okspme"]))
    with pytest.raises(NumericError, match="all trials failed"):
        run_experiment(cfg)


def test_failed_trials_leave_the_means_and_are_counted(monkeypatch):
    trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda cfg, t, j=0: dataclasses.replace(
        trial(cfg, t, j), failed={"okspme": False, "smi": t == 1}))
    cfg = config_from_dict(_base_doc(trials=3))
    agg = run_experiment(cfg)
    sinr, _, trials = agg.means("smi")
    assert np.array_equal(sinr, np.mean([trial(cfg, t).sinr_db["smi"] for t in (0, 2)], axis=0))
    assert list(trials) == [2] * 20 and agg.failed["smi"].sum() == 1


def test_parallel_equals_serial(cpus):
    cpus(2)  # a real 2-worker pool, on a 1-CPU runner too
    cfg = config_from_dict(_base_doc(trials=4))
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    # the per-trial rows, not only the means the CSV prints
    for rows in ("sinr_db", "steering_mse", "failed"):
        for name in ("okspme", "smi"):
            assert np.array_equal(getattr(serial, rows)[name],
                                  getattr(parallel, rows)[name], equal_nan=True)


def test_pool_asks_for_at_most_one_worker_per_trial(monkeypatch, cpus):
    # A fork pool starts every worker it is asked for, once per SNR point;
    # this stand-in records the count and runs the trials in this process,
    # so no worker process starts.
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
    cpus(8)
    pooled = run_experiment(cfg, workers=64)
    assert requested == [3, 3]
    serial = run_experiment(cfg, workers=1)
    assert requested == [3, 3]
    for name in ("okspme", "smi"):
        assert np.array_equal(serial.sinr_db[name], pooled.sinr_db[name])
    # and no more workers than CPUs
    cpus(2)
    run_experiment(cfg, workers=64)
    assert requested == [3, 3, 2, 2]
    cpus(1)
    run_experiment(cfg, workers=64)
    assert requested == [3, 3, 2, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_runs_trials_on_one_blas_thread(monkeypatch, cpus, workers):
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
    cpus(workers)  # a real pool for workers > 1, on a 1-CPU runner too
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
