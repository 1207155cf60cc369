import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabsim
from rabsim.cli import main


def _scenario(tmp_path, **overrides):
    doc = {
        "sensors": 6,
        "desired_doa_deg": 10.0,
        "interferer_doas_deg": [30.0],
        "snr_db": 10.0,
        "snapshots": 10,
        "trials": 2,
        "master_seed": 5,
        "algorithms": ["smi", "okspme"],
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_flops_subcommand(capsys):
    assert main(["flops", "--algorithm", "OKSPME", "--m-sensors", "10",
                 "--order", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4580"
    assert main(["flops", "--algorithm", "lcwc", "--m-sensors", "10",
                 "--inner", "50"]) == 0
    assert capsys.readouterr().out.strip() == "13500"


def test_flops_missing_parameter_is_config_error(capsys):
    assert main(["flops", "--algorithm", "okspme", "--m-sensors", "10"]) == 2


def test_flops_unknown_algorithm_is_config_error(capsys):
    assert main(["flops", "--algorithm", "magic", "--m-sensors", "10"]) == 2


# Counts that once printed a number (exit 0) or overflowed with a traceback.
@pytest.mark.parametrize("args", [
    ["okspme", "10", "--order", "-5"],
    ["okspme-ccg", "10", "--order", "3", "--inner", "-1"],
    ["lcwc", "10", "--inner", "0"],
    ["sqp", str(10**100)],
], ids=["order-negative", "inner-negative", "inner-zero", "sqp-overflow"])
def test_flops_bad_counts_are_config_errors(capsys, args):
    algorithm, m_sensors, *rest = args
    assert main(["flops", "--algorithm", algorithm, "--m-sensors", m_sensors, *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_mse_bounds_subcommand(capsys):
    assert main(["mse-bounds", "--theta-deg", "5", "--norm-sq", "12"]) == 0
    out = capsys.readouterr().out
    assert "method=okspme" in out
    lower = float(out.split("lower=")[1].split()[0])
    assert abs(lower - 0.0533) < 2e-4


def test_mse_bounds_domain_error(capsys):
    assert main(["mse-bounds", "--theta-deg", "80", "--norm-sq", "1"]) == 2
    for norm_sq in ("nan", "inf", "0"):
        assert main(["mse-bounds", "--theta-deg", "5", "--norm-sq", norm_sq]) == 2
    # a finite norm whose bound overflows once printed upper=inf
    assert main(["mse-bounds", "--theta-deg", "40", "--norm-sq", "1e308",
                 "--method", "sqp"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["okspme", "sqp"])
def test_mse_bounds_tiny_sector_returns(method):
    # The series term underflows to zero at this angle; it once looped
    # forever, so the command runs in a child process with a time limit.
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "rabsim.cli", "mse-bounds",
                          "--theta-deg", "1e-300", "--norm-sq", "12",
                          "--method", method],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "lower=0.0 upper=0.0" in res.stdout


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = _scenario(tmp_path)
    out = tmp_path / "result.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"
    assert len(lines) == 1 + 2 * 10


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = _scenario(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                 "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_override_changes_results(tmp_path):
    cfg = _scenario(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_missing_config_is_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.csv")]) == 4


def test_simulate_bad_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_unknown_key_is_config_error(tmp_path):
    cfg = _scenario(tmp_path)
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc["snapshotz"] = 5
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_unwritable_output_is_io_error(tmp_path):
    cfg = _scenario(tmp_path)
    assert main(["simulate", "--config", str(cfg),
                 "--out", "/nonexistent-dir/x.csv"]) == 4


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("rabsim")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "flops", "--algorithm", "okspme-sg",
                          "--m-sensors", "10", "--order", "4"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip() == "3310"


# Malformed scenarios that once crashed with a traceback (exit 1) or ran
# (exit 0); each now stops before any trial with one error line.
MALFORMED = [
    pytest.param({"sensors": 12.5}, id="sensors-float"),
    pytest.param({"snr_db": "abc"}, id="snr-string"),
    pytest.param({"master_seed": -1}, id="seed-negative"),
    pytest.param({"scattering": {"kind": "coherent", "num_paths": 2.5}}, id="paths-float"),
    pytest.param({"snr_db": 1e6}, id="snr-overflow"),
    pytest.param({"algorithms": []}, id="roster-empty"),
    pytest.param({"trials": "3"}, id="trials-string"),
    pytest.param({"snr_db": [0.0, float("nan")]}, id="snr-nan"),
    pytest.param({"sector_halfwidth_deg": -5.0}, id="sector-negative"),
    pytest.param({"algorithms": [{"name": "loaded-smi", "loading_scale": -5.0}]},
                 id="loading-negative"),
    pytest.param({"interferer_schedule": 0}, id="schedule-number"),
    # a change-point at snapshot 1 would leave the first segment empty
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 1, "interferer_doas_deg": [20.0]}]}, id="schedule-at-1"),
    pytest.param({"algorithms": [{"name": "okspme-mcg", "eta_v": 0.1}]},
                 id="mcg-eta-v"),
    pytest.param({"algorithms": [{"name": "okspme-mcg", "tracker": "sample_mean",
                                  "lam": 0.5}]},
                 id="mcg-tracker"),
    # sizes no array can have: checked before anything is allocated
    pytest.param({"sensors": 10**30}, id="sensors-huge"),
    pytest.param({"snapshots": 10**30}, id="snapshots-huge"),
    pytest.param({"scattering": {"kind": "coherent", "num_paths": 10**30}},
                 id="paths-huge"),
]


def _assert_one_config_error(tmp_path, cfg, *args):
    """``simulate`` in a fresh process exits 2 with one error line, no CSV."""
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                          "--config", str(cfg), "--out", str(out), *args],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("override", MALFORMED)
def test_malformed_scenario_exits_2_with_one_error_line(tmp_path, override):
    _assert_one_config_error(tmp_path, _scenario(tmp_path, **override))


# Files that are not a JSON document Python can parse.
@pytest.mark.parametrize("text", [
    b'{"sensors": 6, "x": "\xff"}',
    b"[" * 100_000,
    b'{"sensors": 1' + b"0" * 5000 + b"}",
], ids=["not-utf8", "nested-deep", "integer-digits"])
def test_unreadable_scenario_exits_2_with_one_error_line(tmp_path, text):
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(text)
    _assert_one_config_error(tmp_path, cfg)


# A worker count below one once ran serially without a word.
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_2_with_one_error_line(tmp_path, threads):
    line = _assert_one_config_error(tmp_path, _scenario(tmp_path), "--threads", threads)
    assert "--threads" in line


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    cfg = _scenario(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--seed", "-1"]) == 2
    assert "master_seed" in capsys.readouterr().err


def _run_counting_snapshots(tmp_path, monkeypatch, capsys, cfg):
    """Run ``simulate`` in-process; return (exit code, stderr lines, calls
    to ``generate_snapshots``)."""
    from rabsim import harness
    calls = []
    original = harness.generate_snapshots

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_snapshots", counting)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    return code, capsys.readouterr().err.splitlines(), len(calls)


# Object entries setting an engine value, once outside the range the engine
# accepted: a roster entry is a name, so each is rejected before any trial.
OUT_OF_RANGE_PARAMETERS = [
    {"name": "okspme-ccg", "n_inner": 0},
    {"name": "okspme-ccg", "n_inner": -3},
    # not a parameter of any entry: rejected as early as a bad value
    {"name": "okspme", "tracker": "window"},
    {"name": "okspme-sg", "noise_mode": "guess"},
    {"name": "okspme", "noise_mode": "eigen"},
    {"name": "okspme", "unit_norm": True},
    {"name": "okspme-sg", "smooth_power": False},
    {"name": "okspme-mcg", "lam": 1.5},
    {"name": "okspme-ccg", "lam": 0.0},
    {"name": "okspme", "lam": 1.5},
    {"name": "okspme-sg", "lam": 0.0},
    {"name": "okspme-mcg", "eta_a": 0.6},
    {"name": "okspme-mcg", "eta_a": -0.1},
    {"name": "okspme-sg", "mu_scale": 0.0},
    {"name": "okspme-sg", "mu_scale": -1.0},
    {"name": "okspme-ccg", "delta": -5},
    {"name": "okspme", "delta": -1e300},
    # these once passed the range checks, generated every trial's data and
    # exited 3 with "all trials failed"
    {"name": "okspme", "delta": math.nan},
    {"name": "okspme", "delta": math.inf},
    {"name": "okspme", "delta0": math.nan},
    {"name": "okspme-sg", "mu_scale": math.nan},
]


@pytest.mark.parametrize("entry", OUT_OF_RANGE_PARAMETERS,
                         ids=lambda e: "-".join(f"{k}={v}" for k, v in e.items()))
def test_parameter_ranges_checked_before_any_trial(tmp_path, monkeypatch, capsys, entry):
    cfg = _scenario(tmp_path, algorithms=["smi", entry])
    code, err, generated = _run_counting_snapshots(tmp_path, monkeypatch, capsys, cfg)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert generated == 0
    assert not (tmp_path / "x.csv").exists()


# Scenarios under which a trial could draw an angle outside [-90, 90].
OUT_OF_RANGE_ANGLES = [
    pytest.param({"desired_doa_deg": 95.0}, id="desired"),
    pytest.param({"interferer_doas_deg": [30.0, -90.5]}, id="interferer"),
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 5, "interferer_doas_deg": [120.0]}]}, id="schedule"),
    pytest.param({"desired_doa_deg": 87.0, "sector_halfwidth_deg": 5.0}, id="sector-high"),
    pytest.param({"desired_doa_deg": -88.0, "sector_halfwidth_deg": 2.5}, id="sector-low"),
    pytest.param({"scattering": {"kind": "coherent", "angle_mean_deg": 85.0,
                                 "angle_std_deg": 3.0}}, id="scatter-high"),
    pytest.param({"scattering": {"kind": "incoherent", "angle_mean_deg": -89.0,
                                 "angle_std_deg": 1.0}}, id="scatter-low"),
]


@pytest.mark.parametrize("override", OUT_OF_RANGE_ANGLES)
def test_out_of_range_angles_rejected_at_load(tmp_path, monkeypatch, capsys, override):
    cfg = _scenario(tmp_path, **override)
    code, err, generated = _run_counting_snapshots(tmp_path, monkeypatch, capsys, cfg)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert generated == 0


def test_angles_at_the_edges_are_accepted(tmp_path, capsys):
    # spans that touch +-90 exactly, and scattering angles no trial draws
    cfg = _scenario(tmp_path, desired_doa_deg=85.0, sector_halfwidth_deg=5.0,
                    interferer_doas_deg=[-90.0], snapshots=3,
                    scattering={"kind": "none", "angle_mean_deg": 89.0,
                                "angle_std_deg": 30.0})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0


# ------------------------------------------------ mutated scenario documents

VALID = {
    "sensors": 4, "desired_doa_deg": 10.0, "interferer_doas_deg": [40.0],
    "snr_db": 5.0, "sir_db": 0.0, "noise_power": 1.0,
    "scattering": {"kind": "coherent", "num_paths": 2, "angle_mean_deg": 10.0,
                   "angle_std_deg": 2.0},
    "sector_halfwidth_deg": 5.0, "snapshots": 4, "trials": 1, "master_seed": 3,
    "interferer_schedule": [{"start_snapshot": 3, "interferer_doas_deg": [-30.0]}],
    "algorithms": ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg",
                   "smi", "loaded-smi", "optimal"],
}
# Paths to the fields a mutation may hit: top-level keys, scattering keys,
# the schedule entry's keys and the roster entries.
FIELDS = ([(k,) for k in VALID]
          + [("scattering", k) for k in VALID["scattering"]]
          + [("interferer_schedule", 0, k) for k in VALID["interferer_schedule"][0]]
          + [("algorithms", i) for i in range(len(VALID["algorithms"]))])
ANGLE_KEYS = {"desired_doa_deg", "interferer_doas_deg", "angle_mean_deg"}
WRONG_TYPES = st.sampled_from(["x", "", [1.0], [], {}, {"a": 1}, True, None])


def _mutation(path):
    """Values that break the field at ``path`` one way or another."""
    options = [WRONG_TYPES, st.sampled_from([-1, -2.5, -1e9, 0, 0.0]),
               st.sampled_from([math.nan, math.inf, -math.inf])]
    if path[-1] in ANGLE_KEYS:
        angles = st.one_of(st.floats(90.001, 1e4), st.floats(-1e4, -90.001))
        options.append(angles.map(lambda a: [a] if path[-1] == "interferer_doas_deg"
                                  else a))
    return st.one_of(*options)


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(VALID))
    kind = draw(st.sampled_from(["value", "unknown-key"]))
    path = draw(st.sampled_from(FIELDS))
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    if kind == "unknown-key" and isinstance(owner, list):
        owner[path[-1]] += "_typo"      # a misspelt algorithm name
    elif kind == "unknown-key":
        owner[path[-1] + "_typo"] = 1
    else:
        owner[path[-1]] = draw(_mutation(path))
    return doc


@settings(max_examples=40, deadline=None)
@given(doc=_mutated_documents())
@example(doc=dict(VALID, interferer_schedule=0))
def test_mutated_scenarios_map_to_documented_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(cfg),
                         "--out", str(Path(tmp) / "x.csv")])
    assert code in (0, 2, 3, 4), (code, doc)
    assert "Traceback" not in err.getvalue()
