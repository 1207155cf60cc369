import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_mse_bounds_subcommand(capsys):
    assert main(["mse-bounds", "--theta-deg", "5", "--norm-sq", "12"]) == 0
    out = capsys.readouterr().out
    assert "method=okspme" in out
    lower = float(out.split("lower=")[1].split()[0])
    assert abs(lower - 0.0533) < 2e-4


def test_mse_bounds_domain_error(capsys):
    assert main(["mse-bounds", "--theta-deg", "80", "--norm-sq", "1"]) == 2


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
]


@pytest.mark.parametrize("override", MALFORMED)
def test_malformed_scenario_exits_2_with_one_error_line(tmp_path, override):
    cfg = _scenario(tmp_path, **override)
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                          "--config", str(cfg), "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert not out.exists()


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    cfg = _scenario(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--seed", "-1"]) == 2
    assert "master_seed" in capsys.readouterr().err
