import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabsim
from rabsim import harness
from rabsim.cli import main
from rabsim.errors import NumericError, ParameterError


# An override value that removes its key from the scenario.
DROP = object()


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
    doc = {key: value for key, value in doc.items() if value is not DROP}
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


# Counts that once printed a number (exit 0) or overflowed with a traceback,
# and counts an algorithm needs but was not given.
@pytest.mark.parametrize("args", [
    ["okspme", "10", "--order", "-5"],
    ["okspme-ccg", "10", "--order", "3", "--inner", "-1"],
    ["lcwc", "10", "--inner", "0"],
    ["sqp", str(10**100)],
    ["lcwc", "10"],
    ["okspme-ccg", "10", "--order", "4"],
    ["okspme", "1", "--order", "4"],
    ["okspme-ccg", "10", "--order", "0", "--inner", "3"],
    ["okspme-ccg", "10", "--order", "3", "--inner", "0"],
], ids=["order-negative", "inner-negative", "inner-zero", "sqp-overflow", "lcwc-no-inner",
        "ccg-no-inner", "m-sensors-one", "order-zero", "ccg-inner-zero"])
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


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = _scenario(tmp_path)
    out = tmp_path / "result.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"
    assert len(lines) == 1 + 2 * 10


def test_simulate_is_byte_deterministic(tmp_path, cpus):
    cpus(2)  # a real 2-worker pool, on a 1-CPU runner too
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


def test_simulate_unwritable_output_is_io_error(tmp_path):
    cfg = _scenario(tmp_path)
    assert main(["simulate", "--config", str(cfg),
                 "--out", "/nonexistent-dir/x.csv"]) == 4


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_console_script_entry_point(tmp_path):
    args = ["flops", "--algorithm", "okspme-sg", "--m-sensors", "10", "--order", "4"]
    exe = shutil.which("rabsim")
    if exe is not None:
        res = subprocess.run([exe, *args], capture_output=True, text=True)
    else:
        # Not installed: check the declared entry point and run its target
        # the way the generated script does.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["scripts"]["rabsim"] == "rabsim.cli:main"
        env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rabsim.cli import main; sys.exit(main())", *args],
            capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == "3310"


# Malformed scenarios that once crashed with a traceback (exit 1) or ran
# (exit 0); each now stops before any trial with one error line naming the
# offending key.  A case is the overrides of `_scenario` and what the line names.
CONFIG_ERRORS = [
    pytest.param({"sensors": 12.5}, "'sensors'", id="sensors-float"),
    pytest.param({"snr_db": "abc"}, "'snr_db'", id="snr-string"),
    pytest.param({"master_seed": -1}, "master_seed", id="seed-negative"),
    pytest.param({"scattering": {"kind": "coherent", "num_paths": 2.5}}, "'num_paths'",
                 id="paths-float"),
    pytest.param({"snr_db": 1e6}, "snr_db", id="snr-overflow"),
    pytest.param({"algorithms": []}, "'algorithms'", id="roster-empty"),
    pytest.param({"trials": "3"}, "'trials'", id="trials-string"),
    pytest.param({"snr_db": [0.0, float("nan")]}, "'snr_db'", id="snr-nan"),
    pytest.param({"sector_halfwidth_deg": -5.0}, "sector_halfwidth_deg",
                 id="sector-negative"),
    # an engine value in an object entry: a roster entry is a name
    pytest.param({"algorithms": [{"name": "loaded-smi", "loading_scale": -5.0}]},
                 "algorithm entries must be names", id="loading-negative"),
    # and an entry of each other JSON type
    pytest.param({"algorithms": ["smi", 1]}, "algorithm entries must be names",
                 id="roster-number"),
    pytest.param({"algorithms": ["smi", None]}, "algorithm entries must be names",
                 id="roster-null"),
    pytest.param({"algorithms": ["smi", True]}, "algorithm entries must be names",
                 id="roster-bool"),
    pytest.param({"algorithms": ["smi", ["okspme"]]}, "algorithm entries must be names",
                 id="roster-array"),
    pytest.param({"algorithms": ["music"]}, "unknown algorithm 'music'",
                 id="roster-unknown-name"),
    pytest.param({"algorithms": ["okspme", "okspme"]}, "algorithm names must be unique",
                 id="roster-repeated"),
    pytest.param({"snr_db": []}, "snr_db", id="sweep-empty"),
    pytest.param({"scattering": {"kind": "coherent", "paths": 4}}, "'paths'",
                 id="scatter-unknown-key"),
    pytest.param({"interferer_schedule": 0}, "'interferer_schedule'", id="schedule-number"),
    # a change-point at snapshot 1 would leave the first segment empty
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 1, "interferer_doas_deg": [20.0]}]},
        "change-points must lie in [2, snapshots]", id="schedule-at-1"),
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 25, "interferer_doas_deg": [20.0]}]},
        "change-points must lie in [2, snapshots]", id="schedule-beyond-end"),
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 5, "interferer_doas_deg": [20.0]},
        {"start_snapshot": 5, "interferer_doas_deg": [25.0]}]},
        "change-points must be strictly increasing", id="schedule-repeated"),
    pytest.param({"interferer_schedule": [{"start_snapshot": 5, "doas": [20.0]}]}, "'doas'",
                 id="schedule-unknown-key"),
    # sizes no array can have: checked before anything is allocated
    pytest.param({"sensors": 10**30}, "sensors", id="sensors-huge"),
    pytest.param({"snapshots": 10**30}, "snapshots", id="snapshots-huge"),
    pytest.param({"scattering": {"kind": "coherent", "num_paths": 10**30}}, "num_paths",
                 id="paths-huge"),
    # counts below their minimum: the scenario check is the only one, since
    # the per-snapshot layers trust what a trial builds
    pytest.param({"sensors": 1}, "sensors", id="sensors-one"),
    pytest.param({"snapshots": 0}, "snapshots", id="snapshots-zero"),
    pytest.param({"trials": 0}, "trials", id="trials-zero"),
    # one of each way a value can miss the schema's JSON types
    pytest.param({"sensors": DROP}, "'sensors'", id="sensors-missing"),
    pytest.param({"sensors": True}, "'sensors'", id="sensors-bool"),
    pytest.param({"scattering": "coherent"}, "'scattering'", id="scattering-string"),
    pytest.param({"scattering": {"kind": 3}}, "kind", id="kind-number"),
    pytest.param({"interferer_schedule": [5]}, "'interferer_schedule'",
                 id="schedule-entry-number"),
    pytest.param({"interferer_schedule": [{"start_snapshot": 5}]},
                 "'interferer_doas_deg'", id="schedule-entry-no-doas"),
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 5, "interferer_doas_deg": 20.0}]}, "'interferer_doas_deg'",
        id="schedule-doas-number"),
    pytest.param({"algorithms": "smi"}, "'algorithms'", id="roster-string"),
    pytest.param({"interferer_doas_deg": 30.0}, "'interferer_doas_deg'", id="doas-number"),
    pytest.param({"inr_db": "20"}, "'inr_db'", id="inr-string"),
    # the scattering mean defaults to the desired DoA: the DoA's own type
    # error is the one reported
    pytest.param({"desired_doa_deg": "10", "scattering": {"kind": "coherent"}},
                 "'desired_doa_deg'", id="desired-string-with-scattering"),
]


@pytest.fixture
def config_error(tmp_path, monkeypatch, capsys):
    """``check(scenario, named, *args)`` runs ``simulate`` in-process on the
    scenario (overrides of `_scenario`, or the file's bytes) and asserts exit 2,
    one error line naming ``named``, no CSV and no snapshots generated.  A
    warning raises, so it fails the case as a second stderr line would."""
    def check(scenario, named, *args):
        if isinstance(scenario, bytes):
            cfg = tmp_path / "scenario.json"
            cfg.write_bytes(scenario)
        else:
            cfg = _scenario(tmp_path, **scenario)
        generated, generate = [], harness.generate_snapshots

        def counting(*args, **kwargs):
            generated.append(1)
            return generate(*args, **kwargs)

        out = tmp_path / "x.csv"
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.setattr(harness, "generate_snapshots", counting)
            assert main(["simulate", "--config", str(cfg), "--out", str(out), *args]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], lines
        assert not out.exists() and not generated
    return check


@pytest.mark.parametrize("scenario, named", CONFIG_ERRORS)
def test_malformed_scenario_exits_2_with_one_error_line(config_error, scenario, named):
    config_error(scenario, named)


def test_simulate_unknown_key_is_config_error(config_error):
    # a typo, and the noise power: every power is in units of it
    config_error({"snapshotz": 5}, "snapshotz")
    config_error({"noise_power": 1.0}, "noise_power")


# Scenarios under which a trial could draw an angle outside [-90, 90].
@pytest.mark.parametrize("scenario, named", [
    pytest.param({"desired_doa_deg": 95.0}, "desired_doa_deg", id="desired"),
    pytest.param({"interferer_doas_deg": [30.0, -90.5]}, "interferer DoA",
                 id="interferer"),
    pytest.param({"interferer_schedule": [
        {"start_snapshot": 5, "interferer_doas_deg": [120.0]}]},
        "scheduled interferer DoA", id="schedule"),
    pytest.param({"desired_doa_deg": 87.0, "sector_halfwidth_deg": 5.0},
                 "sector_halfwidth_deg", id="sector-high"),
    pytest.param({"desired_doa_deg": -88.0, "sector_halfwidth_deg": 2.5},
                 "sector_halfwidth_deg", id="sector-low"),
    pytest.param({"scattering": {"kind": "coherent", "angle_mean_deg": 85.0,
                                 "angle_std_deg": 3.0}}, "angle_mean_deg",
                 id="scatter-high"),
    pytest.param({"scattering": {"kind": "incoherent", "angle_mean_deg": -89.0,
                                 "angle_std_deg": 1.0}}, "angle_mean_deg",
                 id="scatter-low"),
])
def test_out_of_range_angles_rejected_at_load(config_error, scenario, named):
    config_error(scenario, named)


# JSON documents that are not an object.
@pytest.mark.parametrize("text", [b"[6, 10.0]", b"6", b'"sensors"', b"null"],
                         ids=["array", "number", "string", "null"])
def test_non_object_scenario_exits_2_with_one_error_line(config_error, text):
    config_error(text, "JSON object")


# Files that are not a JSON document Python can parse.
def test_simulate_bad_json_is_config_error(config_error):
    config_error(b"{", "invalid JSON")


@pytest.mark.parametrize("text", [
    b'{"sensors": 6, "x": "\xff"}',
    b"[" * 100_000,
    b'{"sensors": 1' + b"0" * 5000 + b"}",
], ids=["not-utf8", "nested-deep", "integer-digits"])
def test_unreadable_scenario_exits_2_with_one_error_line(config_error, text):
    config_error(text, "invalid JSON")


# A worker count below one once ran serially without a word.
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_2_with_one_error_line(config_error, threads):
    config_error({}, "--threads", "--threads", threads)


def test_negative_seed_override_is_config_error(config_error):
    config_error({}, "master_seed", "--seed", "-1")


def test_malformed_scenario_exits_2_in_a_fresh_process(tmp_path):
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(rabsim.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                          "--config", str(_scenario(tmp_path, sensors=12.5)),
                          "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert "'sensors'" in lines[0] and not out.exists()


def test_angles_at_the_edges_are_accepted(tmp_path, capsys):
    # spans that touch +-90 exactly, scattering angles no trial draws, and
    # change-points at both ends of [2, snapshots]
    cfg = _scenario(tmp_path, desired_doa_deg=85.0, sector_halfwidth_deg=5.0,
                    interferer_doas_deg=[-90.0], snapshots=3,
                    scattering={"kind": "none", "angle_mean_deg": 89.0,
                                "angle_std_deg": 30.0},
                    interferer_schedule=[
                        {"start_snapshot": 2, "interferer_doas_deg": [20.0]},
                        {"start_snapshot": 3, "interferer_doas_deg": [-90.0]}])
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0


ROSTER = list(harness.ALGORITHMS)


@pytest.mark.parametrize("snr_db, code", [(130.0, 0), (140.0, 3)])
def test_smi_fails_numerically_at_extreme_snr(tmp_path, capsys, snr_db, code):
    # At 140 dB the desired power dwarfs smi's small initial loading, so its
    # sample covariance is no longer numerically positive definite and every
    # smi trial fails: exit 3 with one line naming smi, not a traceback.
    cfg = _scenario(tmp_path, interferer_doas_deg=[40.0], snr_db=snr_db,
                    snapshots=20, trials=2, master_seed=1, algorithms=ROSTER)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == code
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "'smi'" in lines[0]


# The exit-code contract: one exception class per code, one error line.
@pytest.mark.parametrize("exc, code", [(ParameterError("bad value"), 2),
                                       (NumericError("no usable trial"), 3),
                                       (OSError("disk gone"), 4)])
def test_exception_classes_map_to_exit_codes(tmp_path, monkeypatch, capsys, exc, code):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(rabsim.cli, "run_experiment", raising)
    assert main(["simulate", "--config", str(_scenario(tmp_path)),
                 "--out", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err


# ------------------------------------------------ mutated scenario documents

VALID = {
    "sensors": 4, "desired_doa_deg": 10.0, "interferer_doas_deg": [40.0],
    "snr_db": 5.0, "sir_db": 0.0,
    "scattering": {"kind": "coherent", "num_paths": 2, "angle_mean_deg": 10.0,
                   "angle_std_deg": 2.0},
    "sector_halfwidth_deg": 5.0, "snapshots": 4, "trials": 1, "master_seed": 3,
    "interferer_schedule": [{"start_snapshot": 3, "interferer_doas_deg": [-30.0]}],
    "algorithms": ROSTER,
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
