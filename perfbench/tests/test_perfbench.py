"""Self-tests of the benchmark: tracing, output checks and metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import math
import sys
from types import SimpleNamespace

import pytest

import checks
import probe
import run
import runner
import tracing
from rabsim import cli, harness

SMALL = {
    "sensors": 8, "desired_doa_deg": 10.0, "interferer_doas_deg": [40.0],
    "snr_db": 10.0, "scattering": {"kind": "coherent", "num_paths": 2},
    "snapshots": 12, "trials": 2, "master_seed": 5,
    "algorithms": ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg",
                   "smi", "loaded-smi", "optimal"],
}


def _simulate(tmp_path, name, threads, doc=SMALL):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--threads", str(threads)]) == 0
    return out.read_bytes()


def _bound_names():
    """Every (owner, attribute) under rabsim and scipy.linalg, with its object."""
    owners = tracing._rabsim_modules() + [sys.modules["scipy.linalg"]]
    names = {}
    for owner in owners:
        for name, value in vars(owner).items():
            names[(owner.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == owner.__name__:
                names.update(((owner.__name__, f"{name}.{k}"), v)
                             for k, v in vars(value).items())
    return names


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_run_writes_the_untraced_bytes(tmp_path, threads):
    plain = _simulate(tmp_path, "plain", threads)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = _simulate(tmp_path, "traced", threads)
    finally:
        patches.restore()
    assert traced == plain
    assert tracer.stats["harness.run_trial"][0] == SMALL["trials"]
    per_snapshot = SMALL["trials"] * SMALL["snapshots"]
    for algo in tracing.ALGORITHMS:
        assert tracer.stats[f"{algo}.process"][0] == per_snapshot
    assert tracer.stats["okspme.begin_snapshot"][0] == 4 * per_snapshot


def test_wrappers_bind_every_lookup_site_and_restore_all():
    before = _bound_names()
    patches = tracing.install(tracing.Tracer())
    try:
        from rabsim import adaptive, okspme
        for owner, name in ((okspme, "arnoldi_mgs"), (okspme, "make_projector"),
                            (adaptive, "inc_matrix"), (harness, "output_sinr"),
                            (harness, "steering_mse"), (harness, "optimal_weights"),
                            (harness, "generate_snapshots"), (cli, "write_csv"),
                            (harness, "_trial_job"), (okspme.SteeringEstimator,
                                                      "begin_snapshot")):
            assert hasattr(getattr(owner, name), tracing.MARK), name
        assert tracing.leftover_wrappers()
    finally:
        patches.restore()
    assert tracing.leftover_wrappers() == []
    after = _bound_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_synthetic_spans():
    tracer = tracing.Tracer()
    outer = ["outer", 0.0]
    tracer.stack.append(outer)
    for duration in (1.0, 2.5):
        inner = ["inner", 0.0]
        tracer.stack.append(inner)
        leaf = ["leaf", 0.0]
        tracer.stack.append(leaf)
        tracer.close("leaf", tracer.stack.pop(), 0.25)
        tracer.close("inner", tracer.stack.pop(), duration)
    tracer.close("outer", tracer.stack.pop(), 5.0)
    assert tracer.stats["outer"] == [1, 5.0, 1.5]
    assert tracer.stats["inner"] == [2, 3.5, 3.0]
    assert tracer.stats["leaf"] == [2, 0.5, 0.5]

    merged = tracing.Tracer()
    merged.merge(tracer.export())
    merged.merge(tracer.export())
    assert merged.stats["outer"] == [2, 10.0, 3.0]
    assert merged.stats["leaf"] == [4, 1.0, 1.0]


def test_inc_repair_counts_only_eigvalsh_inside_inc_matrix():
    tracer = tracing.Tracer()
    eigvalsh = tracing._wrap(tracer, lambda: None, "scipy.eigvalsh",
                             tracing._OBSERVERS["scipy.eigvalsh"])
    eigvalsh()
    tracer.stack.append(["okspme.inc_matrix", 0.0])
    eigvalsh()
    eigvalsh()
    assert tracer.counters == {"okspme.inc_repair": 2}
    assert tracer.stats["scipy.eigvalsh"][0] == 3


def test_model_flops_averages_over_observed_orders():
    tracer = tracing.Tracer()
    tracer.orders = {("okspme", 2): 1, ("okspme", 4): 3, ("okspme-sg", 9): 5}
    cost = tracing.model_flops(
        tracer, "okspme", lambda model: model.order * 10,
        lambda algo, m_sensors, order, inner: SimpleNamespace(order=order), 12)
    assert cost == (20 + 3 * 40) / 4


def _csv(rows):
    return "\n".join([checks.HEADER] + rows) + "\n"


def test_checks_reject_bad_rows():
    doc = dict(SMALL, snapshots=1, trials=2, algorithms=["okspme", "optimal"])
    good = _csv(["okspme,snapshot,1,1.5,0.25,2", "optimal,snapshot,1,2.0,0.0,2"])
    assert checks.check(good, doc) == []
    assert checks.trial_counts(good, doc) == (4, 0)
    short = _csv(["okspme,snapshot,1,1.5,0.25,1", "optimal,snapshot,1,2.0,0.0,2"])
    assert any("1 of 2 trials" in p for p in checks.check(short, doc))
    assert checks.trial_counts(short, doc) == (4, 1)
    nan = _csv(["okspme,snapshot,1,nan,0.25,2", "optimal,snapshot,1,2.0,0.0,2"])
    assert any("non-finite" in p for p in checks.check(nan, doc))
    above = _csv(["okspme,snapshot,1,2.5,0.25,2", "optimal,snapshot,1,2.0,0.0,2"])
    assert any("beats the optimum" in p for p in checks.check(above, doc))
    missing = _csv(["optimal,snapshot,1,2.0,0.0,2"])
    assert checks.check(missing, doc)

    drift, problems = checks.compare(good, good)
    assert (drift, problems) == (0.0, [])
    moved = _csv(["okspme,snapshot,1,1.5000001,0.25,2", "optimal,snapshot,1,2.0,0.0,2"])
    drift, problems = checks.compare(moved, good)
    assert math.isclose(drift, 1e-7, rel_tol=1e-6) and problems == []
    far = _csv(["okspme,snapshot,1,1.6,0.25,2", "optimal,snapshot,1,2.0,0.0,2"])
    assert checks.compare(far, good)[1]


def test_failed_invocation_counts_every_run_as_failed(tmp_path):
    doc = dict(SMALL, snr_db=[0.0, 10.0], trials=3, sensors=0)   # invalid
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stderr(io.StringIO()):
        inv = runner._invoke(cli, str(config), str(tmp_path / "bad.csv"), 1)
    assert inv["rc"] != 0
    audit = run.Audit()
    assert audit.csv("timed 0", inv, doc, fixed=True) == ""
    runs = len(SMALL["algorithms"]) * 2 * 3
    assert (audit.attempted, audit.failed) == (runs, runs)
    assert (audit.fixed_attempted, audit.fixed_failed) == (runs, runs)
    assert audit.problems == [f"timed 0: rabsim simulate exited {inv['rc']}"]


def test_speed_scale_uses_counted_samples_in_the_span():
    # [monotonic time, cpu, kernel seconds, counted]
    samples = [[1.0, 0, 0.002, True], [1.5, 1, 0.010, False],
               [2.0, 0, 0.004, True], [9.0, 0, 0.001, True]]
    expected = (0.003 / probe.REFERENCE_S) ** probe.SPEED_EXPONENT
    assert probe.speed_scale(samples, 0.5, 2.5) == pytest.approx(expected)
    # No sample in the span: the nearest counted one stands in.
    assert probe.speed_scale(samples, 8.0, 8.5) == pytest.approx(
        (0.001 / probe.REFERENCE_S) ** probe.SPEED_EXPONENT)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(capsys, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert run.main(["--workload", "trace-m12", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    metrics = summary["metrics"]
    assert list(metrics) == [m["name"] for m in expected]
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} = {metrics[m['name']]['value']!r} {m['unit']}" in lines
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in expected)
