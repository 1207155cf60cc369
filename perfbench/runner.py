"""Measurement process: runs ``rabsim simulate`` in-process, repeatedly.

Usage: ``python3 perfbench/runner.py PLAN.json RESULT.json`` (``run.py``
writes the plan).  Every invocation goes through ``rabsim.cli.main`` with an
ordinary scenario file, so the whole command path is timed: config
ingestion, the trial loop or the worker pool, aggregation and the CSV write.

Order of work: one warm-up invocation (a one-snapshot copy of the scenario,
so scipy's lazy first calls happen before any timing and forked pool workers
inherit them), the default-seed reference invocation, for a pooled workload
the same invocation again serially, then the timed invocations until the
plan's seconds are spent, while ``probe`` samples the machine's speed.  A
traced plan then replays the first ``MIN_TIMED`` timed scenarios with
``tracing.install`` active.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import probe
import tracing

MIN_TIMED = 2      # timed invocations, at the least; also the number
                   # replayed under tracing


def _import_rabsim(src: str):
    sys.path.insert(0, src)
    import rabsim.analysis
    import rabsim.cli
    origin = os.path.realpath(rabsim.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rabsim imported from {origin}, not from {src}")
    return rabsim


def _invoke(cli, config: str, out: str, threads: int) -> dict:
    """One ``rabsim simulate``, with its wall time and monotonic span."""
    argv = ["simulate", "--config", config, "--out", out, "--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        begin = time.monotonic()
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return {"config": config, "out": out, "threads": threads, "rc": rc, "wall_s": wall,
            "span": [begin, time.monotonic()]}


def timed_doc(template: dict, seed_base: int, i: int) -> dict:
    """Scenario of timed invocation ``i``: the template under its own seed."""
    return dict(template, master_seed=seed_base + i)


def _rate(invocations: list, runs: int, scaled: bool = True) -> float:
    """Trial-runs per second over all invocations, at the reference speed if
    ``scaled``: each invocation's wall time is divided by its speed scale."""
    wall = sum(t["wall_s"] / (t["speed_scale"] if scaled else 1.0) for t in invocations)
    return runs * len(invocations) / wall


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    rabsim = _import_rabsim(plan["src"])
    cli = rabsim.cli
    work, threads = plan["workdir"], plan["threads"]
    result = {"rabsim_file": rabsim.__file__}

    result["warmup"] = _invoke(cli, plan["warmup"], os.path.join(work, "warmup.csv"), 1)
    result["reference"] = _invoke(cli, plan["reference"],
                                  os.path.join(work, "reference.csv"), threads)
    if threads > 1:
        result["reference_serial"] = _invoke(
            cli, plan["reference"], os.path.join(work, "reference_serial.csv"), 1)

    template = plan["template"]
    points = template["snr_db"]
    # trial-runs per timed invocation: trials x SNR points
    runs = template["trials"] * (len(points) if isinstance(points, list) else 1)
    timed, traced = [], []
    # The invocations run on every allowed CPU, as a user's would; the probe
    # samples the speed of each of those CPUs meanwhile.  A serial invocation
    # runs on one CPU at a time, so the probe follows it.
    sampler = probe.Probe(sorted(os.sched_getaffinity(0)),
                          follow=os.getpid() if threads == 1 else 0)
    try:
        start = time.perf_counter()
        while len(timed) < MIN_TIMED or time.perf_counter() - start < plan["seconds"]:
            i = len(timed)
            config = os.path.join(work, f"timed_{i}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(timed_doc(template, plan["seed_base"], i), fh)
            timed.append(_invoke(cli, config, os.path.join(work, f"timed_{i}.csv"), threads))
        if plan["trace"]:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced = [_invoke(cli, t["config"], t["out"][:-4] + "_traced.csv", threads)
                          for t in timed[:MIN_TIMED]]
            finally:
                patches.restore()
        # Pool workers have been reaped; the probe, a child too, has not.
        workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        samples = sampler.stop()
    finally:
        sampler.kill()
    for inv in timed + traced:
        inv["speed_scale"] = probe.speed_scale(samples, *inv["span"])
    result["probe_samples"] = samples
    result["timed"] = timed
    result["trial_runs_per_invocation"] = runs
    result["trials_per_s"] = _rate(timed, runs)
    result["raw_trials_per_s"] = _rate(timed, runs, scaled=False)

    if plan["trace"]:
        result["traced"] = traced
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        # The overhead compares the same invocations, traced and not.
        untraced_rate = _rate(timed[:len(traced)], runs)
        traced_rate = result["traced_trials_per_s"] = _rate(traced, runs)
        metrics = tracing.per_layer_metrics(
            tracer, trial_runs=runs * len(traced),
            wall_s=sum(t["wall_s"] for t in traced), workers=threads,
            flops=rabsim.analysis.flops, flop_model=rabsim.analysis.FlopModel,
            m_sensors=template["sensors"], untraced_rate=untraced_rate,
            traced_rate=traced_rate)
        result["per_layer"] = {name: {"value": v, "unit": u}
                               for name, (v, u) in metrics.items()}

    kb = 1024.0
    result["maxrss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
    result["maxrss_worker_mb"] = workers_rss / kb
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
