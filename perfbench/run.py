"""rabsim benchmark: Monte Carlo trial throughput on three scenario workloads.

Run from the repository root::

    python3 perfbench/run.py --workload trace-m12 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-reference

Each run builds its scenario files from ``scripts/scenarios`` and ``--seed``
and drives ``rabsim simulate`` (the package under ``src``) with them.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it replays
the timed invocations under ``tracing`` and prints the per-layer metrics, the
flop-model join and the tracing overhead.  Either way it checks every CSV
written (``checks``), compares the default-seed CSV with the reference
recorded in ``perfbench/reference`` and prints the environment record.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--record-reference``
re-records the reference CSVs, serially, at each scenario's own seed.

See ``perfbench/README.md`` for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import probe
from runner import MIN_TIMED, timed_doc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scripts" / "scenarios"
REFERENCE = BENCH / "reference"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 11
RUNNER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 60
SEED_STRIDE = 1000     # timed invocation i of seed s uses master_seed s*1000+i
ENV_COMPARED = ("cpu_model", "nproc", "python", "numpy", "scipy",
                "numpy_blas", "scipy_blas", "blas_threads")


@dataclass(frozen=True)
class Workload:
    scenario: str          # file under scripts/scenarios
    threads: int           # rabsim simulate --threads
    trials: int            # trials per timed invocation (per SNR point)
    reference_trials: int  # trials in the default-seed reference invocation
    timed_snr_db: tuple = ()   # a sweep's SNR points in each timed invocation


WORKLOADS = {
    "trace-m12": Workload("coherent_m12_snapshots.json", 1, 4, 2),
    "sweep-m40-incoherent": Workload("incoherent_m40_snr_sweep.json", 1, 4, 1,
                                     (-10, 10, 30)),
    "switch-m12-w2": Workload("interferer_switch_m12.json", 2, 8, 2),
}


def base_doc(workload: Workload) -> dict:
    with open(SCENARIOS / workload.scenario, encoding="utf-8") as fh:
        return json.load(fh)


def setup_doc(doc: dict, trials: int) -> dict:
    """The scenario cut to its first snapshot (one more per schedule change)."""
    schedule = [dict(c, start_snapshot=k + 2)
                for k, c in enumerate(doc.get("interferer_schedule", []))]
    out = dict(doc, snapshots=1 + len(schedule), trials=trials)
    if schedule:
        out["interferer_schedule"] = schedule
    return out


def blas_num_threads() -> dict:
    """Thread count of each loaded OpenBLAS, by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return found


def env_record() -> dict:
    """Machine and build context written into every result."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rabsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ[k] for k in threads if k in os.environ},
        "blas_num_threads": blas_num_threads(),
        "rabsim_commit": commit,
        "rabsim_src_sha256": digest.hexdigest(),
    }


def env_mismatch(env: dict, reference_env: dict) -> list:
    return [k for k in ENV_COMPARED if env.get(k) != reference_env.get(k)]


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _simulate(config: str, out: str, threads: int) -> None:
    """One fresh ``python -m rabsim.cli simulate`` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "rabsim.cli", "simulate", "--config", config,
         "--out", out, "--threads", str(threads)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"rabsim simulate exited {proc.returncode}: {proc.stderr.strip()}")


def measure_setup(work: Path, doc: dict, threads: int) -> dict:
    """Wall times of fresh CLI runs on the one-snapshot scenario, raw and
    rescaled by the speed probe.  The first run is discarded: it compiles
    rabsim's bytecode."""
    config = _write_json(work / "setup.json", doc)
    out = str(work / "setup.csv")
    spans = []
    sampler = probe.Probe(sorted(os.sched_getaffinity(0)))
    try:
        for _ in range(SETUP_REPEATS + 1):
            start = time.monotonic()
            _simulate(config, out, threads)
            spans.append((start, time.monotonic()))
        samples = sampler.stop()
    finally:
        sampler.kill()
    raw = [end - start for start, end in spans[1:]]
    scaled = [(end - start) / probe.speed_scale(samples, start, end)
              for start, end in spans[1:]]
    return {"raw_s": raw, "scaled_s": scaled, "samples": samples,
            "csv": Path(out).read_text(encoding="utf-8")}


def run_runner(work: Path, plan: dict) -> dict:
    plan_path = _write_json(work / "plan.json", plan)
    result_path = work / "result.json"
    proc = subprocess.run([sys.executable, str(BENCH / "runner.py"), plan_path,
                           str(result_path)], cwd=ROOT, env=_child_env(),
                          timeout=RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement process exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


class Audit:
    """Collects CSV problems and (algorithm, trial) run counts.

    ``attempted``/``failed`` cover every checked CSV; ``fixed_*`` cover only
    the default-seed reference and the first MIN_TIMED timed
    invocations, a set whose size does not depend on how fast the program runs.
    """

    def __init__(self):
        self.problems = []
        self.attempted = self.failed = 0
        self.fixed_attempted = self.fixed_failed = 0

    def csv(self, label: str, invocation: dict, doc: dict, count: bool = True,
            fixed: bool = False) -> str:
        """Check one invocation's CSV and count its runs; a failed invocation
        wrote none, so every run it attempted counts as failed."""
        text = ""
        if invocation["rc"] != 0:
            self.problems.append(f"{label}: rabsim simulate exited {invocation['rc']}")
            attempted = failed = checks.trial_counts(None, doc)[0]
        else:
            text = Path(invocation["out"]).read_text(encoding="utf-8")
            self.problems += [f"{label}: {p}" for p in checks.check(text, doc)]
            attempted, failed = checks.trial_counts(text, doc)
        if count:
            self.attempted += attempted
            self.failed += failed
            if fixed:
                self.fixed_attempted += attempted
                self.fixed_failed += failed
        return text


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = env_record()
    reference_env = json.loads((REFERENCE / "env.json").read_text(encoding="utf-8"))
    mismatch = env_mismatch(env, reference_env)
    doc = base_doc(workload)
    ref_doc = dict(doc, trials=workload.reference_trials)
    template = dict(doc, trials=workload.trials)
    if workload.timed_snr_db:
        template["snr_db"] = list(workload.timed_snr_db)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        setup = None
        if not trace:
            setup = measure_setup(work, setup_doc(doc, workload.threads),
                                  workload.threads)
        warm_doc = setup_doc(doc, 1)
        plan = {"src": str(SRC), "workdir": str(work), "threads": workload.threads,
                "warmup": _write_json(work / "warmup.json", warm_doc),
                "reference": _write_json(work / "reference.json", ref_doc),
                "template": template, "seed_base": seed * SEED_STRIDE,
                "seconds": seconds, "trace": trace}
        result = run_runner(work, plan)

        audit = Audit()
        if setup is not None:
            audit.problems += [f"setup: {p}" for p in checks.check(setup["csv"], setup_doc(
                doc, workload.threads))]
        audit.csv("warm-up", result["warmup"], warm_doc, count=False)
        ref_text = audit.csv("reference", result["reference"], ref_doc, fixed=True)
        recorded = (REFERENCE / f"{name}.csv").read_text(encoding="utf-8")
        drift, problems = checks.compare(ref_text, recorded) if ref_text else (float("inf"), [])
        audit.problems += [f"reference: {p}" for p in problems]
        byte_identical = ref_text == recorded
        if "reference_serial" in result:
            serial = audit.csv("serial reference", result["reference_serial"], ref_doc)
            if serial != ref_text:
                audit.problems.append(
                    f"--threads {workload.threads} and serial CSVs differ at the default seed")
        timed_text = []
        for i, inv in enumerate(result["timed"]):
            doc_i = timed_doc(template, plan["seed_base"], i)
            timed_text.append(audit.csv(f"timed {i}", inv, doc_i, fixed=i < MIN_TIMED))
        for i, inv in enumerate(result.get("traced", [])):
            doc_i = timed_doc(template, plan["seed_base"], i)
            if audit.csv(f"traced {i}", inv, doc_i) != timed_text[i]:
                audit.problems.append(f"traced {i}: CSV differs from the untraced run")
        if result.get("leftover_wrappers"):
            audit.problems.append(f"trace wrappers left bound: {result['leftover_wrappers']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = result["per_layer"]
    else:
        workers_mb = workload.threads * result["maxrss_worker_mb"] if workload.threads > 1 else 0.0
        metrics = {
            "trials_per_s": _metric(result["trials_per_s"], "1/s"),
            "setup_s": _metric(statistics.median(setup["scaled_s"]), "s"),
            "peak_rss_mb": _metric(result["maxrss_self_mb"] + workers_mb, "MB"),
            "failed_trial_share": _metric(
                (audit.fixed_failed + 1) / (audit.fixed_attempted + 2), "share"),
            "sinr_drift_db": _metric(checks.SINR_TOL_DB + drift, "dB"),
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "reference_env_mismatch": mismatch,
        "reference_byte_identical": byte_identical, "sinr_drift_db_raw": drift,
        "problems": audit.problems,
        "timed_walls_s": [t["wall_s"] for t in result["timed"]],
        "timed_speed_scales": [t["speed_scale"] for t in result["timed"]],
        "trials_per_s": result["trials_per_s"],
        "raw_trials_per_s": result["raw_trials_per_s"],
        "traced_trials_per_s": result.get("traced_trials_per_s"),
        "traced_walls_s": [t["wall_s"] for t in result.get("traced", [])],
        "setup_raw_s": setup["raw_s"] if setup else [],
        "setup_scaled_s": setup["scaled_s"] if setup else [],
        "setup_probe_samples": setup["samples"] if setup else [],
        "probe_samples": result["probe_samples"],
        "timed_spans": [t["span"] for t in result["timed"]],
        "trial_runs_per_invocation": result["trial_runs_per_invocation"],
        "summary": {"correct": not audit.problems, "attempted": audit.attempted,
                    "failed": audit.failed, "metrics": metrics},
    }


def report(out: dict) -> None:
    """Human-readable lines; the caller prints the JSON summary last."""
    print(f"workload {out['workload']} seed {out['seed']} trace {out['trace']}: "
          f"{len(out['timed_walls_s'])} timed invocations of "
          f"{out['trial_runs_per_invocation']} trial-runs")
    print("env " + json.dumps(out["env"], sort_keys=True))
    if out["reference_env_mismatch"]:
        print("warning: the reference CSVs were recorded in a different environment "
              f"({', '.join(out['reference_env_mismatch'])} differ); drift and byte "
              "identity below compare across environments")
    print(f"trials_per_s before speed rescaling: {out['raw_trials_per_s']!r}; median "
          f"speed scale {statistics.median(out['timed_speed_scales']):.3f}")
    print(f"reference CSV byte-identical: {out['reference_byte_identical']}; "
          f"max |delta mean SINR| = {out['sinr_drift_db_raw']!r} dB")
    metrics = out["summary"]["metrics"]
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    if out["trace"]:
        print("flop-model join, per snapshot (reported, not gated):")
        variants = ("okspme", "okspme-sg", "okspme-ccg", "okspme-mcg")
        for algo in variants:
            print(f"  {algo:<11} {metrics[algo + '.process_us']['value']:9.1f} us  "
                  f"{metrics[algo + '.model_flops']['value']:9.0f} flop  "
                  f"{metrics[algo + '.achieved_mflops_per_s']['value']:7.1f} MFLOP/s")
        for label, key in (("measured", ".process_us"), ("model", ".model_flops")):
            order = sorted(variants, key=lambda a: metrics[a + key]["value"])
            print(f"  ordering by {label}: {' < '.join(order)}")
        overhead = metrics["tracing.overhead_share"]["value"]
        print(f"tracing overhead: trials_per_s {out['trials_per_s']!r} untraced, "
              f"{out['traced_trials_per_s']!r} traced ({100 * overhead:.1f}%)")
    for problem in out["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(out["problems"]) > 20:
        print(f"... and {len(out['problems']) - 20} more failed checks", file=sys.stderr)


def record_reference() -> None:
    """Write ``reference/<workload>.csv`` (serial, default seed) and env.json."""
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            doc = dict(base_doc(workload), trials=workload.reference_trials)
            config = _write_json(Path(tmp) / f"{name}.json", doc)
            _simulate(config, str(REFERENCE / f"{name}.csv"), 1)
            print(f"recorded {REFERENCE / (name + '.csv')}")
    (REFERENCE / "env.json").write_text(json.dumps(env_record(), indent=2, sort_keys=True)
                                        + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rabsim" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no rabsim sources under {SRC} or scenarios under {SCENARIOS}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1), encoding="utf-8")
    report(out)
    print(json.dumps(out["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
