"""Call-level tracing of rabsim, done from outside the package.

``install`` wraps each traced function or method in a timer and binds the
wrapper under every name that rabsim looks it up by: ``okspme`` binds
``krylov.arnoldi_mgs`` by name, ``adaptive`` binds ``okspme.inc_matrix``,
``harness`` binds the ``analysis`` scoring functions, ``cli`` binds
``harness.write_csv``, and the package re-exports most of them.  The returned
handle's ``restore`` puts every original back.

Spans are folded into per-name aggregates as they close: call count, total
time and self time (total minus the time covered by direct child spans).
Observers read outcome counts off return values at the same boundaries (Krylov
order and breakdowns, residue-converged skips, power-floor clamps, and INC
repairs: an ``eigvalsh`` call made inside ``inc_matrix``).  Trials
run in forked pool workers carry their worker's aggregates back on the
returned trial record, so serial and pooled runs are traced the same way.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

MARK = "__perfbench_span__"
TRACE_ATTR = "perfbench_trace"
# Span names whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("harness.run_trial",)
OKSPME_VARIANTS = ("okspme", "okspme-sg", "okspme-ccg", "okspme-mcg")
ALGORITHMS = OKSPME_VARIANTS + ("smi", "loaded-smi")

# (module, attribute path, span name).  A span name of None means the span is
# named after the beamformer instance: "<algorithm>.process".
TARGETS = (
    ("rabsim.arrays", "generate_snapshots", "arrays.generate_snapshots"),
    ("rabsim.tracking", "CovarianceTracker.update_covariance", "tracking.update_covariance"),
    ("rabsim.tracking", "CovarianceTracker.covariance", "tracking.covariance"),
    ("rabsim.krylov", "arnoldi_mgs", "krylov.arnoldi_mgs"),
    ("rabsim.krylov", "make_projector", "krylov.make_projector"),
    ("rabsim.okspme", "SteeringEstimator.begin_snapshot", "okspme.begin_snapshot"),
    ("rabsim.okspme", "NoisePowerSource.noise_power", "okspme.noise_power"),
    ("rabsim.okspme", "estimate_power", "okspme.estimate_power"),
    ("rabsim.okspme", "residue", "okspme.residue"),
    ("rabsim.okspme", "update_steering", "okspme.update_steering"),
    ("rabsim.okspme", "inc_matrix", "okspme.inc_matrix"),
    ("rabsim.okspme", "mvdr_weights", "okspme.mvdr_weights"),
    # inc_matrix looks this up on scipy.linalg only when its indefinite-INC
    # repair fires, so a child span of inc_matrix marks one repair.
    ("scipy.linalg", "eigvalsh", "scipy.eigvalsh"),
    ("rabsim.adaptive", "sg_update", "adaptive.sg_update"),
    ("rabsim.adaptive", "ccg_inner", "adaptive.ccg_inner"),
    ("rabsim.adaptive", "mcg_alpha_a", "adaptive.mcg_alpha_a"),
    ("rabsim.analysis", "output_sinr", "analysis.output_sinr"),
    ("rabsim.analysis", "steering_mse", "analysis.steering_mse"),
    ("rabsim.analysis", "optimal_weights", "analysis.optimal_weights"),
    ("rabsim.analysis", "smi_weights", "analysis.smi_weights"),
    ("rabsim.harness", "run_trial", "harness.run_trial"),
    ("rabsim.harness", "write_csv", "harness.write_csv"),
    ("rabsim.okspme", "OkspmeBeamformer.process", None),
    ("rabsim.adaptive", "SgBeamformer.process", None),
    ("rabsim.adaptive", "CcgBeamformer.process", None),
    ("rabsim.adaptive", "McgBeamformer.process", None),
    ("rabsim.harness", "_SmiRunner.process", None),
)


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self):
        self.stats = {}       # span name -> [calls, total_s, self_s]
        self.durations = {}   # span name -> array of per-call seconds
        self.counters = {}    # outcome name -> count
        self.orders = {}      # (algorithm, Krylov order) -> calls
        self.inner = {}       # algorithm -> CG inner-iteration count
        self.stack = []       # open spans: [name, child_s]
        self.algorithm = None

    def close(self, name, frame, duration):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if name in KEEP_DURATIONS:
            self.durations.setdefault(name, array("d")).append(duration)
        if self.stack:
            self.stack[-1][1] += duration

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def export(self) -> dict:
        return {"stats": self.stats, "durations": self.durations,
                "counters": self.counters,
                "orders": self.orders, "inner": self.inner}

    def merge(self, part: dict) -> None:
        for name, (calls, total, own) in part["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, values in part["durations"].items():
            self.durations.setdefault(name, array("d")).extend(values)
        for field in ("counters", "orders"):
            mine = getattr(self, field)
            for key, n in part[field].items():
                mine[key] = mine.get(key, 0) + n
        self.inner.update(part["inner"])

    def detach(self) -> dict:
        """Swap in empty aggregates; return the old state for ``attach``."""
        saved = dict(vars(self))
        self.__init__()
        return saved

    def attach(self, saved: dict) -> None:
        vars(self).update(saved)


def _wrap(tracer, fn, span, observe=None):
    """Time ``fn`` as ``span``; a span of None marks a beamformer's process."""
    perf_counter = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            outer, tracer.algorithm = tracer.algorithm, args[0].name
            name = tracer.algorithm + ".process"
        else:
            name = span
        frame = [name, 0.0]
        tracer.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            tracer.stack.pop()
            tracer.close(name, frame, duration)
            if span is None:
                tracer.algorithm = outer
        if observe is not None:
            observe(tracer, result, args, kwargs)
        return result

    setattr(wrapper, MARK, span or "process")
    return wrapper


def _observe_arnoldi(tracer, basis, args, kwargs):
    key = (tracer.algorithm, basis.m)
    tracer.orders[key] = tracer.orders.get(key, 0) + 1
    if basis.stop_reason == "breakdown":
        tracer.count("krylov.breakdown")


def _observe_residue(tracer, result, args, kwargs):
    if result[2]:
        tracer.count("okspme.residue_converged")


def _observe_power(tracer, result, args, kwargs):
    floor = args[3] if len(args) > 3 else kwargs.get(
        "power_floor", sys.modules["rabsim.okspme"].POWER_FLOOR)
    if result == floor:
        tracer.count("okspme.power_floor")


def _observe_eigvalsh(tracer, result, args, kwargs):
    if tracer.stack and tracer.stack[-1][0] == "okspme.inc_matrix":
        tracer.count("okspme.inc_repair")


def _observe_ccg(tracer, result, args, kwargs):
    tracer.inner[args[0].name] = args[0].n_inner


def _trial_job_wrapper(tracer, fn):
    """Run one trial with fresh aggregates and ship them on the record.

    The harness sends this function to pool workers by its import path, so a
    forked worker runs the wrapper it inherited from the parent.
    """

    @functools.wraps(fn)
    def wrapper(job):
        saved = tracer.detach()
        try:
            record = fn(job)
            setattr(record, TRACE_ATTR, tracer.export())
        finally:
            tracer.attach(saved)
        return record

    setattr(wrapper, MARK, "trial_job")
    return wrapper


def _collect_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        records = fn(*args, **kwargs)
        for record in records:
            part = vars(record).pop(TRACE_ATTR, None)
            if part is None:
                raise RuntimeError(
                    "trial record came back untraced: pool workers must be "
                    "forked from the traced process")
            tracer.merge(part)
        return records

    setattr(wrapper, MARK, "collect")
    return wrapper


_OBSERVERS = {
    "krylov.arnoldi_mgs": _observe_arnoldi,
    "okspme.residue": _observe_residue,
    "okspme.estimate_power": _observe_power,
    "scipy.eigvalsh": _observe_eigvalsh,
    "CcgBeamformer.process": _observe_ccg,
}


def _rabsim_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "rabsim" or n.startswith("rabsim.")]


class Patches:
    """The names ``install`` rebound, and how to put them back."""

    def __init__(self):
        self.bound = []    # (owner, attribute, original)

    def bind(self, owner, attr, wrapper):
        self.bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.bound:
            owner, attr, original = self.bound.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every target wherever it is bound; rabsim must be imported."""
    patches = Patches()
    modules = _rabsim_modules()
    try:
        for module_name, path, span in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            observe = _OBSERVERS.get(span or path)
            wrapper = _wrap(tracer, original, span, observe)
            patches.bind(owner, attr, wrapper)
            if cls_path:
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.bind(module, name, wrapper)
        harness = sys.modules["rabsim.harness"]
        patches.bind(harness, "_trial_job",
                     _trial_job_wrapper(tracer, harness._trial_job))
        patches.bind(harness, "_collect_trials",
                     _collect_wrapper(tracer, harness._collect_trials))
    except BaseException:
        patches.restore()
        raise
    return patches


def leftover_wrappers() -> list:
    """Names under rabsim (and scipy.linalg) still bound to a trace wrapper."""
    found = []
    owners = [(m.__name__, m) for m in _rabsim_modules()]
    owners.append(("scipy.linalg", sys.modules.get("scipy.linalg")))
    for label, owner in owners:
        if owner is None:
            continue
        for name, value in list(vars(owner).items()):
            if hasattr(value, MARK):
                found.append(f"{label}.{name}")
            if isinstance(value, type) and value.__module__ == label:
                found.extend(f"{label}.{name}.{k}" for k, v in vars(value).items()
                             if hasattr(v, MARK))
    return found


def _mean_us(stats, name):
    calls, total, _ = stats.get(name, (0, 0.0, 0.0))
    return 1e6 * total / calls if calls else 0.0


def _ratio(n, stats, name):
    calls = stats.get(name, (0,))[0]
    return n / calls if calls else 0.0


def _percentile(values, q):
    """Inclusive-method percentile ``q`` in (0, 100) of at least one value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def model_flops(tracer: Tracer, algorithm: str, flops, flop_model, m_sensors: int) -> float:
    """Mean of ``analysis.flops`` over the Krylov orders this algorithm used."""
    hist = {m: n for (algo, m), n in tracer.orders.items() if algo == algorithm}
    total = sum(hist.values())
    if not total:
        return 0.0
    inner = tracer.inner.get(algorithm)
    return sum(n * flops(flop_model(algorithm, m_sensors, order=m, inner=inner))
               for m, n in hist.items()) / total


def per_layer_metrics(tracer: Tracer, *, trial_runs: int, wall_s: float,
                      workers: int, flops, flop_model, m_sensors: int,
                      untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer metrics from one traced phase: name -> (value, unit)."""
    st, c = tracer.stats, tracer.counters
    out = {}

    def us(metric, span):
        out[metric] = (_mean_us(st, span), "us")

    out["arrays.generate_snapshots_us"] = (
        1e6 * st["arrays.generate_snapshots"][1] / trial_runs, "us")
    us("tracking.update_covariance_us", "tracking.update_covariance")
    us("tracking.covariance_us", "tracking.covariance")
    us("krylov.arnoldi_mgs_us", "krylov.arnoldi_mgs")
    us("krylov.make_projector_us", "krylov.make_projector")
    orders = sum(m * n for (_, m), n in tracer.orders.items())
    out["krylov.order_mean"] = (_ratio(orders, st, "krylov.arnoldi_mgs"), "count")
    out["krylov.breakdown_ratio"] = (
        _ratio(c.get("krylov.breakdown", 0), st, "krylov.arnoldi_mgs"), "ratio")
    for stage in ("begin_snapshot", "noise_power", "estimate_power", "residue",
                  "update_steering", "inc_matrix", "mvdr_weights"):
        us(f"okspme.{stage}_us", f"okspme.{stage}")
    out["okspme.inc_repair_ratio"] = (
        _ratio(c.get("okspme.inc_repair", 0), st, "okspme.inc_matrix"), "ratio")
    out["okspme.residue_converged_ratio"] = (
        _ratio(c.get("okspme.residue_converged", 0), st, "okspme.residue"), "ratio")
    out["okspme.power_floor_ratio"] = (
        _ratio(c.get("okspme.power_floor", 0), st, "okspme.estimate_power"), "ratio")
    for stage in ("sg_update", "ccg_inner", "mcg_alpha_a"):
        us(f"adaptive.{stage}_us", f"adaptive.{stage}")
    for stage in ("output_sinr", "steering_mse", "optimal_weights", "smi_weights"):
        us(f"analysis.{stage}_us", f"analysis.{stage}")
    for algo in ALGORITHMS:
        us(f"{algo}.process_us", f"{algo}.process")
    for algo in OKSPME_VARIANTS:
        model = model_flops(tracer, algo, flops, flop_model, m_sensors)
        process_us = out[f"{algo}.process_us"][0]
        out[f"{algo}.model_flops"] = (model, "flop")
        out[f"{algo}.achieved_mflops_per_s"] = (
            model / process_us if process_us else 0.0, "MFLOP/s")
    trials = sorted(1e3 * d for d in tracer.durations["harness.run_trial"])
    out["harness.run_trial_ms.p50"] = (_percentile(trials, 50), "ms")
    out["harness.run_trial_ms.p90"] = (_percentile(trials, 90), "ms")
    calls, busy, own = st["harness.run_trial"]
    out["harness.trial_self_ms"] = (1e3 * own / calls, "ms")
    out["harness.write_csv_ms"] = (1e3 * st["harness.write_csv"][1]
                                   / st["harness.write_csv"][0], "ms")
    out["harness.parallel_efficiency"] = (busy / (workers * wall_s), "ratio")
    out["tracing.overhead_share"] = (
        (untraced_rate - traced_rate) / untraced_rate, "share")
    return out
