"""Monte Carlo engine: seeded trials, aggregation, CSV output.

A trial draws one mismatch realization and one snapshot stream, then steps
every configured algorithm over the identical stream, scoring each snapshot's
weights against the true scenario quantities (realized desired steering
vector and analytic interference-plus-noise covariance).  Trials are
embarrassingly parallel and keyed by ``(master_seed, snr_index, trial, role)``
so results are bit-identical for any worker count.

``ALGORITHMS`` is the one table of the algorithm roster: each entry lists the
accepted parameters (type and default) and builds the engine.  Every engine
has the same interface (:class:`Engine`), the clairvoyant optimum included.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from . import rng
from .adaptive import CcgBeamformer, McgBeamformer, SgBeamformer
from .analysis import (loaded_smi_weights, optimal_weights, output_sinr,
                       smi_weights, steering_mse)
from .arrays import (SnapshotBatch, generate_snapshots, make_coherent_mismatch,
                     make_incoherent_mismatch_stream, make_steering)
from .errors import ExperimentError, NumericError
from .okspme import NoisePowerSource, OkspmeBeamformer, default_estimator
from .tracking import FORGETTING, SAMPLE_MEAN, CovarianceTracker

if TYPE_CHECKING:
    from .config import AlgorithmSpec, ScenarioConfig

STEADY_WINDOW = 50  # snapshots averaged for one SNR-sweep point


@dataclass
class TrialRecord:
    trial_index: int
    snr_db: float
    sinr_db: dict
    steering_mse: dict
    failed: dict


@dataclass
class AggregateResult:
    x_kind: str                    # "snapshot" or "snr_db"
    x_values: list
    mean_sinr_db: dict             # algorithm -> array over x
    mean_steering_mse: dict
    contributing: dict             # algorithm -> trials that produced data
    failures: dict                 # algorithm -> failed trial count
    trials: int


def _interference_covariance(sources, m_sensors: int, noise_power: float) -> np.ndarray:
    """True interference-plus-noise covariance of one scenario segment."""
    r = noise_power * np.eye(m_sensors, dtype=complex)
    for s in sources:
        if not s.is_desired:
            a = make_steering(m_sensors, s.doa_deg)
            r += s.power * np.outer(a, a.conj())
    return r


class Engine(Protocol):
    """The interface the trial loop scores: one weight vector per snapshot."""

    name: str
    a_hat: np.ndarray                  # steering estimate scored by its MSE
    constraint_steering: np.ndarray    # the vector the weights answer with unit gain

    def process(self, x: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class TrialContext:
    """What one trial offers the engines it builds.

    ``a_init`` seeds the adaptive steering estimators (a draw inside the
    presumed sector); the SMI baselines are pinned to ``a_nominal``, the
    presumed-direction steering vector.  Only the clairvoyant optimum reads
    the truth: ``batch`` and the per-snapshot INC matrices ``inc``.
    """

    a_init: np.ndarray
    a_nominal: np.ndarray
    num_sources: int
    noise_power: float
    batch: SnapshotBatch
    inc: list


@dataclass(frozen=True)
class Param:
    """One accepted algorithm parameter: its JSON type and its default."""

    kind: type
    default: object     # a value, or a function of the parameters before it


@dataclass(frozen=True)
class Algorithm:
    params: dict        # parameter name -> Param
    build: Callable     # (resolved params, TrialContext) -> Engine

    def resolve(self, given: dict) -> dict:
        """``given`` completed with the default of every missing parameter."""
        out = {}
        for key, param in self.params.items():
            default = param.default(out) if callable(param.default) else param.default
            out[key] = given.get(key, default)
        return out


def _okspme_params(tracker: str, **extra) -> dict:
    """The shared steering estimator's parameters, then the engine's own.

    ``lam`` defaults by tracker mode; sample-mean tracking ignores it.
    """
    return {
        "delta": Param(float, 0.1),
        "delta0": Param(float, 0.1),
        "tracker": Param(str, tracker),
        "lam": Param(float, lambda p: 0.998 if p["tracker"] == FORGETTING else 1.0),
        "noise_mode": Param(str, "oracle"),
        "unit_norm": Param(bool, False),
        **extra,
    }


def _estimator(p: dict, ctx: TrialContext):
    noise = NoisePowerSource(mode=p["noise_mode"], value=ctx.noise_power,
                             num_sources=ctx.num_sources)
    return default_estimator(ctx.a_init, ctx.num_sources, noise,
                             delta=p["delta"], delta0=p["delta0"],
                             mode=p["tracker"], lam=p["lam"],
                             unit_norm=p["unit_norm"])


# The roster.  Build functions look classes and functions up by module name
# at call time and the table holds no reference to them, so rebinding a name
# (as perfbench's call tracer does) reaches every engine built here.
ALGORITHMS = {
    "okspme": Algorithm(
        _okspme_params(SAMPLE_MEAN),
        lambda p, ctx: OkspmeBeamformer(_estimator(p, ctx))),
    "okspme-sg": Algorithm(
        _okspme_params(SAMPLE_MEAN, mu_scale=Param(float, 0.005),
                       smooth_power=Param(bool, True)),
        lambda p, ctx: SgBeamformer(_estimator(p, ctx), mu_scale=p["mu_scale"],
                                    smooth_power=p["smooth_power"])),
    "okspme-ccg": Algorithm(
        _okspme_params(FORGETTING, n_inner=Param(int, 5)),
        lambda p, ctx: CcgBeamformer(_estimator(p, ctx), n_inner=p["n_inner"])),
    "okspme-mcg": Algorithm(
        _okspme_params(FORGETTING, eta_a=Param(float, 0.1),
                       eta_v=Param(float, 0.1)),
        lambda p, ctx: McgBeamformer(_estimator(p, ctx), lam=p["lam"],
                                     eta_a=p["eta_a"], eta_v=p["eta_v"])),
    "smi": Algorithm(
        {"delta0": Param(float, 0.1)},
        lambda p, ctx: _SmiRunner("smi", ctx.a_nominal, p["delta0"], loading=0.0)),
    "loaded-smi": Algorithm(
        {"delta0": Param(float, 0.0), "loading_scale": Param(float, 10.0)},
        lambda p, ctx: _SmiRunner("loaded-smi", ctx.a_nominal, p["delta0"],
                                  loading=p["loading_scale"] * ctx.noise_power)),
    "optimal": Algorithm(
        {},
        lambda p, ctx: _OptimalRunner(ctx.batch, ctx.inc)),
}


def build_beamformer(spec: AlgorithmSpec, ctx: TrialContext) -> Engine:
    """Instantiate one roster entry for the trial ``ctx``."""
    entry = ALGORITHMS[spec.name]
    return entry.build(entry.resolve(spec.params), ctx)


class _SmiRunner:
    """Sample-matrix-inversion baseline pinned to the nominal steering vector."""

    def __init__(self, name, a_nominal, delta0, loading):
        self.name = name
        self.tracker = CovarianceTracker(len(a_nominal), delta0=delta0)
        self.a_hat = self.constraint_steering = np.asarray(a_nominal, dtype=complex)
        self.loading = loading

    def process(self, x):
        self.tracker.update_covariance(x)
        r = self.tracker.covariance()
        if self.loading > 0:
            return loaded_smi_weights(r, self.a_hat, self.loading)
        return smi_weights(r, self.a_hat)


class _OptimalRunner:
    """Clairvoyant MVDR weights from each snapshot's true steering and INC."""

    name = "optimal"

    def __init__(self, batch: SnapshotBatch, inc: list):
        self.batch, self.inc, self.i = batch, inc, 0
        self.a_hat = self.constraint_steering = None

    def process(self, x):
        self.a_hat = self.constraint_steering = self.batch.steering_at(self.i)
        w = optimal_weights(self.a_hat, self.inc[self.i])
        self.i += 1
        return w


def simulate_trial_data(cfg: ScenarioConfig, snr_db: float, snr_index: int,
                        trial: int):
    """Generate one trial's observations and ground truth.

    Returns ``(batch, inc_per_snapshot, a_init, desired_power)`` where
    ``inc_per_snapshot`` maps snapshot index to the segment's true INC matrix.
    """
    seed = cfg.master_seed
    data_rng = rng.stream(seed, snr_index, trial, rng.ROLE_DATA)
    scat_rng = rng.stream(seed, snr_index, trial, rng.ROLE_SCATTER)
    init_rng = rng.stream(seed, snr_index, trial, rng.ROLE_INIT)

    a_nom = make_steering(cfg.sensors, cfg.desired_doa_deg)
    kind = cfg.scattering.kind
    if kind == "coherent":
        desired_sv = make_coherent_mismatch(a_nom, cfg.scattering, scat_rng)
        sv_source = desired_sv
    elif kind == "incoherent":
        sv_source = make_incoherent_mismatch_stream(a_nom, cfg.scattering, scat_rng)
    else:
        sv_source = a_nom

    segments = cfg.segments(snr_db)
    bounds = [start for start, _ in segments] + [cfg.snapshots]
    obs_parts, truth_parts = [], []
    inc_by_segment = []
    for (start, sources), end in zip(segments, bounds[1:]):
        count = end - start
        if count <= 0:
            continue
        batch = generate_snapshots(sources, sv_source, cfg.noise_power, count, data_rng)
        obs_parts.append(batch.observations)
        truth_parts.append(batch.true_steering if batch.true_steering.ndim == 2
                           else np.repeat(batch.true_steering[:, None], count, axis=1))
        inc_by_segment.append((start, end,
                               _interference_covariance(sources, cfg.sensors,
                                                        cfg.noise_power)))

    observations = np.concatenate(obs_parts, axis=1)
    truth = np.concatenate(truth_parts, axis=1)
    batch = SnapshotBatch(observations=observations, true_steering=truth,
                          noise_power=cfg.noise_power)

    inc = [None] * cfg.snapshots
    for start, end, r in inc_by_segment:
        for i in range(start, end):
            inc[i] = r

    theta0 = init_rng.uniform(cfg.desired_doa_deg - cfg.sector_halfwidth_deg,
                              cfg.desired_doa_deg + cfg.sector_halfwidth_deg)
    a_init = make_steering(cfg.sensors, theta0)
    return batch, inc, a_init, cfg.desired_power(snr_db)


def run_trial(cfg: ScenarioConfig, trial_index: int, snr_db: float | None = None,
              snr_index: int = 0) -> TrialRecord:
    """Run every configured algorithm over one seeded trial."""
    if snr_db is None:
        snr_db = cfg.snr_points()[0]
    batch, inc, a_init, p_des = simulate_trial_data(cfg, snr_db, snr_index,
                                                    trial_index)
    n = cfg.snapshots
    sinr = {spec.name: np.full(n, np.nan) for spec in cfg.algorithms}
    mse = {spec.name: np.full(n, np.nan) for spec in cfg.algorithms}
    failed = {spec.name: False for spec in cfg.algorithms}

    ctx = TrialContext(a_init=a_init,
                       a_nominal=make_steering(cfg.sensors, cfg.desired_doa_deg),
                       num_sources=cfg.num_sources, noise_power=cfg.noise_power,
                       batch=batch, inc=inc)
    for spec in cfg.algorithms:
        bf = build_beamformer(spec, ctx)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for i in range(n):
                    w = bf.process(batch.observations[:, i])
                    a_true = batch.steering_at(i)
                    sinr[spec.name][i] = output_sinr(w, p_des, a_true, inc[i])
                    mse[spec.name][i] = steering_mse(bf.a_hat, a_true)
        except (NumericError, np.linalg.LinAlgError, FloatingPointError,
                ZeroDivisionError):
            failed[spec.name] = True

    return TrialRecord(trial_index=trial_index, snr_db=snr_db, sinr_db=sinr,
                       steering_mse=mse, failed=failed)


def _trial_job(args):
    cfg, trial, snr_db, snr_index = args
    return run_trial(cfg, trial, snr_db, snr_index)


def _collect_trials(cfg: ScenarioConfig, snr_db: float, snr_index: int,
                    workers: int) -> list:
    jobs = [(cfg, t, snr_db, snr_index) for t in range(cfg.trials)]
    if workers <= 1 or cfg.trials == 1:
        return [_trial_job(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_job, jobs, chunksize=max(1, cfg.trials // (4 * workers))))


def run_experiment(cfg: ScenarioConfig, workers: int = 1) -> AggregateResult:
    """Average `cfg.trials` independent trials per scenario point.

    Snapshot studies (scalar SNR) average the SINR trace in the dB domain per
    snapshot; SNR sweeps reduce each trial to its steady-state mean (last
    ``STEADY_WINDOW`` snapshots) before averaging across trials.
    """
    names = [spec.name for spec in cfg.algorithms]
    window = min(STEADY_WINDOW, cfg.snapshots)

    if not cfg.is_sweep:
        records = _collect_trials(cfg, cfg.snr_points()[0], 0, workers)
        x_values = list(range(1, cfg.snapshots + 1))
        mean_sinr, mean_mse, contributing, failures = {}, {}, {}, {}
        for name in names:
            good = [r for r in records if not r.failed[name]]
            failures[name] = cfg.trials - len(good)
            contributing[name] = len(good)
            if not good:
                raise ExperimentError(f"all trials failed for algorithm {name!r}")
            mean_sinr[name] = np.mean([r.sinr_db[name] for r in good], axis=0)
            mean_mse[name] = np.mean([r.steering_mse[name] for r in good], axis=0)
        return AggregateResult("snapshot", x_values, mean_sinr, mean_mse,
                               contributing, failures, cfg.trials)

    x_values = cfg.snr_points()
    mean_sinr = {name: np.empty(len(x_values)) for name in names}
    mean_mse = {name: np.empty(len(x_values)) for name in names}
    contributing = {name: [] for name in names}
    failures = {name: 0 for name in names}
    for j, snr_db in enumerate(x_values):
        records = _collect_trials(cfg, snr_db, j, workers)
        for name in names:
            good = [r for r in records if not r.failed[name]]
            failures[name] += cfg.trials - len(good)
            contributing[name].append(len(good))
            if not good:
                raise ExperimentError(
                    f"all trials failed for algorithm {name!r} at SNR {snr_db} dB")
            mean_sinr[name][j] = np.mean([np.mean(r.sinr_db[name][-window:])
                                          for r in good])
            mean_mse[name][j] = np.mean([np.mean(r.steering_mse[name][-window:])
                                         for r in good])
    return AggregateResult("snr_db", x_values, mean_sinr, mean_mse,
                           contributing, failures, cfg.trials)


def write_csv(result: AggregateResult, path) -> None:
    """Persist the aggregate, one row per (algorithm, x point).

    Floats are serialized with ``repr`` (shortest round-trip form) and rows
    are ordered by algorithm name then x, so identical experiments produce
    byte-identical files.
    """
    lines = ["algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"]
    for name in sorted(result.mean_sinr_db):
        for j, x in enumerate(result.x_values):
            x_text = str(x) if result.x_kind == "snapshot" else repr(float(x))
            count = result.contributing[name]
            count_j = count[j] if isinstance(count, list) else count
            lines.append(",".join([
                name, result.x_kind, x_text,
                repr(float(result.mean_sinr_db[name][j])),
                repr(float(result.mean_steering_mse[name][j])),
                str(count_j),
            ]))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
