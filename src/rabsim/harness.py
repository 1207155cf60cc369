"""Monte Carlo engine: seeded trials, aggregation, CSV output.

A trial draws one mismatch realization and one snapshot stream, then steps
every configured algorithm over the identical stream and scores its weight
and steering trajectories against the true scenario quantities (realized
desired steering vector and analytic interference-plus-noise covariance),
one scoring call per trajectory and INC segment.  Trials are
embarrassingly parallel and keyed by ``(master_seed, snr_index, trial, role)``
so results are bit-identical for any worker count.  An aggregate keeps each
trial's reduced row, so paired statistics read the rows the CSV means average.

``ALGORITHMS`` is the one table of the algorithm roster: it maps each name a
scenario may list to the function that builds the engine.  Every engine has
the same interface (:class:`Engine`), the clairvoyant optimum included.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from . import kernels, rng
from .adaptive import CcgBeamformer, McgBeamformer, SgBeamformer
from .analysis import optimal_weights, output_sinr, smi_weights, steering_mse
from .arrays import desired_steering, generate_snapshots, make_steering
from .errors import NumericError
from .okspme import OkspmeBeamformer
from .tracking import CovarianceTracker

if TYPE_CHECKING:
    from .config import ScenarioConfig

STEADY_WINDOW = 50  # snapshots averaged for one SNR-sweep point
SMI_DELTA0 = 0.1  # smi's initial covariance loading
LOADING_SCALE = 10.0  # loaded-smi's diagonal loading


@dataclass
class TrialRecord:
    sinr_db: dict
    steering_mse: dict
    failed: dict


@dataclass
class AggregateResult:
    """Per algorithm and SNR point ``j``, one row per trial (row ``t`` is
    trial ``t``): the whole trace in a snapshot study (one point), the
    steady-window mean at a sweep point.  A failed trial's row is no score."""

    x_kind: str                    # "snapshot" or "snr_db"
    x_values: list
    sinr_db: dict                  # algorithm -> points x trials [x snapshots]
    steering_mse: dict
    failed: dict                   # algorithm -> points x trials mask

    def means(self, name: str):
        """``(mean SINR dB, mean steering MSE, trials)`` of one algorithm over
        x: each point's rows averaged in trial order over the trials that ran."""
        ran = ~self.failed[name]
        sinr = [np.mean(rows[r], axis=0) for rows, r in zip(self.sinr_db[name], ran)]
        mse = [np.mean(rows[r], axis=0) for rows, r in zip(self.steering_mse[name], ran)]
        return (np.ravel(sinr), np.ravel(mse),
                np.repeat(ran.sum(axis=1), len(self.x_values) // len(ran)))


class Engine(Protocol):
    """The interface the trial loop scores: one weight vector per snapshot."""

    name: str
    a_hat: np.ndarray    # steering estimate scored by its MSE

    def process(self, x: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class TrialContext:
    """What one trial offers the engines it builds.

    ``a_init`` seeds the adaptive steering estimators (a draw inside the
    presumed sector); the SMI baselines are pinned to ``a_nominal``, the
    presumed-direction steering vector.  ``observations`` is M x n, one
    column per snapshot.  Only the clairvoyant optimum reads the truth:
    ``truth``, the realized desired steering of each snapshot (M x n and
    C-ordered, so column ``i`` is the truth of snapshot ``i``), and
    ``segments``, the ``(start, end, R_in)`` spans of snapshots that share one
    true INC matrix ``R_in``, in order and tiling ``[0, n)``.
    """

    a_init: np.ndarray
    a_nominal: np.ndarray
    num_sources: int
    observations: np.ndarray
    truth: np.ndarray
    segments: list


# The roster: name -> build(TrialContext) -> Engine.  Build functions look
# classes and functions up by module name at call time and the table holds no
# reference to them, so rebinding a name (as perfbench's call tracer does)
# reaches every engine built here.
ALGORITHMS = {
    "okspme": lambda ctx: OkspmeBeamformer(ctx.a_init, ctx.num_sources),
    "okspme-sg": lambda ctx: SgBeamformer(ctx.a_init, ctx.num_sources),
    "okspme-ccg": lambda ctx: CcgBeamformer(ctx.a_init, ctx.num_sources),
    "okspme-mcg": lambda ctx: McgBeamformer(ctx.a_init, ctx.num_sources),
    "smi": lambda ctx: _SmiRunner("smi", ctx.a_nominal, delta0=SMI_DELTA0, loading=0.0),
    "loaded-smi": lambda ctx: _SmiRunner("loaded-smi", ctx.a_nominal, delta0=0.0,
                                         loading=LOADING_SCALE),
    "optimal": lambda ctx: _OptimalRunner(ctx.truth, ctx.segments),
}


class _SmiRunner:
    """Sample-matrix-inversion baseline pinned to the nominal steering vector:
    the weights solve the sample covariance plus ``loading * I``."""

    def __init__(self, name, a_nominal, delta0, loading):
        self.name = name
        self.tracker = CovarianceTracker(len(a_nominal), delta0=delta0)
        self.a_hat = a_nominal
        self.loading = loading * np.eye(len(a_nominal))

    def process(self, x):
        self.tracker.update_covariance(x)
        return smi_weights(self.tracker.covariance() + self.loading, self.a_hat)


class _OptimalRunner:
    """Clairvoyant MVDR weights from each snapshot's true steering and INC."""

    name = "optimal"

    def __init__(self, truth: np.ndarray, segments: list):
        self.steps = self._steps(truth, segments)

    @staticmethod
    def _steps(truth, segments):
        """``(true steering, INC factor)`` per snapshot; each segment's INC
        is factored once, at its first snapshot."""
        for start, end, r_in in segments:
            factor = kernels.cholesky(r_in)
            # Columns go out as strided views: a contiguous copy changes the
            # bits of the solve.
            for i in range(start, end):
                yield truth[:, i], factor

    def process(self, x):
        self.a_hat, factor = next(self.steps)
        return optimal_weights(self.a_hat, factor)


def simulate_trial_data(cfg: ScenarioConfig, snr_index: int, trial: int):
    """Generate one trial's observations and ground truth at one SNR point.

    The realized desired steering is ``arrays.desired_steering`` on the
    trial's scattering stream.  Each segment of ``cfg.segments()`` makes its
    interferers' steering vectors once; they drive that span's snapshots and
    its true INC matrix ``I + sum_k p_int a_k a_k^H`` (powers in units of the
    noise power).

    Returns ``(ctx, desired_power)``: the :class:`TrialContext` every engine
    of the trial is built from, holding the M x n observations and true
    steering and the INC segments, and the desired signal's linear power.
    """
    snr_db = cfg.snr_points()[snr_index]
    seed = cfg.master_seed
    data_rng = rng.stream(seed, snr_index, trial, rng.ROLE_DATA)
    scat_rng = rng.stream(seed, snr_index, trial, rng.ROLE_SCATTER)
    init_rng = rng.stream(seed, snr_index, trial, rng.ROLE_INIT)

    n = cfg.snapshots
    a_nom = make_steering(cfg.sensors, cfg.desired_doa_deg)
    truth = desired_steering(a_nom, cfg.scattering, scat_rng, n)

    p_des, p_int = cfg.desired_power(snr_db), cfg.interferer_power(snr_db)
    observations = np.empty((cfg.sensors, n), dtype=complex)
    segments = []
    for start, end, doas in cfg.segments():
        interferers = [make_steering(cfg.sensors, d) for d in doas]
        observations[:, start:end] = generate_snapshots(
            truth[:, start:end], p_des, interferers, p_int, data_rng)
        r_in = np.eye(cfg.sensors, dtype=complex)
        for a in interferers:
            r_in += p_int * np.outer(a, a.conj())
        segments.append((start, end, r_in))

    theta0 = init_rng.uniform(cfg.desired_doa_deg - cfg.sector_halfwidth_deg,
                              cfg.desired_doa_deg + cfg.sector_halfwidth_deg)
    ctx = TrialContext(a_init=make_steering(cfg.sensors, theta0), a_nominal=a_nom,
                       num_sources=cfg.num_sources, observations=observations,
                       truth=truth, segments=segments)
    return ctx, p_des


def run_trial(cfg: ScenarioConfig, trial_index: int, snr_index: int = 0) -> TrialRecord:
    """Run every configured algorithm over one seeded trial at one SNR point."""
    ctx, p_des = simulate_trial_data(cfg, snr_index, trial_index)
    n = cfg.snapshots
    sinr = {name: np.full(n, np.nan) for name in cfg.algorithms}
    mse = {name: np.full(n, np.nan) for name in cfg.algorithms}
    failed = {name: False for name in cfg.algorithms}
    # Rows are strided views of the truth columns: OpenBLAS rounds a
    # unit-stride dot product differently, and the scores keep the bits of
    # the per-snapshot evaluation.
    truth = ctx.truth.T
    weights = np.empty((n, cfg.sensors), dtype=complex)
    a_hats = np.empty((n, cfg.sensors), dtype=complex)

    for name in cfg.algorithms:
        bf = ALGORITHMS[name](ctx)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for i in range(n):
                    weights[i] = bf.process(ctx.observations[:, i])
                    a_hats[i] = bf.a_hat
                for start, end, r_in in ctx.segments:
                    sinr[name][start:end] = output_sinr(
                        weights[start:end], p_des, truth[start:end], r_in)
                mse[name][:] = steering_mse(a_hats, truth)
        except (NumericError, np.linalg.LinAlgError, FloatingPointError):
            failed[name] = True

    return TrialRecord(sinr_db=sinr, steering_mse=mse, failed=failed)


def _trial_job(args):
    return run_trial(*args)


def _collect_trials(cfg: ScenarioConfig, snr_index: int, workers: int) -> list:
    jobs = [(cfg, t, snr_index) for t in range(cfg.trials)]
    # A fork pool starts all of its workers at the first submit, so ask for no
    # more workers than trials or than CPUs this process may run on.
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
    workers = min(workers, cfg.trials, len(cpus))
    if workers <= 1:
        return [_trial_job(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=kernels.pin_blas_threads) as pool:
        return list(pool.map(_trial_job, jobs, chunksize=max(1, cfg.trials // (4 * workers))))


def run_experiment(cfg: ScenarioConfig, workers: int = 1) -> AggregateResult:
    """Run `cfg.trials` independent trials per scenario point, each reduced
    to its rows.

    Snapshot studies (scalar SNR, one point) keep the whole dB-domain SINR
    trace, while SNR sweeps reduce a trial to its steady-state mean (last
    ``STEADY_WINDOW`` snapshots).  ``AggregateResult.means`` averages the rows
    across trials; the acceptance tests read them for paired Monte Carlo SEs
    and reuse one run for seed 42 of criterion 10a's seed ensemble.
    """
    if cfg.is_sweep:
        x_kind, x_values = "snr_db", cfg.snr_points()
        reduce = lambda trace: np.mean(trace[-STEADY_WINDOW:])
    else:
        x_kind, x_values = "snapshot", list(range(1, cfg.snapshots + 1))
        reduce = lambda trace: trace

    sinr, mse, failed = ({name: [] for name in cfg.algorithms} for _ in range(3))
    with kernels.single_blas_thread():
        for j, snr_db in enumerate(cfg.snr_points()):
            records = _collect_trials(cfg, j, workers)
            for name in cfg.algorithms:
                failed[name].append([r.failed[name] for r in records])
                if all(failed[name][-1]):
                    raise NumericError(
                        f"all trials failed for algorithm {name!r} at SNR {snr_db} dB")
                sinr[name].append([reduce(r.sinr_db[name]) for r in records])
                mse[name].append([reduce(r.steering_mse[name]) for r in records])
    stack = lambda rows: {name: np.array(v) for name, v in rows.items()}
    return AggregateResult(x_kind, x_values, stack(sinr), stack(mse), stack(failed))


def write_csv(result: AggregateResult, path) -> None:
    """Persist the aggregate, one row per (algorithm, x point).

    Floats are serialized with ``repr`` (shortest round-trip form) and rows
    are ordered by algorithm name then x, so identical experiments produce
    byte-identical files.
    """
    lines = ["algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"]
    for name in sorted(result.sinr_db):
        sinr, mse, trials = result.means(name)
        for j, x in enumerate(result.x_values):
            lines.append(",".join([name, result.x_kind, repr(x), repr(float(sinr[j])),
                                   repr(float(mse[j])), str(trials[j])]))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
