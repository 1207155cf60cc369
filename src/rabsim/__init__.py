"""Robust adaptive beamforming with Krylov-subspace steering estimation.

Numerical building blocks (array model, covariance tracking, Arnoldi bases,
the beamformer family and its baselines, closed-form analysis) plus a seeded
Monte Carlo harness with a CSV-producing CLI.
"""

__version__ = "0.1.0"

from .adaptive import (CcgBeamformer, McgBeamformer, SgBeamformer, ccg_inner,
                       mcg_alpha_a, mcg_alpha_v_bound, sg_update)
from .analysis import (FlopModel, MseBounds, epsilon_moments, flops,
                       loaded_smi_weights, mse_bounds, optimal_sinr,
                       optimal_weights, output_sinr, smi_weights, steering_mse)
from .arrays import (ScatteringSpec, SnapshotBatch, SourceConfig,
                     generate_snapshots, make_coherent_mismatch,
                     make_incoherent_mismatch_stream, make_steering)
from .config import AlgorithmSpec, ScenarioConfig, config_from_dict, load_config
from .errors import ConfigError, ExperimentError, NumericError, ParameterError
from .harness import (AggregateResult, TrialRecord, run_experiment, run_trial,
                      write_csv)
from .krylov import KrylovBasis, arnoldi_mgs, make_projector
from .okspme import (NoisePowerSource, OkspmeBeamformer, SteeringEstimator,
                     build_rhs, default_estimator, estimate_power, inc_matrix,
                     mvdr_weights, residue, update_steering)
from .tracking import CovarianceTracker
