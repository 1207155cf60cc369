"""Command-line front end.

Subcommands:

* ``simulate``: run a scenario file and write the aggregate CSV.
* ``mse-bounds``: print the closed-form steering-MSE bounds for a sector.
* ``flops``: print the per-snapshot flop count of an algorithm.

Exit codes: 0 success, 2 configuration error (``ParameterError``), 3 numeric
failure (``NumericError``), 4 I/O error (``OSError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import __version__
from .analysis import FLOP_ALGORITHMS, FlopModel, flops, mse_bounds
from .config import load_config
from .errors import NumericError, ParameterError
from .harness import run_experiment, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabsim",
        description="Robust adaptive beamforming simulations and analysis tools.")
    parser.add_argument("--version", action="version", version=f"rabsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--threads", type=int, default=1, help="trial workers (>= 1)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario master seed")

    mb = sub.add_parser("mse-bounds", help="steering-MSE bounds for a sector")
    mb.add_argument("--theta-deg", type=float, required=True,
                    help="sector half-angle in degrees")
    mb.add_argument("--norm-sq", type=float, required=True,
                    help="squared norm of the true steering vector")
    mb.add_argument("--method", choices=("sqp", "okspme"), default="okspme")

    fl = sub.add_parser("flops", help="per-snapshot flop count")
    fl.add_argument("--algorithm", required=True,
                    help=f"one of {', '.join(FLOP_ALGORITHMS)} (case-insensitive)")
    fl.add_argument("--m-sensors", type=int, required=True)
    fl.add_argument("--order", type=int, default=None, help="Krylov order m")
    fl.add_argument("--inner", type=int, default=None, help="inner iterations n")
    return parser


def _cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {args.threads}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)   # re-validates
    result = run_experiment(cfg, workers=args.threads)
    write_csv(result, args.out)
    n_rows = len(result.sinr_db) * len(result.x_values)
    print(f"wrote {n_rows} rows to {args.out}")
    for name in sorted(result.failed):
        if result.failed[name].any():
            print(f"warning: {result.failed[name].sum()} failed trial(s) for {name}",
                  file=sys.stderr)
    return EXIT_OK


def _cmd_mse_bounds(args) -> int:
    theta = math.radians(args.theta_deg)
    bounds = mse_bounds(theta, args.norm_sq, method=args.method)
    print(f"method={bounds.method} theta_rad={theta!r} "
          f"lower={bounds.lower!r} upper={bounds.upper!r}")
    return EXIT_OK


def _cmd_flops(args) -> int:
    model = FlopModel(args.algorithm.lower(), args.m_sensors,
                      order=args.order, inner=args.inner)
    print(flops(model))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "mse-bounds":
            return _cmd_mse_bounds(args)
        return _cmd_flops(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
