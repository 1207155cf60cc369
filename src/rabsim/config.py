"""Scenario configuration: dataclasses plus strict JSON ingestion.

A scenario file describes the array, the sources and their power ratios, the
mismatch model, the algorithm roster (a list of names), and the Monte Carlo
shape (snapshots, trials, master seed).  Unknown keys anywhere in the document
are rejected so typos fail fast instead of silently running the default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arrays import SQRT3, ScatteringSpec
from .errors import ConfigError, ParameterError
from .harness import ALGORITHMS


def _has_json_type(value, kind: type) -> bool:
    """JSON typing: true/false is never a number, an int value only an
    integer, a float value any number."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class ScheduleChange:
    """Interferer redistribution taking effect at ``start_snapshot`` (1-based)."""

    start_snapshot: int
    interferer_doas_deg: tuple


def _check_angles(what: str, lo: float, hi: float) -> None:
    """Reject an angle span ``[lo, hi]`` (degrees) reaching outside [-90, 90]."""
    if not (-90.0 <= lo and hi <= 90.0):
        span = f"{lo!r}" if lo == hi else f"[{lo!r}, {hi!r}]"
        raise ConfigError(f"{what} {span} must lie in [-90, 90] degrees")


@dataclass
class ScenarioConfig:
    """One scenario, checked when created.

    ``algorithms`` lists one or more distinct names from ``harness.ALGORITHMS``.
    Every angle a trial can draw must lie in [-90, 90] degrees: the source
    DoAs (schedule included), the presumed sector ``desired +- halfwidth`` the
    initial steering is drawn from, and the scattered-path support
    ``mean +- sqrt(3) std``.
    """

    sensors: int
    algorithms: list
    desired_doa_deg: float = 10.0
    interferer_doas_deg: tuple = ()
    snr_db: float | list = 10.0
    sir_db: float = 0.0
    inr_db: float | None = None
    noise_power: float = 1.0
    scattering: ScatteringSpec = field(default_factory=ScatteringSpec)
    sector_halfwidth_deg: float = 5.0
    snapshots: int = 300
    trials: int = 100
    master_seed: int = 0
    interferer_schedule: list = field(default_factory=list)

    def __post_init__(self):
        if self.sensors < 2:
            raise ConfigError("sensors must be >= 2")
        if self.snapshots < 1 or self.trials < 1:
            raise ConfigError("snapshots and trials must be >= 1")
        self._check_array_sizes()
        if isinstance(self.snr_db, list) and not self.snr_db:
            raise ConfigError("snr_db sweep list must not be empty")
        if self.noise_power <= 0:
            raise ConfigError("noise_power must be > 0")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.sector_halfwidth_deg < 0:
            raise ConfigError("sector_halfwidth_deg must be >= 0")
        for snr_db in self.snr_points():
            try:
                finite = (math.isfinite(self.desired_power(snr_db))
                          and math.isfinite(self.interferer_power(snr_db)))
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                raise ConfigError(f"the source powers at SNR {snr_db} dB overflow "
                                  "(check snr_db, sir_db and inr_db)")
        if not self.algorithms:
            raise ConfigError("'algorithms' must name at least one algorithm")
        for name in self.algorithms:
            if not isinstance(name, str):
                raise ConfigError(f"algorithm entries must be names, got {name!r}")
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; "
                                  f"expected one of {tuple(ALGORITHMS)}")
        if len(self.algorithms) != len(set(self.algorithms)):
            raise ConfigError("algorithm names must be unique within a scenario")
        # The first segment must hold at least one snapshot.
        prev = 1
        for change in self.interferer_schedule:
            if not 2 <= change.start_snapshot <= self.snapshots:
                raise ConfigError("schedule change-points must lie in [2, snapshots]")
            if change.start_snapshot <= prev:
                raise ConfigError("schedule change-points must be strictly increasing")
            prev = change.start_snapshot
        self._check_drawn_angles()

    def _check_array_sizes(self) -> None:
        """Reject sizes no array can have, before any array is made.

        Each complex array a trial makes, M x M, M x snapshots and, with
        scattering on, (num_paths + 1) x M, must fit the largest byte count
        an array index can address.
        """
        m = self.sensors
        shapes = [(m, m), (m, self.snapshots)]
        if self.scattering.kind != "none":
            shapes.append((self.scattering.num_paths + 1, m))
        for rows, cols in shapes:
            if rows * cols * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
                raise ConfigError(f"a {rows} x {cols} complex array is too large "
                                  "to allocate (check sensors, snapshots and num_paths)")

    def _check_drawn_angles(self) -> None:
        doa = self.desired_doa_deg
        _check_angles("desired_doa_deg", doa, doa)
        for d in self.interferer_doas_deg:
            _check_angles("interferer DoA", d, d)
        for change in self.interferer_schedule:
            for d in change.interferer_doas_deg:
                _check_angles("scheduled interferer DoA", d, d)
        half = self.sector_halfwidth_deg
        _check_angles("presumed sector desired_doa_deg +- sector_halfwidth_deg",
                      doa - half, doa + half)
        sc = self.scattering
        if sc.kind != "none" and sc.num_paths > 0:
            spread = SQRT3 * sc.angle_std_deg
            _check_angles("scattering support angle_mean_deg +- sqrt(3) angle_std_deg",
                          sc.angle_mean_deg - spread, sc.angle_mean_deg + spread)

    # Power bookkeeping: the desired power follows the SNR, interferer powers
    # follow the INR when given (relative to noise) and the SIR otherwise
    # (relative to the desired signal).
    def snr_points(self) -> list:
        if isinstance(self.snr_db, list):
            return [float(v) for v in self.snr_db]
        return [float(self.snr_db)]

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.snr_db, list)

    def desired_power(self, snr_db: float) -> float:
        return self.noise_power * 10.0 ** (snr_db / 10.0)

    def interferer_power(self, snr_db: float) -> float:
        if self.inr_db is not None:
            return self.noise_power * 10.0 ** (self.inr_db / 10.0)
        return self.desired_power(snr_db) / 10.0 ** (self.sir_db / 10.0)

    def segments(self) -> list:
        """The ``(start, end, interferer_doas_deg)`` spans of snapshots that
        share one interferer set, in order and tiling ``[0, snapshots)``."""
        starts = [0] + [c.start_snapshot - 1 for c in self.interferer_schedule]
        ends = starts[1:] + [self.snapshots]
        doas = [self.interferer_doas_deg] + [c.interferer_doas_deg
                                             for c in self.interferer_schedule]
        return list(zip(starts, ends, doas))

    @property
    def num_sources(self) -> int:
        """Source count the algorithms are told (initial desired + interferers)."""
        return 1 + len(self.interferer_doas_deg)


def _integer(value, key: str) -> None:
    if not _has_json_type(value, int):
        raise ConfigError(f"{key!r} must be a JSON integer, got {value!r}")


def _number(value, key: str) -> None:
    try:
        finite = _has_json_type(value, float) and math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key!r} must be a finite JSON number, got {value!r}")


def _numbers(value, key: str) -> None:
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a JSON array of numbers, got {value!r}")
    for item in value:
        _number(item, key)


def _number_or_numbers(value, key: str) -> None:
    if isinstance(value, list):
        _numbers(value, key)
    else:
        _number(value, key)


def _number_or_null(value, key: str) -> None:
    if value is not None:
        _number(value, key)


def _take(mapping: dict, context: str, allowed: dict):
    """Reject unknown keys, then check each value with its key's checker."""
    extra = set(mapping) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {context}")
    for key, value in mapping.items():
        if allowed[key] is not None:
            allowed[key](value, key)


# Accepted keys and the check of each value's JSON type (None: checked where
# the value is built).
_TOP_KEYS = {
    "sensors": _integer, "desired_doa_deg": _number,
    "interferer_doas_deg": _numbers, "snr_db": _number_or_numbers,
    "sir_db": _number, "inr_db": _number_or_null, "noise_power": _number,
    "scattering": None, "sector_halfwidth_deg": _number, "snapshots": _integer,
    "trials": _integer, "algorithms": None, "master_seed": _integer,
    "interferer_schedule": None,
}
_SCATTER_KEYS = {"kind": None, "num_paths": _integer,
                 "angle_mean_deg": _number, "angle_std_deg": _number}
_SCHEDULE_KEYS = {"start_snapshot": _integer, "interferer_doas_deg": _numbers}


def config_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _take(doc, "scenario", _TOP_KEYS)
    if "sensors" not in doc:
        raise ConfigError("scenario must set 'sensors'")

    scattering = ScatteringSpec()
    if "scattering" in doc:
        sc = doc["scattering"]
        if not isinstance(sc, dict):
            raise ConfigError("'scattering' must be an object")
        _take(sc, "scattering", _SCATTER_KEYS)
        defaults = {"angle_mean_deg": doc.get("desired_doa_deg", 10.0)}
        try:
            scattering = ScatteringSpec(**{**defaults, **sc})
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    roster = doc.get("algorithms")
    if not isinstance(roster, list):
        raise ConfigError("'algorithms' must be a JSON array")
    schedule = []
    schedule_doc = doc.get("interferer_schedule", [])
    if not isinstance(schedule_doc, list):
        raise ConfigError("'interferer_schedule' must be a JSON array")
    for entry in schedule_doc:
        if not isinstance(entry, dict):
            raise ConfigError("schedule entries must be objects")
        _take(entry, "interferer_schedule", _SCHEDULE_KEYS)
        if "start_snapshot" not in entry or "interferer_doas_deg" not in entry:
            raise ConfigError("schedule entries need start_snapshot and interferer_doas_deg")
        schedule.append(ScheduleChange(entry["start_snapshot"],
                                       tuple(entry["interferer_doas_deg"])))

    kwargs = {k: v for k, v in doc.items()
              if k in _TOP_KEYS.keys() - {"scattering", "algorithms", "interferer_schedule"}}
    kwargs["interferer_doas_deg"] = tuple(doc.get("interferer_doas_deg", ()))
    try:
        return ScenarioConfig(scattering=scattering, algorithms=roster,
                              interferer_schedule=schedule, **kwargs)
    except (TypeError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    # ValueError: not UTF-8, not JSON, or an integer with too many digits;
    # RecursionError: arrays or objects nested too deeply for the parser
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)
