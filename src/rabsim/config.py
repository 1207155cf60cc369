"""Scenario configuration: dataclasses plus strict JSON ingestion.

A scenario file describes the array, the sources and their power ratios, the
mismatch model, the algorithm roster (a list of names), and the Monte Carlo
shape (snapshots, trials, master seed).  Unknown keys anywhere in the document
are rejected so typos fail fast instead of silently running the default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arrays import ScatteringSpec
from .errors import ParameterError
from .harness import ALGORITHMS


@dataclass(frozen=True)
class ScheduleChange:
    """Interferer redistribution taking effect at ``start_snapshot`` (1-based)."""

    start_snapshot: int
    interferer_doas_deg: tuple


def _check_angles(what: str, lo: float, hi: float) -> None:
    """Reject an angle span ``[lo, hi]`` (degrees) reaching outside [-90, 90]."""
    if not (-90.0 <= lo and hi <= 90.0):
        span = f"{lo!r}" if lo == hi else f"[{lo!r}, {hi!r}]"
        raise ParameterError(f"{what} {span} must lie in [-90, 90] degrees")


@dataclass
class ScenarioConfig:
    """One scenario, checked when created.

    ``algorithms`` lists one or more distinct names from ``harness.ALGORITHMS``.
    Every angle a trial can draw must lie in [-90, 90] degrees: the source
    DoAs (schedule included), the presumed sector ``desired +- halfwidth`` the
    initial steering is drawn from, and the scattered-path support
    ``scattering.support_deg``.
    """

    sensors: int
    algorithms: list
    desired_doa_deg: float = 10.0
    interferer_doas_deg: tuple = ()
    snr_db: float | list = 10.0
    sir_db: float = 0.0
    inr_db: float | None = None
    scattering: ScatteringSpec = field(default_factory=ScatteringSpec)
    sector_halfwidth_deg: float = 5.0
    snapshots: int = 300
    trials: int = 100
    master_seed: int = 0
    interferer_schedule: list = field(default_factory=list)

    def __post_init__(self):
        if self.sensors < 2:
            raise ParameterError("sensors must be >= 2")
        if self.snapshots < 1 or self.trials < 1:
            raise ParameterError("snapshots and trials must be >= 1")
        self._check_array_sizes()
        if isinstance(self.snr_db, list) and not self.snr_db:
            raise ParameterError("snr_db sweep list must not be empty")
        if self.master_seed < 0:
            raise ParameterError("master_seed must be >= 0")
        if self.sector_halfwidth_deg < 0:
            raise ParameterError("sector_halfwidth_deg must be >= 0")
        # The true INC matrix's diagonal is 1 + K p_int, K the largest
        # interferer count of a segment (at K = 0 an infinite p_int gives NaN).
        most = max(len(doas) for _, _, doas in self.segments())
        for snr_db in self.snr_points():
            try:
                finite = (math.isfinite(self.desired_power(snr_db))
                          and math.isfinite(1.0 + most * self.interferer_power(snr_db)))
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                raise ParameterError(f"the source powers at SNR {snr_db} dB overflow "
                                     "(check snr_db, sir_db and inr_db)")
        if not self.algorithms:
            raise ParameterError("'algorithms' must name at least one algorithm")
        for name in self.algorithms:
            if not isinstance(name, str):
                raise ParameterError(f"algorithm entries must be names, got {name!r}")
            if name not in ALGORITHMS:
                raise ParameterError(f"unknown algorithm {name!r}; "
                                     f"expected one of {tuple(ALGORITHMS)}")
        if len(self.algorithms) != len(set(self.algorithms)):
            raise ParameterError("algorithm names must be unique within a scenario")
        # The first segment must hold at least one snapshot.
        prev = 1
        for change in self.interferer_schedule:
            if not 2 <= change.start_snapshot <= self.snapshots:
                raise ParameterError("schedule change-points must lie in [2, snapshots]")
            if change.start_snapshot <= prev:
                raise ParameterError("schedule change-points must be strictly increasing")
            prev = change.start_snapshot
        self._check_drawn_angles()

    def _check_array_sizes(self) -> None:
        """Reject sizes no array can have, before any array is made.

        Each complex array a trial makes, M x M, M x snapshots, with
        scattering on (num_paths + 1) x M and with incoherent scattering the
        snapshots x (num_paths + 1) path gains, must fit the largest byte
        count an array index can address.
        """
        m = self.sensors
        shapes = [(m, m), (m, self.snapshots)]
        if self.scattering.kind != "none":
            shapes.append((self.scattering.num_paths + 1, m))
        if self.scattering.kind == "incoherent":
            shapes.append((self.snapshots, self.scattering.num_paths + 1))
        for rows, cols in shapes:
            if rows * cols * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
                raise ParameterError(f"a {rows} x {cols} complex array is too large "
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
            _check_angles("scattering support angle_mean_deg +- sqrt(3) angle_std_deg",
                          *sc.support_deg)

    # Power bookkeeping, in units of the noise power: the desired power
    # follows the SNR, interferer powers follow the INR when given and the
    # SIR otherwise (relative to the desired signal).
    def snr_points(self) -> list:
        if isinstance(self.snr_db, list):
            return [float(v) for v in self.snr_db]
        return [float(self.snr_db)]

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.snr_db, list)

    def desired_power(self, snr_db: float) -> float:
        return 10.0 ** (snr_db / 10.0)

    def interferer_power(self, snr_db: float) -> float:
        if self.inr_db is not None:
            return 10.0 ** (self.inr_db / 10.0)
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


# JSON value checks: true/false is never a number, an integer field takes
# only JSON integers, a number field any finite number.
def _integer(value, key: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{key!r} must be a JSON integer, got {value!r}")


def _number(value, key: str) -> None:
    try:
        finite = (not isinstance(value, bool) and isinstance(value, (int, float))
                  and math.isfinite(value))
    except OverflowError:       # an integer beyond the float range
        finite = False
    if not finite:
        raise ParameterError(f"{key!r} must be a finite JSON number, got {value!r}")


def _array(value, key: str) -> None:
    if not isinstance(value, list):
        raise ParameterError(f"{key!r} must be a JSON array, got {value!r}")


def _numbers(value, key: str) -> None:
    _array(value, key)
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


# The JSON type check of a field, by its annotation.  A field of another
# annotation (a name, a nested object) is checked where its value is built.
_JSON_CHECKS = {int: _integer, float: _number, tuple: _numbers, list: _array,
                float | list: _number_or_numbers, float | None: _number_or_null}


def _arguments(cls, obj, context: str) -> dict:
    """The keyword arguments of dataclass ``cls`` the JSON object ``obj`` gives:
    every key a field, every value of its field's JSON type, every field
    without a default present, and JSON arrays turned into tuples."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{context} must be a JSON object")
    kinds = typing.get_type_hints(cls)
    extra = obj.keys() - kinds.keys()
    if extra:
        raise ParameterError(f"unknown key(s) {sorted(extra)} in {context}")
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise ParameterError(f"{context} must set {f.name!r}")
        elif kinds[f.name] in _JSON_CHECKS:
            _JSON_CHECKS[kinds[f.name]](obj[f.name], f.name)
    return {key: tuple(value) if kinds[key] is tuple else value
            for key, value in obj.items()}


def _build(cls, obj, context: str, **defaults):
    """Dataclass ``cls`` built from the JSON object ``obj``; ``defaults``
    stand in for the fields ``obj`` leaves out."""
    return cls(**{**defaults, **_arguments(cls, obj, context)})


def config_from_dict(doc) -> ScenarioConfig:
    # The top-level values are checked before the nested objects are built,
    # so a mistyped desired_doa_deg is reported under its own name and not
    # as the scattering mean it stands in for.
    kwargs = _arguments(ScenarioConfig, doc, "scenario")
    try:
        if "scattering" in kwargs:
            kwargs["scattering"] = _build(
                ScatteringSpec, kwargs["scattering"], "'scattering'",
                angle_mean_deg=kwargs.get("desired_doa_deg", ScenarioConfig.desired_doa_deg))
        kwargs["interferer_schedule"] = [
            _build(ScheduleChange, entry, "an 'interferer_schedule' entry")
            for entry in kwargs.get("interferer_schedule", [])]
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ParameterError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    # ValueError: not UTF-8, not JSON, or an integer with too many digits;
    # RecursionError: arrays or objects nested too deeply for the parser
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)
