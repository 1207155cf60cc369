"""Scenario configuration: dataclasses plus strict JSON ingestion.

A scenario file describes the array, the sources and their power ratios, the
mismatch model, the algorithm roster with per-algorithm parameters, and the
Monte Carlo shape (snapshots, trials, master seed).  Unknown keys anywhere in
the document are rejected so typos fail fast instead of silently running the
default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .arrays import ScatteringSpec, SourceConfig
from .errors import ConfigError, ParameterError
from .harness import ALGORITHMS

_JSON_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def _has_json_type(value, kind: type) -> bool:
    """JSON typing: booleans only as true/false, an int parameter only as an
    integer, a float parameter as any number."""
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One roster entry, checked against the registry ``harness.ALGORITHMS``.

    Parameter ranges are checked when the engine is built.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.name!r}; "
                              f"expected one of {tuple(ALGORITHMS)}")
        accepted = ALGORITHMS[self.name].params
        extra = set(self.params) - set(accepted)
        if extra:
            raise ConfigError(f"unknown parameter(s) {sorted(extra)} for "
                              f"algorithm {self.name!r}")
        for key, value in self.params.items():
            kind = accepted[key].kind
            if not _has_json_type(value, kind):
                raise ConfigError(f"parameter {key!r} of algorithm {self.name!r} "
                                  f"must be a JSON {_JSON_NAMES[kind]}, got {value!r}")


@dataclass(frozen=True)
class ScheduleChange:
    """Interferer redistribution taking effect at ``start_snapshot`` (1-based)."""

    start_snapshot: int
    interferer_doas_deg: tuple


@dataclass
class ScenarioConfig:
    sensors: int
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
    algorithms: list = field(default_factory=list)
    master_seed: int = 0
    interferer_schedule: list = field(default_factory=list)

    def __post_init__(self):
        if self.sensors < 2:
            raise ConfigError("sensors must be >= 2")
        if self.snapshots < 1 or self.trials < 1:
            raise ConfigError("snapshots and trials must be >= 1")
        if isinstance(self.snr_db, list) and not self.snr_db:
            raise ConfigError("snr_db sweep list must not be empty")
        if self.noise_power <= 0:
            raise ConfigError("noise_power must be > 0")
        names = [spec.name for spec in self.algorithms]
        if len(names) != len(set(names)):
            raise ConfigError("algorithm names must be unique within a scenario")
        prev = 1
        for change in self.interferer_schedule:
            if not 1 <= change.start_snapshot <= self.snapshots:
                raise ConfigError("schedule change-points must lie in [1, snapshots]")
            if change.start_snapshot <= prev:
                raise ConfigError("schedule change-points must be strictly increasing")
            prev = change.start_snapshot

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

    def segments(self, snr_db: float) -> list:
        """Resolved ``(start_index0, sources)`` list covering all snapshots."""
        p_des = self.desired_power(snr_db)
        p_int = self.interferer_power(snr_db)

        def sources_for(doas):
            out = [SourceConfig(self.desired_doa_deg, p_des, is_desired=True)]
            out.extend(SourceConfig(d, p_int) for d in doas)
            return out

        segs = [(0, sources_for(self.interferer_doas_deg))]
        for change in self.interferer_schedule:
            segs.append((change.start_snapshot - 1, sources_for(change.interferer_doas_deg)))
        return segs

    @property
    def num_sources(self) -> int:
        """Source count the algorithms are told (initial desired + interferers)."""
        return 1 + len(self.interferer_doas_deg)


def _take(mapping: dict, context: str, allowed: dict):
    extra = set(mapping) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {context}")


_TOP_KEYS = {
    "sensors", "desired_doa_deg", "interferer_doas_deg", "snr_db", "sir_db",
    "inr_db", "noise_power", "scattering", "sector_halfwidth_deg",
    "snapshots", "trials", "algorithms", "master_seed", "interferer_schedule",
}
_SCATTER_KEYS = {"kind", "num_paths", "angle_mean_deg", "angle_std_deg"}
_SCHEDULE_KEYS = {"start_snapshot", "interferer_doas_deg"}


def config_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _take(doc, "scenario", dict.fromkeys(_TOP_KEYS))
    if "sensors" not in doc:
        raise ConfigError("scenario must set 'sensors'")

    scattering = ScatteringSpec()
    if "scattering" in doc:
        sc = doc["scattering"]
        if not isinstance(sc, dict):
            raise ConfigError("'scattering' must be an object")
        _take(sc, "scattering", dict.fromkeys(_SCATTER_KEYS))
        defaults = {"angle_mean_deg": doc.get("desired_doa_deg", 10.0)}
        try:
            scattering = ScatteringSpec(**{**defaults, **sc})
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    algorithms = []
    for entry in doc.get("algorithms", []):
        if isinstance(entry, str):
            algorithms.append(AlgorithmSpec(entry))
        elif isinstance(entry, dict):
            if "name" not in entry:
                raise ConfigError("algorithm entries must carry a 'name'")
            params = {k: v for k, v in entry.items() if k != "name"}
            algorithms.append(AlgorithmSpec(entry["name"], params))
        else:
            raise ConfigError("algorithm entries must be strings or objects")

    schedule = []
    for entry in doc.get("interferer_schedule", []):
        if not isinstance(entry, dict):
            raise ConfigError("schedule entries must be objects")
        _take(entry, "interferer_schedule", dict.fromkeys(_SCHEDULE_KEYS))
        if "start_snapshot" not in entry or "interferer_doas_deg" not in entry:
            raise ConfigError("schedule entries need start_snapshot and interferer_doas_deg")
        schedule.append(ScheduleChange(int(entry["start_snapshot"]),
                                       tuple(entry["interferer_doas_deg"])))

    kwargs = {k: v for k, v in doc.items()
              if k in _TOP_KEYS - {"scattering", "algorithms", "interferer_schedule"}}
    kwargs["interferer_doas_deg"] = tuple(doc.get("interferer_doas_deg", ()))
    try:
        return ScenarioConfig(scattering=scattering, algorithms=algorithms,
                              interferer_schedule=schedule, **kwargs)
    except (TypeError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)
