"""Experiment configuration: presets, JSON loading, strict key checking.

The `channel`, `cost`, `generator` and `ssim` sections are the domain types
of the modules that consume them, so each section is validated once, when
the config is built, and a bad value fails as a ConfigError naming it. The
top-level fields are checked the same way, against each other too: a fleet
that cannot fill its per-sub-region quota fails here, before any data exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .channel import ChannelParams
from .cost import CostParams
from .datagen import GenSpec
from .errors import ConfigError, InvariantViolation
from .learning import ModelSpec
from .similarity import SsimParams

SCENARIO_PRESETS = {
    # (n_uavs, cohort_size, subregion_count, per_subregion_quota, n_rounds_max)
    "scenario1": (40, 10, 10, 1, 200),
    "scenario2": (100, 20, 10, 2, 200),
}


@dataclass
class ModelConfig:
    hidden_dim: int = 64
    learning_rate: float = 1e-2
    batch_size: int = 32
    adam_eps: float = 1e-8


@dataclass
class GeometryConfig:
    region_m: float = 1000.0       # square side; UAVs uniform on it
    uav_altitude_m: float = 100.0
    bs_altitude_m: float = 30.0


@dataclass
class BatteryConfig:
    min_j: float = 1e3
    max_j: float = 1e4


# field annotation -> the JSON value types it accepts (bool only for bool)
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _check_types(cls, values: dict, where: str = "") -> None:
    """Raise a ConfigError for a value that is not of its `cls` field's
    annotated scalar type; an int passes for a float, a bool only for a bool."""
    for f in dataclasses.fields(cls):
        kinds = _SCALAR_TYPES.get(f.type)
        if kinds and f.name in values:
            value = values[f.name]
            if not isinstance(value, kinds) or isinstance(value, bool) != (f.type == "bool"):
                raise ConfigError(f"{where}{f.name}: expected {f.type}, got {type(value).__name__}")


@dataclass
class ExperimentConfig:
    scenario: str = "scenario1"    # scenario1 | scenario2 | custom
    n_uavs: int = 40
    cohort_size: int = 10
    subregion_count: int = 10
    per_subregion_quota: int = 1
    n_rounds_max: int = 200
    strategy: str = "deeps"        # deeps | random
    ssim_threshold: float = 0.5
    xi: float = 0.5
    master_seed: int = 0
    output_dir: str = "out"
    stop_on_convergence: bool = False
    convergence_window: int = 10
    convergence_tol: float = 0.005
    workers: int = 1
    channel: ChannelParams = field(default_factory=ChannelParams)
    cost: CostParams = field(default_factory=CostParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    generator: GenSpec = field(default_factory=GenSpec)
    ssim: SsimParams = field(default_factory=SsimParams)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    battery: BatteryConfig = field(default_factory=BatteryConfig)

    def __post_init__(self):
        _check_types(type(self), vars(self))
        if self.scenario not in ("scenario1", "scenario2", "custom"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.strategy not in ("deeps", "random"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.scenario in SCENARIO_PRESETS:
            n, nr, m, q, rmax = SCENARIO_PRESETS[self.scenario]
            self.n_uavs, self.cohort_size = n, nr
            self.subregion_count, self.per_subregion_quota = m, q
            self.n_rounds_max = rmax
        for name in ("n_rounds_max", "per_subregion_quota", "subregion_count",
                     "convergence_window", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.cohort_size != self.per_subregion_quota * self.subregion_count:
            raise ConfigError("cohort_size must equal quota x subregion_count")
        # UAV i flies sub-region (i - 1) mod subregion_count + 1, so every
        # sub-region holds its quota exactly when the fleet holds a cohort
        if self.n_uavs < self.cohort_size:
            raise ConfigError(f"n_uavs {self.n_uavs} < cohort_size {self.cohort_size}: "
                              f"some sub-region holds fewer UAVs than its quota")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError(f"xi must lie in [0, 1], got {self.xi}")
        if not 0.0 < self.ssim_threshold < 1.0:
            raise ConfigError(f"ssim_threshold must lie in (0, 1), got {self.ssim_threshold}")
        try:
            self.model_spec()
        except (InvariantViolation, TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc

    def model_spec(self) -> ModelSpec:
        """The model a run trains: the `model` section on flattened
        generator.image_side x image_side inputs."""
        m = self.model
        return ModelSpec(input_dim=self.generator.image_side ** 2, hidden_dim=m.hidden_dim,
                         learning_rate=m.learning_rate, batch_size=m.batch_size,
                         adam_eps=m.adam_eps)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


_NESTED = {
    "channel": ChannelParams,
    "cost": CostParams,
    "model": ModelConfig,
    "generator": GenSpec,
    "ssim": SsimParams,
    "geometry": GeometryConfig,
    "battery": BatteryConfig,
}


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    _check_types(cls, data, f"{where}: ")
    try:
        return cls(**data)
    except (InvariantViolation, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a plain dict, rejecting unknown keys at any level."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED:
            kwargs[key] = _build(_NESTED[key], value, key)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Load a JSON config file; `overrides` replace top-level keys before it is
    validated. An unreadable file or malformed JSON fails as a ConfigError
    naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = {**data, **overrides}
    return config_from_dict(data)
