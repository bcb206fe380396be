"""Experiment configuration: JSON loading, strict key checking.

The `channel`, `cost`, `generator`, `model` and `ssim` sections are the
domain types of the modules that consume them, and `geometry` and `battery`
are defined here; each section is validated once, when the config is built,
and a bad value fails as a ConfigError naming it. The top-level fields are
checked the same way, against each other too: a fleet that cannot fill its
per-sub-region quota, or a link budget that gives some placement of the
geometry a zero or infinite rate, fails here, before any data exists. Every
config type is frozen, so no value can change after its check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

from .channel import ChannelParams, LinkGeometry, capacity, channel_gain, link_geometry
from .cost import CostParams
from .datagen import GenSpec
from .errors import ConfigError, InvariantViolation
from .learning import ModelSpec
from .similarity import SsimParams

@dataclass(frozen=True)
class GeometryConfig:
    region_m: float = 1000.0       # square side; UAVs uniform on it
    uav_altitude_m: float = 100.0
    bs_altitude_m: float = 30.0

    def __post_init__(self):
        if not self.region_m > 0:
            raise InvariantViolation(f"region_m must be > 0, got {self.region_m}")
        if self.uav_altitude_m < 0 or self.bs_altitude_m < 0:
            raise InvariantViolation("altitudes must be >= 0")


@dataclass(frozen=True)
class BatteryConfig:
    min_j: float = 1e3             # each UAV's initial charge is uniform on [min_j, max_j]
    max_j: float = 1e4

    def __post_init__(self):
        if not 0 <= self.min_j <= self.max_j or not self.max_j > 0:
            raise InvariantViolation(
                f"need 0 <= min_j <= max_j and max_j > 0, got [{self.min_j}, {self.max_j}]")


# field annotation -> the JSON value types it accepts
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str}


def _check_types(cls, values: dict, where: str = "") -> None:
    """Raise a ConfigError for a value that is not of its `cls` field's
    annotated scalar type; an int passes for a float, and a bool (an int to
    Python) and NaN and +-inf for nothing."""
    for f in dataclasses.fields(cls):
        kinds = _SCALAR_TYPES.get(f.type)
        if kinds and f.name in values:
            value = values[f.name]
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"{where}{f.name}: expected {f.type}, "
                                  f"got {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{where}{f.name}: must be finite, got {value}")


# the values only the deeps strategy reads: its threshold, its xi and its SSIM
_DEEPS_ONLY = ("ssim_threshold", "xi", "ssim")


@dataclass(frozen=True)
class ExperimentConfig:
    # the fleet: the paper's scenario 1 (configs/scenario2.json holds scenario 2)
    n_uavs: int = 40
    cohort_size: int = 10
    subregion_count: int = 10
    per_subregion_quota: int = 1
    n_rounds_max: int = 200
    strategy: str = "deeps"        # deeps | random
    ssim_threshold: float = 0.5
    xi: float = 0.5
    master_seed: int = 0
    convergence_window: int = 10
    convergence_tol: float = 0.005
    workers: int = 1
    channel: ChannelParams = field(default_factory=ChannelParams)
    cost: CostParams = field(default_factory=CostParams)
    model: ModelSpec = field(default_factory=ModelSpec)
    generator: GenSpec = field(default_factory=GenSpec)
    ssim: SsimParams = field(default_factory=SsimParams)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    battery: BatteryConfig = field(default_factory=BatteryConfig)

    def __post_init__(self):
        _check_types(type(self), vars(self))
        if self.strategy not in ("deeps", "random"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
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
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError(f"xi must lie in [0, 1], got {self.xi}")
        if not 0.0 < self.ssim_threshold < 1.0:
            raise ConfigError(f"ssim_threshold must lie in (0, 1), got {self.ssim_threshold}")
        if not self.convergence_tol > 0.0:
            raise ConfigError(f"convergence_tol must be > 0, got {self.convergence_tol}")
        # no UAV holds more than samples_max samples, so if those round to no
        # test sample, no UAV's do
        gen = self.generator
        if round(gen.test_fraction * gen.samples_max) == 0:
            raise ConfigError(f"generator.test_fraction {gen.test_fraction} "
                              "leaves every UAV without a test sample")
        if not math.isfinite(self.n_uavs * self.battery.max_j):
            raise ConfigError(f"battery: the fleet's charge n_uavs * max_j overflows, got "
                              f"{self.n_uavs} UAVs of max_j {self.battery.max_j:g}")
        self._check_link_budget()

    def _check_link_budget(self) -> None:
        """Every uplink and downlink rate a placement can give is finite and > 0.

        ln h = ln(beta0) / 2 - (alpha / 2) ln d is bilinear in (alpha, ln d), and
        alpha is monotone in the elevation, so the rates at the nearest and
        farthest distance and the lowest and highest elevation bound every
        placement. The farthest distance and lowest elevation are those
        `link_geometry` gives the region's corner. When the nearest distance
        is 0 (equal UAV and BS altitudes, or a rise whose square underflows),
        links get arbitrarily short and only the farthest distance is checked.
        """
        geo = self.geometry
        reach = geo.region_m / 2.0  # the largest |dx| and |dy| from the BS
        rise = geo.uav_altitude_m - geo.bs_altitude_m
        try:
            corner = link_geometry(reach, reach, rise)
        except InvariantViolation as exc:
            raise ConfigError(f"geometry: the region's corner has no link: {exc}") from None
        far = corner.distance_m
        near = math.sqrt(rise * rise)
        for distance, elevation in itertools.product((near, far) if near > 0 else (far,),
                                                     (corner.elevation_deg, 90.0)):
            for link, power in (("uplink", self.cost.tx_power_w),
                                ("downlink", self.channel.bs_tx_power_w)):
                where = f"channel: the {link} rate at {distance:g} m and {elevation:g} deg"
                try:
                    h = channel_gain(LinkGeometry(distance, elevation), self.channel)
                    rate = capacity(h, power, self.channel)
                except (InvariantViolation, OverflowError) as exc:
                    raise ConfigError(f"{where} cannot be computed: {exc}") from None
                if not (math.isfinite(rate) and rate > 0):
                    raise ConfigError(f"{where} is {rate:g} b/s; it must be finite and > 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """SHA-256 of the sorted JSON of `to_dict()`, less what the strategy
        never reads: a random run's hash leaves out the deeps-only values, so
        two runs that differ only there, with equal artifacts, share it."""
        values = self.to_dict()
        if self.strategy == "random":
            for name in _DEEPS_ONLY:
                del values[name]
        return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


# section name -> its type, in field order
_NESTED = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
           if f.default_factory is not dataclasses.MISSING}


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
    validated. An unreadable file, malformed JSON or a NaN/Infinity constant
    (which Python's json would accept) fails as a ConfigError naming the path."""
    def no_constant(name: str):
        raise ConfigError(f"config {path} holds {name}; every number must be finite")

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=no_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = {**data, **overrides}
    return config_from_dict(data)
