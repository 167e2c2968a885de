"""Experiment configuration: one JSON document, strictly validated.

Unknown keys are rejected so that a typo cannot silently fall back to a
default.  The seed is fixed (20240 unless set), never drawn from the wall
clock, which would break the byte-reproducibility contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass

from .continuous import MAX_CHAIN_N
from .errors import ConfigError, EncodingError
from .groups import GroupSpec
from .model import BuildConfig


@dataclass(frozen=True)
class GroupConfig:
    kind: str = "integers"
    d: int = 1

    def spec(self) -> GroupSpec:
        return GroupSpec(self.kind, self.d)


@dataclass(frozen=True)
class WeightConfig:
    q: float = 0.5
    n_max: int = 40


@dataclass(frozen=True)
class SystemConfig:
    alpha: tuple = ()  # rotation angles; empty draws them from the seed


@dataclass(frozen=True)
class SampleConfig:
    averaging_samples: int = 2000
    tower_samples: int = 100_000
    check_samples: int = 3000
    base_samples: int = 160
    equivariance_samples: int = 1000
    orbit_steps: int = 10_000


@dataclass(frozen=True)
class ToleranceConfig:
    decay_ratio_rel: float = 0.05
    decay_sigma: float = 4.0
    quadrature_abs: float = 1e-6
    conjugacy_abs: float = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 20240
    group: GroupConfig = field(default_factory=GroupConfig)
    second_group: GroupConfig = field(default_factory=lambda: GroupConfig("free", 2))
    weights: WeightConfig = field(default_factory=WeightConfig)
    second_weights: WeightConfig = field(default_factory=lambda: WeightConfig(0.5, 10))
    system: SystemConfig = field(default_factory=SystemConfig)
    stages: int = 4
    tower_height: int = 3
    tower_eta: float = 0.1
    n_trunc: int = 16
    samples: SampleConfig = field(default_factory=SampleConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    lf_chain_n: int = 10
    lf_sampled_g0: int = 20

    def build_config(self) -> BuildConfig:
        return BuildConfig(
            stages=self.stages,
            n_trunc=self.n_trunc,
            check_samples=self.samples.check_samples,
            base_samples=self.samples.base_samples,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(default, value, path: str):
    """``value`` checked against the type of its field's default."""
    if is_dataclass(default):
        return _build(type(default), value, path)
    if isinstance(default, tuple):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        if ok:
            value = tuple(float(v) for v in value)
    elif isinstance(default, float):
        ok = _is_number(value)
    else:
        ok = isinstance(value, type(default)) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"bad value for {path}: {value!r}")
    return value


def _build(cls, data, path: str):
    """``cls`` from a JSON object; absent keys keep the class defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    defaults = cls()
    return cls(**{
        key: _checked(getattr(defaults, key), value, f"{path}.{key}")
        for key, value in data.items()
    })


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "config")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if not 0.0 < cfg.weights.q < 1.0 or not 0.0 < cfg.second_weights.q < 1.0:
        raise ConfigError("weight ratio q must be in (0,1)")
    if cfg.weights.n_max < 1 or cfg.second_weights.n_max < 1:
        raise ConfigError("weight depth must be >= 1")
    if cfg.stages < 1:
        raise ConfigError("stages must be >= 1")
    if not 0.0 < cfg.tower_eta < 1.0:
        raise ConfigError("tower eta must be in (0,1)")
    if cfg.tower_height < 1:
        raise ConfigError("tower height must be >= 1")
    if cfg.n_trunc < 1:
        raise ConfigError("truncation window must be >= 1")
    if not 1 <= cfg.lf_chain_n <= MAX_CHAIN_N:
        raise ConfigError(f"lf_chain_n must be in 1..{MAX_CHAIN_N}")
    if not 0 <= cfg.lf_sampled_g0 <= 2**cfg.lf_chain_n:
        raise ConfigError("lf_sampled_g0 must be in 0..2^lf_chain_n")
    for name, group in (("group", cfg.group), ("second_group", cfg.second_group)):
        try:
            spec = group.spec()
        except EncodingError as exc:
            raise ConfigError(str(exc)) from exc
        if not spec.finitely_generated:
            raise ConfigError(f"{name}: {spec.kind} has no finite generator set")


def load_config(path: str | None) -> ExperimentConfig:
    """Load and validate a config file; None means built-in defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
