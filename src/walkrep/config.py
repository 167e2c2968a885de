"""Experiment configuration: one JSON document, strictly validated.

Unknown keys are rejected so that a typo cannot silently fall back to a
default.  The seed is fixed (20240 unless set), never drawn from the wall
clock, which would break the byte-reproducibility contract.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

try:  # CPython's own SHA-256, which loads no OpenSSL; hashlib's where a build lacks it
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import ConfigError, DomainError, EncodingError
from .groups import GroupSpec

MAX_CHAIN_N = 16  # longest chain: every array on K_n_max stays under 1 MB
SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0  # the rotation angle on each axis when ``system.alpha`` is empty


class GroupConfig(NamedTuple):
    kind: str = "integers"
    d: int = 1

    def spec(self) -> GroupSpec:
        return GroupSpec(self.kind, self.d)


class WeightConfig(NamedTuple):
    """Geometric step-mixing weights p_n = (1-q) q^(n-1), truncated at
    depth ``n_max``; ratio C = 1/q."""

    q: float = 0.5
    n_max: int = 40

    def p(self, n: int) -> float:
        return (1.0 - self.q) * self.q ** (n - 1)

    @property
    def ratio_bound(self) -> float:
        """C with p_n / p_{n+1} = C for every n."""
        return 1.0 / self.q

    @property
    def tail(self) -> float:
        return self.q**self.n_max

    def checked(self) -> WeightConfig:
        """The record, or DomainError for a q outside (0, 1) or an n_max
        below 1: the check of a record built outside ``validate``."""
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must be in (0,1), got {self.q}")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        return self


class SystemConfig(NamedTuple):
    alpha: tuple = ()  # rotation angles; empty rotates by SQRT2_MINUS_1 on every axis


class SampleConfig(NamedTuple):
    averaging_samples: int = 2000
    tower_samples: int = 100_000
    check_samples: int = 3000
    base_samples: int = 160
    equivariance_samples: int = 1000
    orbit_steps: int = 10_000


# The least value of each sample count: a standard deviation with ddof=1
# needs two averaging or checking draws, a batch-means error two orbit steps.
SAMPLE_MINIMUMS = {
    "averaging_samples": 2,
    "tower_samples": 1,
    "check_samples": 2,
    "base_samples": 1,
    "equivariance_samples": 1,
    "orbit_steps": 2,
}


class ToleranceConfig(NamedTuple):
    decay_ratio_rel: float = 0.05
    decay_sigma: float = 4.0
    quadrature_abs: float = 1e-6
    conjugacy_abs: float = 1e-12


class ExperimentConfig(NamedTuple):
    seed: int = 20240
    group: GroupConfig = GroupConfig()
    second_group: GroupConfig = GroupConfig("free", 2)
    weights: WeightConfig = WeightConfig()
    second_weights: WeightConfig = WeightConfig(0.5, 10)
    system: SystemConfig = SystemConfig()
    stages: int = 4
    tower_height: int = 3
    tower_eta: float = 0.1
    n_trunc: int = 16
    samples: SampleConfig = SampleConfig()
    tolerances: ToleranceConfig = ToleranceConfig()
    lf_chain_n: int = 10
    lf_sampled_g0: int = 20

    def to_dict(self) -> dict:
        return _as_dict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return sha256(self.canonical_json().encode()).hexdigest()[:16]


def _is_record(value) -> bool:
    return isinstance(value, tuple) and hasattr(value, "_fields")


def _as_dict(record) -> dict:
    """``record`` and the records in its fields as nested dicts."""
    return {k: _as_dict(v) if _is_record(v) else v for k, v in record._asdict().items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, path: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"bad value for {path}: a number past the float range") from None


def _checked(default, value, path: str):
    """``value`` checked against the type of its field's default."""
    if _is_record(default):
        return _build(type(default), value, path)
    if isinstance(default, tuple):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        if ok:
            value = tuple(_float(v, path) for v in value)
    elif isinstance(default, float):
        ok = _is_number(value)
        if ok:
            value = _float(value, path)
    else:
        ok = isinstance(value, type(default)) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"bad value for {path}: {value!r}")
    return value


def _build(cls, data, path: str):
    """``cls`` from a JSON object; absent keys keep the class defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(data) - set(cls._fields)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    return cls(**{
        key: _checked(cls._field_defaults[key], value, f"{path}.{key}")
        for key, value in data.items()
    })


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "config")
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
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
    if cfg.n_trunc < 2:  # support compares orbit vectors on B_(n_trunc - |h|), h in B_2
        raise ConfigError("truncation window must be >= 2")
    for key, least in SAMPLE_MINIMUMS.items():
        if getattr(cfg.samples, key) < least:
            raise ConfigError(f"samples.{key} must be >= {least}")
    if not 1 <= cfg.lf_chain_n <= MAX_CHAIN_N:
        raise ConfigError(f"lf_chain_n must be in 1..{MAX_CHAIN_N}")
    if not 1 <= cfg.lf_sampled_g0 <= 2**cfg.lf_chain_n:
        raise ConfigError("lf_sampled_g0 must be in 1..2^lf_chain_n")
    for name, group in (("group", cfg.group), ("second_group", cfg.second_group)):
        try:
            spec = group.spec()
        except EncodingError as exc:
            raise ConfigError(str(exc)) from exc
        if not spec.finitely_generated:
            raise ConfigError(f"{name}: {spec.kind} has no finite generator set")
    if cfg.system.alpha and len(cfg.system.alpha) != cfg.group.d:
        raise ConfigError(f"system.alpha needs one angle per generator of the group ({cfg.group.d})")


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
