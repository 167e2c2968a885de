"""``tower``: a marker tower on the shift and its Monte-Carlo check."""

from __future__ import annotations

from .. import dynamics
from ..config import ExperimentConfig
from . import _record, _shift_group


def cmd_tower(cfg: ExperimentConfig) -> tuple[list, dict]:
    spec = _shift_group(cfg)
    tower = dynamics.rokhlin_tower(dynamics.bernoulli_system(spec, cfg.seed), cfg.tower_height, cfg.tower_eta)
    rep = dynamics.tower_check(tower, cfg.samples.tower_samples, cfg.seed)
    mc = rep["mc"]
    records = [
        _record("tower_validity", rep, collisions=mc["collisions"], ci_upper=mc["ci_upper"], target=cfg.tower_eta / 2.0)
    ]
    return records, {}
