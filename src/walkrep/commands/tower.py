"""``tower``: a marker tower on the shift and its Monte-Carlo check."""

from __future__ import annotations

from .. import dynamics
from ..config import ExperimentConfig
from . import _finish, _out_dir, _record, _shift_group, _start


def cmd_tower(cfg: ExperimentConfig, out_base: str) -> int:
    spec = _shift_group(cfg)
    start = _start()
    out = _out_dir(out_base, "tower")
    tower = dynamics.rokhlin_tower(dynamics.bernoulli_system(spec, cfg.seed), cfg.tower_height, cfg.tower_eta)
    rep = dynamics.tower_check(tower, cfg.samples.tower_samples, cfg.seed)
    mc = rep["mc"]
    records = [
        _record("tower_validity", rep, collisions=mc["collisions"], ci_upper=mc["ci_upper"], target=cfg.tower_eta / 2.0)
    ]
    return _finish(out, "tower", cfg, records, start)
