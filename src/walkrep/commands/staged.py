"""``build``, ``support`` and ``orbit``: the staged model of a Bernoulli
shift, its stage checks, its support and equivariance battery, and one
orbit's visit frequency."""

from __future__ import annotations

import os

# ``model`` first: the largest module compiles while the fewest others are
# loaded, which keeps the process's peak memory down
from .. import model  # isort: skip
from .. import dynamics, groups, measures
from ..config import ExperimentConfig
from ..errors import WalkrepError
from . import _check_boxes, _finish, _out_dir, _record, _shift_group, _start, _write_csv, _write_json


def _build_model(cfg: ExperimentConfig, cache: list | None = None):
    """The staged model of ``cfg``, with its weight table and stage states.
    ``all`` passes one ``cache`` list to every model command, so the model
    is built once, inside the clock of the first command that asks for it,
    as in a separate run of that command.  A build that raises a walkrep
    error is cached too: every later command raises the same error."""
    if cache is None:
        cache = []
    if not cache:
        try:
            spec = _shift_group(cfg)
            w = measures.build_weight(spec, cfg.weights)
            cache.append(model.build_model(dynamics.bernoulli_system(spec, cfg.seed), w, cfg))
        except WalkrepError as exc:
            cache.append(exc)
    if isinstance(cache[0], WalkrepError):
        raise cache[0]
    return cache[0]


def cmd_build(cfg: ExperimentConfig, out_base: str, cache: list | None = None) -> int:
    _shift_group(cfg)
    _check_boxes(cfg, "weights")
    start = _start()
    out = _out_dir(out_base, "build")
    mdl = _build_model(cfg, cache)
    model.run_stage_checks(mdl, cfg)
    _write_json(os.path.join(out, "model.json"), mdl.to_dict())
    _write_json(
        os.path.join(out, "history.json"),
        {"stages": [st.to_dict(mdl.spec) for st in mdl.history]},
    )
    final = mdl.history[-1]
    records = [
        _record("stage_separation", final.checks["separation"]),
        _record("stage_nesting", final.checks["nesting"]),
        _record("range_containment", final.checks["range"]),
        _record("exception_budgets", final.checks["exceptions"]),
        _record("hitting_budgets", final.checks["hitting"]),
        _record("quartic_norm", final.checks["quartic"]),
    ]
    return _finish(out, "build", cfg, records, start)


def cmd_support(cfg: ExperimentConfig, out_base: str, cache: list | None = None) -> int:
    _shift_group(cfg)
    _check_boxes(cfg, "weights")
    start = _start()
    out = _out_dir(out_base, "support")
    mdl = _build_model(cfg, cache)
    spec = mdl.spec
    records = []
    iso = model.support_and_iso_check(mdl, cfg)
    records.append(_record("support_and_iso", iso))
    hs = groups.ball(spec, 2)
    samples = max(50, cfg.samples.equivariance_samples // len(hs))
    for rep in model.equivariance_check(mdl, samples, hs, cfg.n_trunc, cfg.seed):
        records.append(_record(f"equivariance_h{rep['h']}", rep, mismatches=rep["mismatches"]))
    return _finish(out, "support", cfg, records, start)


def cmd_orbit(cfg: ExperimentConfig, out_base: str, cache: list | None = None) -> int:
    _shift_group(cfg)
    _check_boxes(cfg, "weights")
    start = _start()
    out = _out_dir(out_base, "orbit")
    mdl = _build_model(cfg, cache)
    spec = mdl.spec
    a = groups.generators(spec)[0]
    ball1 = mdl.history[0].ball
    probe = dynamics.bernoulli_system(spec, cfg.seed + 1)
    x = dynamics.sample_points(probe, [0])
    rep = model.orbit_frequency(mdl, x, a, ball1, cfg.samples.orbit_steps, cfg.n_trunc)
    series = rep.pop("series")
    rows = []
    cum = 0.0
    for i, s in enumerate(series, start=1):
        cum += s
        if i % 50 == 0 or i == len(series):
            rows.append([i, repr(cum / i)])
    _write_csv(os.path.join(out, "frequency.csv"), ["step", "running_frequency"], rows)
    check = model.orbit_consistency(mdl, rep, cfg)
    records = [_record("orbit_frequency", {**rep, "pass": check.pop("pass")}, frequency=rep["frequency"], **check)]
    return _finish(out, "orbit", cfg, records, start)
