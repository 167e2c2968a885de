"""``build``, ``support`` and ``orbit``: the staged model of a Bernoulli
shift, its stage checks, its support and equivariance battery, and one
orbit's visit frequency."""

from __future__ import annotations

# ``model`` first: the largest module compiles while the fewest others are
# loaded, which keeps the process's peak memory down
from .. import model  # isort: skip
from .. import dynamics, groups
from ..config import ExperimentConfig
from ..errors import WalkrepError
from . import _record, _shift_group, _weight_tables


def _build_model(cfg: ExperimentConfig, cache: list | None = None):
    """The staged model of ``cfg``, with its weight table and stage states.
    The model commands' config checks, of the shift group and the weight
    box, run here.  ``all`` passes one ``cache`` list to every model
    command, so the model is built once, inside the clock of the first
    command that asks for it, as in a separate run of that command.  A
    build that raises a walkrep error, a ConfigError among them, is cached
    too: every later command raises the same error."""
    if cache is None:
        cache = []
    if not cache:
        try:
            spec = _shift_group(cfg)
            (w,) = _weight_tables(cfg, weights=0)
            cache.append(model.build_model(dynamics.bernoulli_system(spec, cfg.seed), w, cfg))
        except WalkrepError as exc:
            cache.append(exc)
    if isinstance(cache[0], WalkrepError):
        raise cache[0]
    return cache[0]


def cmd_build(cfg: ExperimentConfig, cache: list | None = None) -> tuple[list, dict]:
    mdl = _build_model(cfg, cache)
    model.run_stage_checks(mdl, cfg)
    final = mdl.history[-1]
    records = [
        _record("stage_separation", final.checks["separation"]),
        _record("stage_nesting", final.checks["nesting"]),
        _record("range_containment", final.checks["range"]),
        _record("exception_budgets", final.checks["exceptions"]),
        _record("hitting_budgets", final.checks["hitting"]),
        _record("quartic_norm", final.checks["quartic"]),
    ]
    history = {"stages": [st.to_dict() for st in mdl.history]}
    return records, {"model.json": mdl.to_dict(), "history.json": history}


def cmd_support(cfg: ExperimentConfig, cache: list | None = None) -> tuple[list, dict]:
    mdl = _build_model(cfg, cache)
    spec = mdl.spec
    records = []
    iso = model.support_and_iso_check(mdl, cfg)
    records.append(_record("support_and_iso", iso))
    hs = groups.ball(spec, 2)
    samples = max(50, cfg.samples.equivariance_samples // len(hs))
    for rep in model.equivariance_check(mdl, samples, hs, cfg.n_trunc, cfg.seed):
        records.append(_record(f"equivariance_h{rep['h']}", rep, mismatches=rep["mismatches"]))
    return records, {}


def cmd_orbit(cfg: ExperimentConfig, cache: list | None = None) -> tuple[list, dict]:
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
    check = model.orbit_consistency(mdl, rep, cfg)
    records = [_record("orbit_frequency", {**rep, "pass": check.pop("pass")}, frequency=rep["frequency"], **check)]
    return records, {"frequency.csv": (["step", "running_frequency"], rows)}
