"""Batch experiment driver.

Usage: ``walkrep <subcommand> [--config cfg.json] [--out DIR] [--seed N]``

Subcommands mirror the module boundaries: weights, norms, jrt, tower,
build, support, orbit, feldman, continuous, and all.  Every run writes a
timestamp-free ``report.json`` (plus CSV tables) under ``<out>/<command>/``
so identical configs and seeds reproduce byte-identical outputs; wall time,
the start-up CPU time, the Bernoulli cells read and Philox blocks drawn, the
bit cells the orbit windows filled and the conditional sampler's draws go to
a separate ``run_meta.json``.  Each command imports the layers it runs at
its top, so a process loads only those.  A command process (``run``, the
``walkrep`` script and ``python -m walkrep.cli``) ends without interpreter
teardown once its outputs are closed and its streams flushed.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from typing import NoReturn

from . import __version__, groups, trace
from .config import ExperimentConfig, load_config, validate
from .errors import ConfigError, WalkrepError


def _out_dir(base: str, command: str) -> str:
    path = os.path.join(base, command)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    """``payload`` as strict JSON: a NaN or an infinity raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _record(name: str, rep: dict, **extra) -> dict:
    row = {"name": name, "pass": bool(rep.get("pass", False))}
    row.update(extra)
    row["detail"] = rep
    return row


@functools.cache
def _startup_cpu_s() -> float:
    """The process's CPU time when its first command's clock starts: the
    interpreter's start-up and the imports."""
    return time.process_time()


def _start() -> tuple[float, dict]:
    """The wall clock and the run counters, at a command's start."""
    _startup_cpu_s()
    return time.time(), dict(trace.COUNTERS)


def _finish(out: str, command: str, cfg: ExperimentConfig, records: list, start: tuple) -> int:
    ok = all(r["pass"] for r in records)
    report = {
        "command": command,
        "config_digest": cfg.digest(),
        "version": __version__,
        "records": records,
        "pass": ok,
    }
    _write_json(os.path.join(out, "report.json"), report)
    meta = {"wall_time_s": time.time() - start[0], "command": command}
    meta["startup_cpu_s"] = _startup_cpu_s()
    meta.update((k, v - start[1][k]) for k, v in trace.COUNTERS.items())
    _write_json(os.path.join(out, "run_meta.json"), meta)
    for r in records:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {command}/{r['name']}")
    return 0 if ok else 1


def _weight_tables(cfg: ExperimentConfig):
    from . import measures
    return tuple(
        measures.build_weight(group.spec(), measures.WeightParams(weights.q, weights.n_max))
        for group, weights in ((cfg.group, cfg.weights), (cfg.second_group, cfg.second_weights))
    )


def _weight_rows(w):
    """``(element_str(g), repr(w(g)))`` for every g of B_n_max in ``sort_key``
    order, including any whose weight underflows to 0.0.  On a free group
    the weight is radial, so the rows come one word-length level at a time,
    each word spelled from its prefix's string and one letter."""
    spec = w.spec
    if spec.kind != "free":
        ball, cells = w.sorted_ball(w.params.n_max)
        yield from zip([groups.element_str(spec, g) for g in ball], map(repr, w.read(cells).tolist()))
        return
    letters = {c: groups.element_str(spec, (c,)) for c in range(-spec.d, spec.d + 1) if c}
    level = [("", 0)]
    for k, weight in enumerate(map(repr, w.partials[-1].tolist())):
        if k:
            level = [(s + char, c) for s, last in level for c, char in letters.items() if c != -last]
        yield from ((s or "e", weight) for s, _ in level)


RATIO_RADIUS = 3  # ``weights`` checks the translation ratios of every b in B_3


def cmd_weights(cfg: ExperimentConfig, out_base: str) -> int:
    from . import measures
    for key in ("weights", "second_weights"):
        if getattr(cfg, key).n_max <= RATIO_RADIUS:  # weight_ratio needs |b| <= n_max - 1
            raise ConfigError(f"{key}.n_max must be > {RATIO_RADIUS} for the ratios of b in B_{RATIO_RADIUS}")
    start = _start()
    out = _out_dir(out_base, "weights")
    records = []
    for label, w in zip(("group", "second_group"), _weight_tables(cfg)):
        _write_csv(os.path.join(out, f"{label}_weights.csv"), ["element", "weight"], _weight_rows(w))
        mass = w.stored_mass()
        records.append(
            _record(
                f"{label}_mass",
                {"pass": abs(mass + w.tail_bound - 1.0) < 1e-9},
                stored_mass=mass,
                tail_bound=w.tail_bound,
            )
        )
        ratio_rows = []
        all_ok = True
        worst = 0.0
        for b in groups.ball(w.spec, RATIO_RADIUS):
            if b == groups.identity(w.spec):
                continue
            rep = measures.weight_ratio(w, b)
            ratio_rows.append(
                [
                    rep["b"],
                    rep["word_length"],
                    repr(rep["bound"]),
                    repr(rep["observed_max"]),
                    repr(rep["observed_min"]),
                    rep["pass"],
                ]
            )
            worst = max(worst, rep["observed_max"] / rep["bound"])
            all_ok = all_ok and rep["pass"]
        _write_csv(
            os.path.join(out, f"{label}_ratios.csv"),
            ["b", "word_length", "bound", "observed_max", "observed_min", "pass"],
            ratio_rows,
        )
        records.append(
            _record(
                f"{label}_translation_ratios",
                {"pass": all_ok},
                n_translations=len(ratio_rows),
                worst_fraction_of_bound=worst,
            )
        )
    return _finish(out, "weights", cfg, records, start)


def cmd_norms(cfg: ExperimentConfig, out_base: str) -> int:
    from . import measures, space
    start = _start()
    out = _out_dir(out_base, "norms")
    records = []
    tables = _weight_tables(cfg)
    for label, w in zip(("group", "second_group"), tables):
        for a in groups.generators(w.spec):
            rep = space.operator_norm_certificate(w, a)
            records.append(
                _record(
                    f"{label}_shift_{groups.element_str(w.spec, a)}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    # restricted-weight pipeline: integers into the second group via a^n
    w1, w2 = tables
    if w1.spec.kind == "integers" and w2.spec.kind == "free":
        emb = groups.subgroup_embed(w1.spec, w2.spec, [(1,)])
        nrho = measures.restricted_ratio_certificate(w2, emb, 1)
        records.append(_record("restricted_ratio_b1", nrho, bound=nrho["bound"]))
        for g0 in (0, 1, 2):
            rep = space.subgroup_norm_certificate(w2, emb, g0)
            records.append(
                _record(
                    f"restricted_shift_g{g0}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    return _finish(out, "norms", cfg, records, start)


JRT_DEPTH = 12  # the Bernoulli harness averages over B_12


def cmd_jrt(cfg: ExperimentConfig, out_base: str) -> int:
    from . import dynamics, markov
    spec = cfg.group.spec()
    size = groups.free_ball_size(spec.d, JRT_DEPTH) if spec.kind == "free" else 0
    if size > groups.BALL_CAP:  # the other kinds' balls grow polynomially
        raise ConfigError(f"jrt averages over B_{JRT_DEPTH}, whose {size} elements exceed the ball cap {groups.BALL_CAP}")
    start = _start()
    out = _out_dir(out_base, "jrt")
    records = []
    rows = []
    if spec.kind in ("integers", "lattice"):
        rot = dynamics.rotation_system(spec, cfg.seed, cfg.system.alpha or None)
        f_cos = markov.cos_observable(0)
        rep = markov.convergence_report(
            rot, f_cos, n_max=20, samples=min(cfg.samples.averaging_samples, 500), seed=cfg.seed
        )
        lam = abs(markov.rotation_eigenvalue(rot, 0))
        ratios = [
            rep["l2_dev"][n] / rep["l2_dev"][n - 1] for n in range(1, len(rep["l2_dev"]))
        ]
        ratio_ok = all(
            abs(r - lam) <= cfg.tolerances.decay_ratio_rel * lam for r in ratios
        )
        records.append(
            _record(
                "rotation_cos_decay",
                {"pass": rep["pass"] and ratio_ok},
                eigenvalue=lam,
                worst_ratio_err=max(abs(r - lam) / lam for r in ratios),
            )
        )
        for n, (s, l) in enumerate(zip(rep["sup_dev"], rep["l2_dev"])):
            rows.append(["rotation_cos", n, repr(s), repr(l), repr(rep["expected_l2"][n])])
    bern = dynamics.bernoulli_system(spec, cfg.seed)
    f_ind = markov.indicator_observable(
        dynamics.CylinderSet.from_dict(spec, {groups.identity(spec): 1})
    )
    repb = markov.convergence_report(
        bern, f_ind, n_max=JRT_DEPTH, samples=cfg.samples.averaging_samples, seed=cfg.seed
    )
    sigma_ok = True
    worst_sigma = 0.0
    for n in range(1, JRT_DEPTH + 1):
        est2 = repb["l2_dev"][n] ** 2
        exact2 = repb["expected_l2"][n] ** 2
        se = repb["l2_se"][n]
        # with a zero standard error only the exact value passes
        dev = abs(est2 - exact2) / se if se > 0.0 else (0.0 if est2 == exact2 else math.inf)
        worst_sigma = max(worst_sigma, dev)
        sigma_ok = sigma_ok and dev <= cfg.tolerances.decay_sigma
    records.append(
        _record(
            "bernoulli_indicator_variance",
            {"pass": repb["pass"] and sigma_ok},
            worst_dev_in_se=None if worst_sigma == math.inf else worst_sigma,
        )
    )
    for n, (s, l) in enumerate(zip(repb["sup_dev"], repb["l2_dev"])):
        rows.append(["bernoulli_bit", n, repr(s), repr(l), repr(repb["expected_l2"][n])])
    _write_csv(
        os.path.join(out, "deviations.csv"),
        ["observable", "n", "sup_dev", "l2_dev", "expected_l2"],
        rows,
    )
    return _finish(out, "jrt", cfg, records, start)


def _shift_group(cfg: ExperimentConfig) -> groups.GroupSpec:
    """The group of ``tower``'s and the model's shift: integers or a lattice."""
    spec = cfg.group.spec()
    if spec.kind not in ("integers", "lattice"):
        raise ConfigError("towers and the model build run on integer/lattice Bernoulli shifts")
    return spec


def cmd_tower(cfg: ExperimentConfig, out_base: str) -> int:
    from . import dynamics
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


def _build_model(cfg: ExperimentConfig, cache: list | None = None):
    """The staged model of ``cfg``, with its weight table and stage states.
    ``all`` passes one ``cache`` list to every model command, so the model
    is built once, inside the clock of the first command that asks for it,
    as in a separate run of that command."""
    from . import dynamics, measures, model
    if cache:
        return cache[0]
    spec = _shift_group(cfg)
    w = measures.build_weight(
        spec, measures.WeightParams(cfg.weights.q, cfg.weights.n_max)
    )
    mdl = model.build_model(dynamics.bernoulli_system(spec, cfg.seed), w, cfg)
    if cache is not None:
        cache.append(mdl)
    return mdl


def cmd_build(cfg: ExperimentConfig, out_base: str, cache: list | None = None) -> int:
    from . import model
    _shift_group(cfg)
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
    from . import model
    _shift_group(cfg)
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
    from . import dynamics, model
    _shift_group(cfg)
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


def cmd_feldman(cfg: ExperimentConfig, out_base: str) -> int:
    from . import dynamics
    start = _start()
    out = _out_dir(out_base, "feldman")
    rep = dynamics.doubling_shift_baseline(steps=30, n_points=1000, seed=cfg.seed)
    ok = rep["max_conjugacy_error"] < cfg.tolerances.conjugacy_abs and rep["pass"]
    records = [_record("conjugacy_identity", {**rep, "pass": ok})]
    return _finish(out, "feldman", cfg, records, start)


def cmd_continuous(cfg: ExperimentConfig, out_base: str) -> int:
    import numpy as np

    from . import continuous, pcg64
    start = _start()
    out = _out_dir(out_base, "continuous")
    records = []
    # real line: overlap density quadrature sweep and the domination grid
    L = continuous.IntervalMeasure(continuous.L_HALF)
    grid = np.linspace(-5.0, 5.0, 101)
    worst = max(
        abs(continuous.overlap_density_quadrature(L, float(t)) - continuous.overlap_density(L, float(t)))
        for t in grid
    )
    records.append(
        _record(
            "overlap_quadrature",
            {"pass": worst < cfg.tolerances.quadrature_abs},
            max_abs_err=worst,
        )
    )
    dom = continuous.domination_constant_real()
    records.append(_record("real_domination", dom, u=dom["u"], D=dom["D"]))
    # locally finite chain
    chain = continuous.LocallyFiniteChain(cfg.lf_chain_n)
    ident = continuous.haar_convolution_identity(chain)
    records.append(_record("haar_convolution_identity", ident))
    lower = continuous.lower_bound_chain_check(chain)
    records.append(_record("chain_lower_bound", lower))
    pool = chain.subgroup(chain.n_max)
    picks = [pool[i] for i in pcg64.sample(cfg.seed, len(pool), cfg.lf_sampled_g0)]
    rows = []
    all_ok = True
    all_ok_corr = True
    for g0 in picks:
        rep = continuous.domination_check_locally_finite(chain, g0)
        rows.append(
            [
                rep["g0"],
                rep["m0"],
                repr(rep["C_simple"]),
                repr(rep["C_corrected"]),
                repr(rep["worst_ratio"]),
                rep["violations"],
                rep["violations_corrected"],
            ]
        )
        all_ok = all_ok and rep["pass"]
        all_ok_corr = all_ok_corr and rep["pass_corrected"]
    _write_csv(
        os.path.join(out, "lf_domination.csv"),
        ["g0", "m0", "C_simple", "C_corrected", "worst_ratio", "violations", "violations_corrected"],
        rows,
    )
    records.append(
        _record(
            "lf_domination_simple_constant",
            {"pass": all_ok},
            note="simple closed-form constant; see corrected record",
        )
    )
    records.append(_record("lf_domination_corrected_constant", {"pass": all_ok_corr}))
    return _finish(out, "continuous", cfg, records, start)


COMMANDS = {
    "weights": cmd_weights,
    "norms": cmd_norms,
    "jrt": cmd_jrt,
    "tower": cmd_tower,
    "build": cmd_build,
    "support": cmd_support,
    "orbit": cmd_orbit,
    "feldman": cmd_feldman,
    "continuous": cmd_continuous,
}


# commands that read the staged model; ``all`` builds it once for them
MODEL_COMMANDS = ("build", "support", "orbit")


def cmd_all(cfg: ExperimentConfig, out_base: str) -> int:
    """Every command in turn.  A command that rejects the config raises
    before it writes anything; the rest still run, and ``all`` exits 2."""
    status = 0
    cache: list = []
    for name, fn in COMMANDS.items():
        try:
            code = fn(cfg, out_base, cache) if name in MODEL_COMMANDS else fn(cfg, out_base)
        except ConfigError as exc:
            print(f"config error: {name}: {exc}", file=sys.stderr)
            code = 2
        status = max(status, code)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="walkrep",
        description="certified experiments on weighted random-walk sequence spaces",
    )
    parser.add_argument("command", choices=list(COMMANDS) + ["all"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg._replace(seed=args.seed)
            validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "all":
            return cmd_all(cfg, args.out)
        return COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except WalkrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> NoReturn:
    """``main``, then the process ends with its exit code and without
    interpreter teardown: every output file is closed by then, and the
    standard streams are flushed here.  Usage errors and uncaught
    exceptions leave the normal way."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
