"""Batch experiment driver.

Usage: ``walkrep <subcommand> [--config cfg.json] [--out DIR] [--seed N]``

Subcommands mirror the module boundaries: weights, norms, jrt, tower,
build, support, orbit, feldman, continuous, and all.  Every run writes a
timestamp-free ``report.json`` (plus CSV tables) under ``<out>/<command>/``
so identical configs and seeds reproduce byte-identical outputs; wall time
goes to a separate ``run_meta.json``.  Exit codes: 0 all checks pass,
1 a check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, continuous, dynamics, groups, markov, measures, model, space, stats
from .config import ExperimentConfig, load_config
from .errors import ConfigError, WalkrepError


def _out_dir(base: str, command: str) -> str:
    path = os.path.join(base, command)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
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


def _finish(out: str, command: str, cfg: ExperimentConfig, records: list, t0: float) -> int:
    ok = all(r["pass"] for r in records)
    report = {
        "command": command,
        "config_digest": cfg.digest(),
        "version": __version__,
        "records": records,
        "pass": ok,
    }
    _write_json(os.path.join(out, "report.json"), report)
    _write_json(
        os.path.join(out, "run_meta.json"),
        {"wall_time_s": time.time() - t0, "command": command},
    )
    for r in records:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {command}/{r['name']}")
    return 0 if ok else 1


def _weight_tables(cfg: ExperimentConfig):
    spec1 = cfg.group.spec()
    spec2 = cfg.second_group.spec()
    w1 = measures.build_weight(spec1, measures.WeightParams(cfg.weights.q, cfg.weights.n_max))
    w2 = measures.build_weight(
        spec2, measures.WeightParams(cfg.second_weights.q, cfg.second_weights.n_max)
    )
    return (spec1, w1), (spec2, w2)


def cmd_weights(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "weights")
    records = []
    for label, (spec, w) in zip(("group", "second_group"), _weight_tables(cfg)):
        rows = [
            [groups.element_str(spec, g), repr(w.table[g])] for g in w.support()
        ]
        _write_csv(os.path.join(out, f"{label}_weights.csv"), ["element", "weight"], rows)
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
        for b in groups.ball(spec, 3):
            if b == groups.identity(spec):
                continue
            rep = measures.weight_ratio(spec, w, b)
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
    return _finish(out, "weights", cfg, records, t0)


def cmd_norms(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "norms")
    records = []
    tables = _weight_tables(cfg)
    for label, (spec, w) in zip(("group", "second_group"), tables):
        for a in groups.generators(spec):
            rep = space.operator_norm_certificate(spec, w, a)
            records.append(
                _record(
                    f"{label}_shift_{groups.element_str(spec, a)}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    # restricted-weight pipeline: integers into the second group via a^n
    (spec1, _), (spec2, w2) = tables
    if spec1.kind == "integers" and spec2.kind == "free":
        emb = groups.subgroup_embed(spec1, spec2, [(1,)], seed=cfg.seed)
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
    return _finish(out, "norms", cfg, records, t0)


def cmd_jrt(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "jrt")
    spec = cfg.group.spec()
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
        bern, f_ind, n_max=12, samples=cfg.samples.averaging_samples, seed=cfg.seed
    )
    sigma_ok = True
    worst_sigma = 0.0
    for n in range(1, 13):
        est2 = repb["l2_dev"][n] ** 2
        exact2 = repb["expected_l2"][n] ** 2
        dev = abs(est2 - exact2) / repb["l2_se"][n]
        worst_sigma = max(worst_sigma, dev)
        sigma_ok = sigma_ok and dev <= cfg.tolerances.decay_sigma
    records.append(
        _record(
            "bernoulli_indicator_variance",
            {"pass": repb["trend_pass"] and sigma_ok},
            worst_dev_in_se=worst_sigma,
        )
    )
    for n, (s, l) in enumerate(zip(repb["sup_dev"], repb["l2_dev"])):
        rows.append(["bernoulli_bit", n, repr(s), repr(l), repr(repb["expected_l2"][n])])
    _write_csv(
        os.path.join(out, "deviations.csv"),
        ["observable", "n", "sup_dev", "l2_dev", "expected_l2"],
        rows,
    )
    return _finish(out, "jrt", cfg, records, t0)


def cmd_tower(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "tower")
    spec = cfg.group.spec()
    sys_b = dynamics.bernoulli_system(spec, cfg.seed)
    tower = dynamics.rokhlin_tower(
        sys_b,
        cfg.tower_height,
        cfg.tower_eta,
        seed=cfg.seed,
        mc_samples=cfg.samples.tower_samples,
    )
    ok = (
        tower.collisions == 0
        and tower.mc_ci_upper < cfg.tower_eta / 2.0
        and tower.mu_e_lower > 0.0
    )
    records = [
        _record(
            "tower_validity",
            {"pass": ok, **tower.to_dict()},
            collisions=tower.collisions,
            ci_upper=tower.mc_ci_upper,
            target=cfg.tower_eta / 2.0,
        )
    ]
    return _finish(out, "tower", cfg, records, t0)


def _build_model(cfg: ExperimentConfig):
    spec = cfg.group.spec()
    if spec.kind not in ("integers", "lattice"):
        raise ConfigError("the model build runs on integer/lattice Bernoulli shifts")
    w = measures.build_weight(
        spec, measures.WeightParams(cfg.weights.q, cfg.weights.n_max)
    )
    sys_b = dynamics.bernoulli_system(spec, cfg.seed)
    built = model.build_model(sys_b, w, cfg.build_config())
    return spec, w, sys_b, built[0], built[1]


def cmd_build(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "build")
    spec, w, sys_b, mdl, history = _build_model(cfg)
    _write_json(os.path.join(out, "model.json"), mdl.to_dict())
    _write_json(
        os.path.join(out, "history.json"),
        {"stages": [st.to_dict(spec) for st in history]},
    )
    final = history[-1]
    records = [
        _record("stage_separation", final.checks["separation"]),
        _record("stage_nesting", final.checks["nesting"]),
        _record("range_containment", final.checks["range"]),
        _record("exception_budgets", final.checks["exceptions"]),
        _record("hitting_budgets", final.checks["hitting"]),
        _record("quartic_norm", final.checks["quartic"]),
    ]
    return _finish(out, "build", cfg, records, t0)


def cmd_support(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "support")
    spec, w, sys_b, mdl, history = _build_model(cfg)
    records = []
    iso = model.support_and_iso_check(
        mdl, history, w, cfg.samples.check_samples, cfg.build_config(), seed=cfg.seed
    )
    records.append(_record("support_and_iso", iso))
    for h in groups.ball(spec, 2):
        rep = model.equivariance_check(
            mdl,
            w,
            samples=max(50, cfg.samples.equivariance_samples // max(1, len(groups.ball(spec, 2)))),
            h=h,
            n_trunc=cfg.n_trunc,
            seed=cfg.seed,
        )
        records.append(
            _record(
                f"equivariance_h{groups.element_str(spec, h)}",
                rep,
                mismatches=rep["mismatches"],
            )
        )
    return _finish(out, "support", cfg, records, t0)


def cmd_orbit(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "orbit")
    spec, w, sys_b, mdl, history = _build_model(cfg)
    a = groups.generators(spec)[0]
    ball1 = history[0].ball
    probe = dynamics.bernoulli_system(spec, cfg.seed + 1)
    x = dynamics.sample_point(probe, 0)
    ev = model.ModelEvaluator(mdl, x)
    rep = model.orbit_frequency(ev, x, a, ball1, cfg.samples.orbit_steps, w, cfg.n_trunc)
    series = rep.pop("series")
    rows = []
    cum = 0.0
    for i, s in enumerate(series, start=1):
        cum += s
        if i % 50 == 0 or i == len(series):
            rows.append([i, repr(cum / i)])
    _write_csv(os.path.join(out, "frequency.csv"), ["step", "running_frequency"], rows)
    # consistency against the measured hit frequency of the same ball
    n_iso = min(cfg.samples.check_samples, 1000)
    _, phis = model.probe_orbit_vectors(mdl, n_iso, cfg.n_trunc, w, cfg.seed + 7)
    mu_est = model.ball_hits(phis, ball1, w)[0] / n_iso
    se_mu = math.sqrt(max(mu_est * (1 - mu_est), 1e-12) / n_iso)
    gap = abs(rep["frequency"] - mu_est)
    tol = stats.Z95 * (rep["se_batch"] + se_mu) + 1e-6
    ok = rep["ci_lower"] > 0.0 and gap <= tol
    records = [
        _record(
            "orbit_frequency",
            {"pass": ok, **rep},
            frequency=rep["frequency"],
            measured_mu=mu_est,
            gap=gap,
            tolerance=tol,
        )
    ]
    return _finish(out, "orbit", cfg, records, t0)


def cmd_feldman(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "feldman")
    rep = model.doubling_shift_baseline(steps=30, n_points=1000, seed=cfg.seed)
    ok = rep["max_conjugacy_error"] < cfg.tolerances.conjugacy_abs and rep["pass"]
    records = [_record("conjugacy_identity", {**rep, "pass": ok})]
    return _finish(out, "feldman", cfg, records, t0)


def cmd_continuous(cfg: ExperimentConfig, out_base: str) -> int:
    t0 = time.time()
    out = _out_dir(out_base, "continuous")
    records = []
    # real line: overlap density quadrature sweep and the domination grid
    L = continuous.IntervalMeasure(2.0)
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
    chain = continuous.LocallyFiniteChain(
        n_max=cfg.lf_chain_n,
        params=measures.WeightParams(q=0.5, n_max=cfg.lf_chain_n),
    )
    shared = continuous.chain_convolution(chain)
    ident = continuous.haar_convolution_identity(chain)
    records.append(_record("haar_convolution_identity", ident))
    lower = continuous.lower_bound_chain_check(chain, precomputed=shared)
    records.append(_record("chain_lower_bound", lower))
    rng = np.random.default_rng(cfg.seed)
    pool = chain.subgroup(chain.n_max)
    picks = [pool[int(i)] for i in rng.choice(len(pool), size=cfg.lf_sampled_g0, replace=False)]
    rows = []
    all_ok = True
    all_ok_corr = True
    for g0 in picks:
        rep = continuous.domination_check_locally_finite(chain, g0, precomputed=shared)
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
    return _finish(out, "continuous", cfg, records, t0)


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


def cmd_all(cfg: ExperimentConfig, out_base: str) -> int:
    status = 0
    for name, fn in COMMANDS.items():
        status = max(status, fn(cfg, out_base))
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
            cfg = dataclasses.replace(cfg, seed=args.seed)
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


if __name__ == "__main__":
    sys.exit(main())
