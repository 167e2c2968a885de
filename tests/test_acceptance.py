"""Acceptance battery: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 11's domination check asserts the simple
closed-form constant and is expected to fail: the exhaustive scan shows that
constant undershoots for elements deep in the subgroup chain (the corrected
constant, also reported, passes everywhere).
"""

import json
import math
import time

import numpy as np
import pytest

from walkrep import (
    cli,
    continuous,
    dynamics,
    groups,
    markov,
    measures,
    model,
    space,
    stats,
)

CHECK = "✓"


def _line(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {text}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_operator_norm_bounds():
    t0 = time.time()
    z = groups.GroupSpec("integers")
    f2 = groups.GroupSpec("free", 2)
    wz = measures.build_weight(z, measures.WeightParams(q=0.5, n_max=40))
    wf = measures.build_weight(f2, measures.WeightParams(q=0.5, n_max=10))
    violations = 0
    worst = {}
    for spec, w in ((z, wz), (f2, wf)):
        for a in groups.generators(spec):
            rep = space.operator_norm_certificate(spec, w, a)
            if rep["observed"] > rep["bound"] + 1e-9:
                violations += 1
            worst[spec.kind] = max(worst.get(spec.kind, 0.0), rep["observed"])
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30.0
    _line(
        1,
        ok,
        f"shift norms <= sqrt(6)={math.sqrt(6):.4f} (Z, max {worst['integers']:.4f}) "
        f"and sqrt(10)={math.sqrt(10):.4f} (F2, max {worst['free']:.4f}); "
        f"exact single-atom supremum, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 30.0


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_weight_ratio_bounds(z_spec, z_weights, f2_spec, f2_weights):
    violations = 0
    checked = 0
    for spec, w in ((z_spec, z_weights), (f2_spec, f2_weights)):
        for b in groups.ball(spec, 3):
            if b == groups.identity(spec):
                continue
            rep = measures.weight_ratio(spec, w, b)
            checked += 1
            if not rep["pass"]:
                violations += 1
    ok = violations == 0
    _line(2, ok, f"translation ratios within [1/M_b, M_b] for |b|<=3: "
                 f"{checked} translations, {violations} violations")
    assert violations == 0


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_averaging_convergence(z_spec, z_bernoulli):
    rot = dynamics.rotation_system(z_spec, seed=20240)
    f_cos = markov.cos_observable(0)
    rep = markov.convergence_report(rot, f_cos, n_max=20, samples=400, seed=1)
    lam = abs(markov.rotation_eigenvalue(rot, 0))
    worst_rel = max(
        abs(rep["l2_dev"][n] / rep["l2_dev"][n - 1] - lam) / lam for n in range(1, 21)
    )
    f_ind = markov.indicator_observable(
        dynamics.CylinderSet.from_dict(z_spec, {0: 1})
    )
    repb = markov.convergence_report(z_bernoulli, f_ind, n_max=12, samples=4000, seed=2)
    worst_sigma = max(
        abs(repb["l2_dev"][n] ** 2 - repb["expected_l2"][n] ** 2) / repb["l2_se"][n]
        for n in range(1, 13)
    )
    ok = worst_rel <= 0.05 and worst_sigma <= 4.0
    _line(3, ok, f"averaging decay: rotation ratio err {worst_rel:.2%} (<=5%), "
                 f"fair-bit variance {worst_sigma:.2f} SE (<=4)")
    assert worst_rel <= 0.05
    assert worst_sigma <= 4.0


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_tower_validity(z_bernoulli):
    eta = 0.1
    tower = dynamics.rokhlin_tower(z_bernoulli, 3, eta, mc_samples=100_000, seed=4)
    ok = tower.collisions == 0 and tower.mc_ci_upper < eta / 2 and tower.mu_e_lower > 0
    _line(4, ok, f"tower: 10^5 samples, {tower.collisions} collisions, "
                 f"mu(B_N E) CI upper {tower.mc_ci_upper:.4f} < {eta/2}")
    assert tower.collisions == 0
    assert tower.mc_ci_upper < eta / 2
    assert tower.mu_e_lower > 0


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_stage_invariants(built_model):
    mdl, history, cfg = built_model
    exact_ok = all(
        st.checks["separation"]["pass"] and st.checks["nesting"]["pass"]
        for st in history
    )
    final = history[-1]
    mc3 = final.checks["exceptions"]["pass"]
    mc4 = final.checks["hitting"]["pass"]
    quartic = final.checks["quartic"]
    ok = exact_ok and mc3 and mc4 and quartic["pass"]
    per_stage = {k: round(v["ci_upper"], 4) for k, v in quartic["per_stage"].items()}
    _line(5, ok, f"4-stage build: exact separation/nesting {exact_ok}, "
                 f"exception budgets {mc3}, hitting budgets {mc4}, "
                 f"||f_n||_4 per stage {per_stage} (all < 1)")
    assert exact_ok
    assert mc3 and mc4
    assert quartic["pass"]


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_equivariance(built_model, z_weights, z_spec):
    mdl, history, cfg = built_model
    sys_b = dynamics.bernoulli_system(z_spec, 606)
    n_trunc = cfg.n_trunc
    mismatches = 0
    compared = 0
    for draw in range(1000):
        x = dynamics.sample_point(sys_b, draw)
        left_ev = model.ModelEvaluator(mdl, x)
        right_ev = model.ModelEvaluator(mdl, x)
        right_full, _ = model.phi(right_ev, x, n_trunc, z_weights)
        for h in groups.ball(z_spec, 2):
            xh = dynamics.act(sys_b, h, x)
            left, _ = model.phi(left_ev, xh, n_trunc - abs(h), z_weights)
            right = space.shift(right_full, h)
            for g in groups.ball(z_spec, n_trunc - abs(h)):
                compared += 1
                if left.coeffs.get(g, 0.0) != right.coeffs.get(g, 0.0):
                    mismatches += 1
    ok = mismatches == 0
    _line(6, ok, f"factor-map identity: {compared} coefficients over 10^3 "
                 f"samples x all h in B_2, {mismatches} mismatches (zero tolerance)")
    assert mismatches == 0


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_support_and_iso(built_model, z_weights):
    mdl, history, cfg = built_model
    rep = model.support_and_iso_check(mdl, history, z_weights, 3000, cfg, seed=7)
    ok = rep["pass"]
    lines = {
        i: (d["hit_pass"], d["symdiff_pass"], d["covers_disjoint"])
        for i, d in rep["levels"].items()
    }
    _line(7, ok, f"ball-hit >= delta_i and symdiff < gamma_i at 95%: {lines}")
    assert ok, rep


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_orbit_frequency(built_model, z_weights, z_bernoulli):
    mdl, history, cfg = built_model
    ball1 = history[0].ball
    x = dynamics.sample_point(dynamics.bernoulli_system(z_bernoulli.group, 808), 0)
    ev = model.ModelEvaluator(mdl, x)
    rep = model.orbit_frequency(ev, x, 1, ball1, 10_000, z_weights, cfg.n_trunc)
    iso = model.support_and_iso_check(mdl, history, z_weights, 1000, cfg, seed=8)
    mu_est = iso["levels"]["1"]["hit_freq"]
    se_mu = math.sqrt(max(mu_est * (1 - mu_est), 1e-12) / iso["samples"])
    gap = abs(rep["frequency"] - mu_est)
    tol = stats.Z95 * (rep["se_batch"] + se_mu) + 1e-6
    ok = rep["ci_lower"] > 0.0 and gap <= tol
    _line(8, ok, f"orbit visit frequency {rep['frequency']:.4f} over 10^4 steps, "
                 f"CI lower {rep['ci_lower']:.4f} > 0, vs measured mu {mu_est:.4f} "
                 f"(gap {gap:.2g} <= {tol:.2g})")
    assert rep["ci_lower"] > 0.0
    assert gap <= tol


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_doubling_baseline():
    rep = model.doubling_shift_baseline(steps=30, n_points=1000, seed=9)
    ok = rep["max_conjugacy_error"] < 1e-12
    _line(9, ok, f"doubling-shift conjugacy over 10^3 points x 30 blocks: "
                 f"max error {rep['max_conjugacy_error']:.2e} < 1e-12")
    assert rep["max_conjugacy_error"] < 1e-12
    assert rep["max_norm_identity_error"] < 1e-12


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_real_line():
    L = continuous.IntervalMeasure(2.0)
    grid = np.linspace(-4.2, 4.2, 10_000)
    worst = max(
        abs(
            continuous.overlap_density_quadrature(L, float(t))
            - continuous.overlap_density(L, float(t))
        )
        for t in grid
    )
    dom = continuous.domination_constant_real()
    ok = worst < 1e-6 and dom["u"] == 1.0 and dom["D"] == 2.0 and dom["violations"] == 0
    _line(10, ok, f"interval overlap quadrature err {worst:.2e} < 1e-6 on a "
                  f"10^4 grid; u={dom['u']}, D={dom['D']}, "
                  f"{dom['violations']} grid violations")
    assert worst < 1e-6
    assert dom["u"] == 1.0 and dom["D"] == 2.0
    assert dom["violations"] == 0


# -- 11 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def lf_chain():
    chain = continuous.LocallyFiniteChain(
        n_max=10, params=measures.WeightParams(q=0.5, n_max=10)
    )
    return chain, continuous.chain_convolution(chain)


def test_criterion_11a_haar_identity(lf_chain):
    chain, _ = lf_chain
    rep = continuous.haar_convolution_identity(chain)
    ok = rep["pass"]
    _line(11, ok, f"lambda_i * lambda_j = lambda_max(i,j): {rep['pairs_checked']} "
                  f"pairs exhaustively, max error {rep['max_abs_error']:.1e}")
    assert ok


def test_criterion_11b_domination_simple_constant(lf_chain):
    # Asserts the simple closed-form constant 1/p_1 + [K_m0 : K_1] for 20
    # sampled g0 on K_10.  The exhaustive scan shows this constant is too
    # small once m0 >= 3 (see the corrected-constant record in the report
    # and the notes shipped alongside this repository); the failure below is
    # the honest outcome of running the check as specified.
    chain, shared = lf_chain
    rng = np.random.default_rng(20240)
    pool = chain.subgroup(chain.n_max)
    picks = [pool[int(i)] for i in rng.choice(len(pool), size=20, replace=False)]
    total_violations = 0
    corrected_violations = 0
    worst = None
    for g0 in picks:
        rep = continuous.domination_check_locally_finite(chain, g0, precomputed=shared)
        total_violations += rep["violations"]
        corrected_violations += rep["violations_corrected"]
        if rep["violations"] and (worst is None or rep["worst_ratio"] > worst["worst_ratio"]):
            worst = rep
    ok = total_violations == 0
    detail = (
        ""
        if worst is None
        else f"; e.g. g0={worst['g0']}: ratio {worst['worst_ratio']:.1f} "
             f"> C_simple={worst['C_simple']:.0f} (C_corrected="
             f"{worst['C_corrected']:.0f} holds; corrected violations "
             f"{corrected_violations})"
    )
    _line(11, ok, f"chain domination with C=1/p1+[K_m0:K_1]: "
                  f"{total_violations} violations over 20 sampled g0{detail}")
    assert corrected_violations == 0  # the repaired constant is certified
    assert total_violations == 0, (
        "the simple closed-form constant undershoots for m0 >= 3 "
        f"(worst case: {worst})"
    )


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 77, "samples": {"tower_samples": 20_000}}))
    outs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        for command in ("tower", "norms", "feldman", "continuous"):
            status = cli.main(
                [command, "--config", str(cfg), "--out", str(out)]
            )
            # continuous carries the 11b record, which fails by design
            assert status == (1 if command == "continuous" else 0)
        outs.append(out)
    diffs = []
    for sub in ("tower", "norms", "feldman", "continuous"):
        for f in sorted((outs[0] / sub).iterdir()):
            if f.name == "run_meta.json":
                continue
            other = outs[1] / sub / f.name
            if f.read_bytes() != other.read_bytes():
                diffs.append(f"{sub}/{f.name}")
    ok = not diffs
    _line(12, ok, f"byte-identical reruns (same config+seed), "
                  f"{'no differing files' if ok else diffs}")
    assert not diffs
