import json
import math

import pytest

from walkrep import dynamics, groups, model, space, stats
from walkrep.errors import EncodingError, StageError


def test_basis_ball_enumeration_start(z_spec):
    b0 = model.basis_balls(0, z_spec)
    assert b0.center == () and b0.radius == 1.0
    b1 = model.basis_balls(1, z_spec)
    assert b1.center == ((0, 1.0),) and b1.radius == 1.0


def test_basis_ball_descriptors_injective(z_spec):
    import itertools

    stream = model._ball_descriptors(z_spec)
    seen = list(itertools.islice(stream, 1000))
    assert len(set(seen)) == 1000
    # surjective onto small descriptor triples: each appears at s = max
    for triple in [(0, 0, 0), (1, 2, 1), (2, 1, 3), (0, 3, 2)]:
        assert triple in seen


def test_basis_ball_centers_dyadic(z_spec):
    for k in range(40):
        b = model.basis_balls(k, z_spec)
        assert math.log2(1.0 / b.radius) == int(math.log2(1.0 / b.radius))
        for g, c in b.center:
            assert abs(g) <= b.level
            scaled = c * 2**b.level
            assert scaled == int(scaled)
            assert abs(scaled) <= 2 ** (2 * b.level)


def test_compute_eta_formula():
    state = model.StageState(
        n=1,
        ball=model.basis_balls(0, groups.GroupSpec("integers")),
        eta=0.5,
        beta=0.1,
        eps={1: 0.1},
        gamma={1: 0.1},
        delta={1: 0.1},
        range_values=(0.0,),
        value_sets={1: ((-0.1,), (0.1,))},
        covers={1: (((-0.15, -0.05),), ((0.05, 0.15),))},
    )
    assert model.compute_eta([state]) == 0.1 / 4.0
    state.delta[1] = 0.05
    assert model.compute_eta([state]) == 0.05 / 4.0


def test_build_single_stage_smoke(z_bernoulli, z_weights):
    cfg = model.BuildConfig(stages=1, seed=3, check_samples=400, base_samples=60)
    mdl, history = model.build_model(z_bernoulli, z_weights, cfg)
    assert len(history) == 1
    final = history[-1]
    assert final.checks["separation"]["pass"]
    assert final.checks["exceptions"]["pass"]
    assert final.checks["hitting"]["pass"]
    assert final.checks["quartic"]["pass"]
    # the initial function is zero, so stage 1 splits a single value
    assert final.range_values == (-0.1, 0.1)
    assert final.eps[1] == 0.1


def test_full_build_stage_invariants(built_model):
    mdl, history, cfg = built_model
    final = history[-1]
    assert final.checks["separation"]["pass"]
    assert final.checks["nesting"]["pass"]
    assert final.checks["range"]["pass"]
    assert final.checks["exceptions"]["pass"]
    assert final.checks["hitting"]["pass"]
    assert final.checks["quartic"]["pass"]
    # value-set count doubles per split stage
    for state, nxt in zip(history, history[1:]):
        for i in state.value_sets:
            assert len(nxt.value_sets[i][0]) == 2 * len(state.value_sets[i][0])


def test_stage_budgets_decrease(built_model):
    _, history, _ = built_model
    final = history[-1]
    etas = [st.eta for st in history]
    assert all(a >= b for a, b in zip(etas, etas[1:]))
    betas = [st.beta for st in history]
    assert all(a > b for a, b in zip(betas, betas[1:]))
    gammas = [final.gamma[i] for i in sorted(final.gamma)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_phi_center_coordinate(built_model, z_bernoulli, z_weights):
    mdl, history, cfg = built_model
    x = dynamics.sample_point(z_bernoulli, 123)
    ev = model.ModelEvaluator(mdl, x)
    vec, tail = model.phi(ev, x, 8, z_weights)
    assert vec.coeffs.get(0, 0.0) == ev.value_at(x)
    assert 0.0 <= tail < 0.01
    wide, tail_wide = model.phi(ev, x, 16, z_weights)
    assert tail_wide < tail  # widening the window shrinks the tail bound
    assert space.norm(vec) <= mdl.max_abs() + 1e-12


def test_phi_constant_model(z_bernoulli, z_weights):
    # a model with no stages is the zero function
    mdl = model.ModelFunction(
        system=z_bernoulli, stages=[], family=dynamics.SetFamily(z_bernoulli.group)
    )
    x = dynamics.sample_point(z_bernoulli, 5)
    vec, tail = model.phi(model.ModelEvaluator(mdl, x), x, 6, z_weights)
    assert vec.coeffs == {}
    assert tail == 0.0


def test_evaluator_values_in_range(built_model, z_bernoulli):
    mdl, history, _ = built_model
    allowed = set(history[-1].range_values)
    for draw in range(80):
        x = dynamics.sample_point(z_bernoulli, draw)
        ev = model.ModelEvaluator(mdl, x)
        assert ev.value_at(x) in allowed


def test_hit_events_nested(built_model):
    mdl, history, cfg = built_model
    tower1 = mdl.stages[0].patch.tower
    gen = dynamics.conditional_base_sampler(tower1, seed=42)
    n = len(history)
    for _ in range(40):
        x = next(gen)
        ev = model.ModelEvaluator(mdl, x)
        flags = [ev.in_hit_event(1, m) for m in range(1, n + 1)]
        # membership at stage m implies membership at every earlier stage
        for earlier, later in zip(flags, flags[1:]):
            assert earlier or not later


def test_equivariance_exact(built_model, z_weights):
    mdl, history, cfg = built_model
    for h in (0, 1, -2):
        rep = model.equivariance_check(mdl, z_weights, samples=40, h=h, n_trunc=12, seed=5)
        assert rep["mismatches"] == 0


def test_support_and_iso(built_model, z_weights):
    mdl, history, cfg = built_model
    rep = model.support_and_iso_check(mdl, history, z_weights, 1500, cfg, seed=6)
    assert rep["pass"], rep


def test_orbit_frequency_whole_space(built_model, z_weights, z_bernoulli):
    mdl, history, cfg = built_model
    x = dynamics.sample_point(z_bernoulli, 9)
    ev = model.ModelEvaluator(mdl, x)
    # a ball so large that membership always holds
    big = model.BallSpec(index=-1, level=0, center=(), radius=1e6)
    rep = model.orbit_frequency(ev, x, 1, big, 200, z_weights, 10)
    assert rep["frequency"] == 1.0


def test_evaluator_locate_matches_tower(built_model, z_bernoulli):
    # TowerSpec.locate is the oracle for the memoized evaluator
    mdl, _, _ = built_model
    for j, stage in enumerate(mdl.stages):
        tower = stage.patch.tower
        gen = dynamics.conditional_base_sampler(tower, seed=70 + j)
        for _ in range(10):
            x = next(gen)
            ev = model.ModelEvaluator(mdl, x)
            for u in range(-2 * tower.n - 2, 2 * tower.n + 3):
                assert ev.locate(j, u) == tower.locate(dynamics.act(z_bernoulli, u, x))


# mu_e_lower * Clopper-Pearson lower bound of the stratified hit estimate at
# sampler seed 5006 + i, as the estimator computed them before it was shared
# with check 4_n
STRATIFIED_LOWER_SEED_6 = {
    1: 0.03053775782951667,
    2: 0.00011928811652154949,
    3: 2.3298460258115135e-07,
    4: 2.275240259581556e-10,
}


def test_conditional_hits_reproduce_stratified_bound(built_model, z_weights):
    mdl, history, cfg = built_model
    for i, expected in STRATIFIED_LOWER_SEED_6.items():
        _, in_ball = model.conditional_hits(mdl, history, i, z_weights, cfg, 6 + 5000 + i)
        lower = stats.clopper_pearson(in_ball, cfg.base_samples)[0]
        assert mdl.stages[i - 1].patch.tower.mu_e_lower * lower == expected


def test_serialization_roundtrip(built_model, z_bernoulli):
    mdl, history, _ = built_model
    data = json.loads(json.dumps(mdl.to_dict()))
    back = model.model_from_dict(data)
    x = dynamics.sample_point(z_bernoulli, 44)
    ev1 = model.ModelEvaluator(mdl, x)
    ev2 = model.ModelEvaluator(back, x)
    for g in range(-15, 16):
        assert ev1.f_value(g) == ev2.f_value(g)


def test_model_load_rejects_malformed_elements(built_model):
    mdl, _, _ = built_model
    for key in ("xi", "tower_pattern"):
        for bad in (1.5, True, [1], "1"):
            data = json.loads(json.dumps(mdl.to_dict()))
            data["stages"][-1][key][0][0] = bad
            with pytest.raises(EncodingError):
                model.model_from_dict(data)


def test_lattice_build_smoke():
    from walkrep import measures

    z2 = groups.GroupSpec("lattice", 2)
    w2 = measures.build_weight(z2, measures.WeightParams(q=0.5, n_max=14))
    sys2 = dynamics.bernoulli_system(z2, seed=7)
    cfg = model.BuildConfig(stages=2, seed=7, check_samples=1500, base_samples=60, n_trunc=6)
    mdl, history = model.build_model(sys2, w2, cfg)
    final = history[-1]
    assert all(v["pass"] for v in final.checks.values())
    rep = model.equivariance_check(mdl, w2, samples=20, h=(1, 0), n_trunc=5, seed=2)
    assert rep["mismatches"] == 0


def test_split_collision_detected(z_bernoulli, z_weights):
    cfg = model.BuildConfig(stages=1, seed=3, check_samples=50, base_samples=30)
    mdl, history = model.build_model(z_bernoulli, z_weights, cfg)
    # stage-2 offset is beta_1 / 8; two values exactly twice that apart collide
    s = history[0].beta / 8.0
    mdl.range_values = lambda: (0.0, 2.0 * s)
    with pytest.raises(StageError):
        model.split_values(mdl, history, 1)


def test_feldman_identity_and_norm():
    rep = model.doubling_shift_baseline(steps=30, n_points=200, seed=1)
    assert rep["pass"]
    assert rep["max_conjugacy_error"] < 1e-12
    assert rep["tail_bound"] == 2.0**-30
