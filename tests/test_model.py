import itertools
import json
import math
import re

import numpy as np
import pytest

from handles import handles, located_by_translates, point
from vectors import WeightedVector, norm, shift, weight
from walkrep import dynamics, groups, measures, model, stats
from walkrep.commands import feldman
from walkrep.config import SQRT2_MINUS_1, ExperimentConfig, SampleConfig, WeightConfig
from walkrep.errors import CapacityError, DomainError, EncodingError, StageError


class ModelEvaluator:
    """Dict oracle for the window evaluator: one point, lazy reads.

    The marker and cylinder tests go cell by cell over the root's bits,
    memoized by absolute group position like every event test and function
    value, so translates of the root share them all.  A bit not yet read
    brings in the cube of cells around it in one ``dynamics.read_cells``.
    """

    PAD = {1: 64, 2: 8, 3: 4}  # half side of the cube read on a miss, by rank

    def __init__(self, mdl: model.ModelFunction, x: dynamics.PointBatch):
        self.model = mdl
        self.spec = mdl.spec
        self.root = dynamics.PointBatch(x.system, x.draws, x.stream, x.forced, groups.identity(mdl.spec))
        self.cylinders = [
            None if st.split is None else dynamics.routing_cylinder(mdl.spec, st.split.a_index) for st in mdl.stages
        ]
        n_stages = len(mdl.stages)
        self._bits = {}
        self._base = [dict() for _ in range(n_stages)]
        self._locate = [dict() for _ in range(n_stages)]
        self._route = [dict() for _ in range(n_stages)]
        self._values = [dict() for _ in range(n_stages + 1)]

    def _bit(self, position) -> int:
        if position not in self._bits:
            centre = groups.coords(self.spec, [position])[0].tolist()
            pad = self.PAD[len(centre)]
            cube = list(itertools.product(*(range(c - pad, c + pad + 1) for c in centre)))
            cells = [c[0] for c in cube] if self.spec.kind == "integers" else cube
            self._bits.update(zip(cells, dynamics.read_cells(self.root, cells)[0].tolist()))
        return self._bits[position]

    def _has(self, constraints, u) -> bool:
        """Whether T_u of the root meets every (cell, bit) constraint."""
        return all(self._bit(groups.multiply(self.spec, c, u)) == b for c, b in constraints)

    def in_base(self, j: int, u) -> bool:
        cache = self._base[j]
        if u not in cache:
            cache[u] = self._has(self.model.stages[j].tower.pattern.bits, u)
        return cache[u]

    def locate(self, j: int, position):
        """g in B_N with T_{g^-1} T_position x in E_j, or None."""
        cache = self._locate[j]
        if position not in cache:
            spec = self.spec
            cache[position] = next(
                (
                    g
                    for g in groups.ball(spec, self.model.stages[j].tower.n)
                    if self.in_base(j, groups.multiply(spec, groups.inverse(spec, g), position))
                ),
                None,
            )
        return cache[position]

    def in_routing_set(self, j: int, position) -> bool:
        cache = self._route[j]
        if position not in cache:
            cache[position] = self._has(self.cylinders[j].bits, position)
        return cache[position]

    def f_value(self, position, stage_count: int | None = None) -> float:
        k = len(self.model.stages) if stage_count is None else stage_count
        v = 0.0
        start = 0
        for j in range(k, 0, -1):
            hit = self._values[j].get(position)
            if hit is not None:
                v = hit
                start = j
                break
        for j in range(start, k):
            stage = self.model.stages[j]
            g = self.locate(j, position)
            if g is not None:
                v = stage.xi.get(g, 0.0)
            if stage.split is not None:
                if v not in stage.split.parents:
                    raise KeyError(v)
                s = stage.split.offset
                v = v - s if self.in_routing_set(j, position) else v + s
            self._values[j + 1][position] = v
        return v

    def in_hit_event(self, i: int, n: int, position=None) -> bool:
        spec = self.spec
        if position is None:
            position = groups.identity(spec)
        if not self.in_base(i - 1, position):
            return False
        n_i = self.model.stages[i - 1].tower.n
        for j in range(i + 1, n + 1):
            n_j = self.model.stages[j - 1].tower.n
            for k in groups.ball(spec, n_i + n_j):
                if self.in_base(j - 1, groups.multiply(spec, groups.inverse(spec, k), position)):
                    return False
        return True


def oracle_phi(ev, x, n_trunc, stage_count=None):
    spec, w = ev.spec, ev.model.w
    coeffs = {
        g: ev.f_value(groups.multiply(spec, g, x.offset), stage_count=stage_count)
        for g in groups.ball(spec, n_trunc)
    }
    tail = ev.model.max_abs() * math.sqrt(w.tail_mass_outside_ball(n_trunc))
    return WeightedVector(w, coeffs), tail


def _elem_from_json(spec, v):
    """A loaded element; raises EncodingError unless it is canonical."""
    g = tuple(v) if isinstance(v, list) else v
    groups.check_element(spec, g)
    return g


def model_from_dict(data: dict, w: measures.WeightTable) -> model.ModelFunction:
    """The model of ``ModelFunction.to_dict`` on the weight table ``w``, for
    round trips.  The split keeps only the map's parents and the offset, so
    a map pair other than (u - offset, u + offset) raises EncodingError."""
    sysd = data["system"]
    spec = groups.GroupSpec(sysd["group"]["kind"], sysd["group"]["d"])
    system = dynamics.DynamicalSystem(
        sysd["kind"], spec, sysd["seed"], tuple(sysd.get("alpha", ()))
    )
    stages = []
    for sd in data["stages"]:
        tower = dynamics.TowerSpec(
            system=system,
            n=sd["n"],
            eta=sd["tower"]["eta"],
            pattern=dynamics.CylinderSet.from_dict(spec, {_elem_from_json(spec, p): b for p, b in sd["tower_pattern"]}),
        )
        xi = {_elem_from_json(spec, g): float(v) for g, v in sd["xi"]}
        split = None
        if sd["split"] is not None:
            s = sd["split"]["offset"]
            pairs = {float.fromhex(u): tuple(float.fromhex(v) for v in pair) for u, pair in sd["split"]["map"]}
            for u, pair in pairs.items():
                if pair != (u - s, u + s):
                    raise EncodingError(f"split pair {pair} of {u} is not u -+ {s}")
            split = model.StageSplit(a_index=sd["split"]["a_index"], offset=s, parents=tuple(pairs))
        stages.append(model.ModelStage(tower, xi, sd["n0"], split))
    return model.ModelFunction(system=system, stages=stages, w=w)


def dict_vectors(phis, w) -> list:
    """The rows of ``model.phi``'s matrix as (dict vector, tail) pairs."""
    ball, values, tail = phis
    return [(WeightedVector(w, dict(zip(ball, row))), tail) for row in values.tolist()]


def oracle_ball_hits(phis, ball, w) -> tuple[int, int]:
    """``model.ball_hits`` on dict vectors, as it was computed before the
    array distances."""
    center = WeightedVector(w, ball.center_dict())
    hits = indeterminate = 0
    for vec, tail in dict_vectors(phis, w):
        dist = norm(vec - center)
        if dist + tail < ball.radius:
            hits += 1
        elif dist <= ball.radius:
            indeterminate += 1
    return hits, indeterminate


def oracle_equivariance(mdl, samples, h, n_trunc, seed) -> tuple[int, int]:
    """(compared, mismatches) of ``model.equivariance_check`` on dict
    vectors shifted by ``vectors.shift``."""
    spec, w = mdl.spec, mdl.w
    probe = dynamics.probe_system(mdl.system, "equiv", seed)
    common = n_trunc - groups.word_length(spec, h)
    points = dynamics.sample_points(probe, np.arange(samples))
    lefts = dict_vectors(model.phi(mdl, points.moved(h), common), w)
    rights = dict_vectors(model.phi(mdl, points, n_trunc), w)
    compared = mismatches = 0
    for (left, _), (right_full, _) in zip(lefts, rights):
        right = shift(right_full, h)
        for g in groups.ball(spec, common):
            compared += 1
            mismatches += left.coeffs.get(g, 0.0) != right.coeffs.get(g, 0.0)
    return compared, mismatches


def box_cells(lo, hi) -> np.ndarray:
    """The (C, d) cells of the box [lo, hi], in C order."""
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@pytest.mark.parametrize("kind,d", [("integers", 1), ("lattice", 2), ("lattice", 3), ("heisenberg", 2)])
def test_ball_box_holds_the_word_ball(kind, d):
    # the box of ``measures.cell_box``, which sizes the weight tables
    spec = groups.GroupSpec(kind, d)
    for r in range(7):
        radii = np.array(measures.cell_box(spec, r)[0])
        lo, hi = -radii, radii
        cells = groups.coords(spec, groups.ball(spec, r))
        assert ((cells >= lo) & (cells <= hi)).all()
        if kind != "heisenberg":
            assert lo.tolist() == [-r] * d and hi.tolist() == [r] * d
        elif r == 6:
            # the z-extent grows like r^2 / 4: (-4, -2, 7) lies in B_6
            assert (-4, -2, 7) in groups.ball(spec, r) and hi.tolist() == [6, 6, 9]


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
        value_sets={1: ((-0.1,), (0.1,))},
    )
    assert model.compute_eta([state]) == 0.1 / 4.0
    state.delta[1] = 0.05
    assert model.compute_eta([state]) == 0.05 / 4.0


@pytest.mark.parametrize("beta, nested", [(0.01, True), (0.02, False)])
def test_nesting_check_walks_each_parent_to_its_children(beta, nested):
    # level 1 of stage 1 has two parents per side, each with the cover
    # [u - 0.01, u + 0.01]; stage 2 splits them by s = 0.0025, and a new
    # beta of 0.02 puts every child's cover past its parent's edge
    z = groups.GroupSpec("integers")
    sets = ((-0.3, -0.1), (0.1, 0.3))
    prev = model.StageState(1, model.basis_balls(0, z), 0.5, 0.02, {1: 0.1}, {1: 0.1}, {1: 0.1}, {1: sets})
    s = 0.0025
    split = model.StageSplit(a_index=2, offset=s, parents=(-0.3, -0.1, 0.1, 0.3))
    value_sets = {
        1: tuple(tuple(sorted(x for u in side for x in (u - s, u + s))) for side in sets),
        2: (tuple(u - s for u in split.parents), tuple(u + s for u in split.parents)),
    }
    state = model.StageState(2, model.basis_balls(1, z), 0.5, beta, {}, {}, {}, value_sets)
    assert model._check_nesting(prev, state, split) == {"pass": nested, "checked": 2 * (2 + 2)}
    assert model._check_nesting(None, state, split) == {"pass": True, "checked": 0}


def test_build_single_stage_smoke(z_bernoulli, z_weights):
    cfg = ExperimentConfig(stages=1, seed=3, samples=SampleConfig(check_samples=400, base_samples=60))
    mdl = model.build_model(z_bernoulli, z_weights, cfg)
    assert mdl.w is z_weights
    assert set(mdl.history[-1].checks) == {"separation", "nesting", "patch"}
    model.run_stage_checks(mdl, cfg)
    assert len(mdl.history) == 1
    final = mdl.history[-1]
    assert final.checks["separation"]["pass"]
    assert final.checks["exceptions"]["pass"]
    assert final.checks["hitting"]["pass"]
    assert final.checks["quartic"]["pass"]
    # the initial function is zero, so stage 1 splits a single value
    assert final.range_values == (-0.1, 0.1)
    assert final.eps[1] == 0.1


def test_full_build_stage_invariants(built_model):
    mdl, cfg = built_model
    history = mdl.history
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


def test_stage_range_and_covers_follow_the_split(built_model):
    # the range after stage k is u -+ s over the split's parents, and each
    # cover is the interval of width beta around its value
    mdl = built_model[0]
    for st, state in zip(mdl.stages, mdl.history):
        s, parents = st.split.offset, st.split.parents
        assert state.range_values == tuple(sorted(x for u in parents for x in (u - s, u + s)))
        for i, sides in state.value_sets.items():
            for values, covers in zip(sides, state.covers[i]):
                assert covers == tuple((u - state.beta / 2.0, u + state.beta / 2.0) for u in values)
    assert mdl.range_values() == mdl.history[-1].range_values


def test_stage_budgets_decrease(built_model):
    history = built_model[0].history
    final = history[-1]
    etas = [st.eta for st in history]
    assert all(a >= b for a, b in zip(etas, etas[1:]))
    betas = [st.beta for st in history]
    assert all(a > b for a, b in zip(betas, betas[1:]))
    gammas = [final.gamma[i] for i in sorted(final.gamma)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_phi_center_coordinate(built_model, z_bernoulli, z_weights):
    mdl, cfg = built_model
    x = point(z_bernoulli, 123)
    ball, vec, tail = model.phi(mdl, x, 8)
    assert ball == groups.ball(z_bernoulli.group, 8) and vec.shape == (1, len(ball))
    values, _ = model.point_values(mdl, x)
    assert vec[0, ball.index(0)] == values[-1][0]
    assert 0.0 <= tail < 0.01
    _, _, tail_wide = model.phi(mdl, x, 16)
    assert tail_wide < tail  # widening the window shrinks the tail bound
    ((dict_vec, _),) = dict_vectors((ball, vec, tail), z_weights)
    assert norm(dict_vec) <= mdl.max_abs() + 1e-12


def test_phi_constant_model(z_bernoulli, z_weights):
    # a model with no stages is the zero function
    mdl = model.ModelFunction(system=z_bernoulli, stages=[], w=z_weights)
    _, vec, tail = model.phi(mdl, point(z_bernoulli, 5), 6)
    assert not vec.any()
    assert tail == 0.0


def test_evaluator_values_in_range(built_model, z_bernoulli):
    mdl = built_model[0]
    allowed = set(mdl.history[-1].range_values)
    values, _ = model.point_values(mdl, dynamics.sample_points(z_bernoulli, np.arange(80)))
    assert set(values[-1].tolist()) <= allowed


def test_window_rejects_rotation_points(built_model, z_spec):
    mdl = built_model[0]
    x = point(dynamics.rotation_system(z_spec, 1), 0)
    with pytest.raises(DomainError):
        model.point_values(mdl, x)


def test_hit_events_nested(built_model):
    mdl = built_model[0]
    tower1 = mdl.stages[0].tower
    n = len(mdl.history)
    points = dynamics.conditional_base_sampler(tower1, 42, 40)
    (win,) = model.orbit_windows(mdl, points, box_cells((-tower1.n,), (tower1.n,)))
    flags = [win.in_hit_event(1, m) for m in range(1, n + 1)]
    # membership at stage m implies membership at every earlier stage
    for earlier, later in zip(flags, flags[1:]):
        assert not (later & ~earlier).any()


def test_equivariance_exact(built_model):
    mdl = built_model[0]
    reps = model.equivariance_check(mdl, samples=40, hs=[0, 1, -2], n_trunc=12, seed=5)
    assert [rep["h"] for rep in reps] == ["0", "1", "-2"]
    assert all(rep["mismatches"] == 0 and rep["pass"] for rep in reps)


def test_support_and_iso(built_model):
    mdl, cfg = built_model
    cfg = cfg._replace(seed=6, samples=cfg.samples._replace(check_samples=1500))
    rep = model.support_and_iso_check(mdl, cfg)
    assert rep["pass"], rep


def test_orbit_frequency_whole_space(built_model, z_bernoulli):
    mdl = built_model[0]
    x = point(z_bernoulli, 9)
    # a ball so large that membership always holds
    big = model.BallSpec(index=-1, level=0, center=(), radius=1e6)
    rep = model.orbit_frequency(mdl, x, 1, big, 200, 10)
    assert rep["frequency"] == 1.0


def test_evaluator_locate_matches_tower(built_model, z_bernoulli):
    # the compare-all marker test is the oracle of the window's locate and
    # of TowerSpec.located, which share the bit box and its sieve
    mdl = built_model[0]
    for j, stage in enumerate(mdl.stages):
        tower = stage.tower
        ball = groups.ball(z_bernoulli.group, tower.n)
        points = dynamics.conditional_base_sampler(tower, 70 + j, 10)
        lo, hi = -2 * tower.n - 2, 2 * tower.n + 2
        (win,) = model.orbit_windows(mdl, points, box_cells((lo,), (hi,)))
        for u in range(lo, hi + 1):
            located = located_by_translates(tower, points.moved(u))
            assert np.array_equal(tower.located(points.moved(u)), located)
            for gi, hits in zip(win.locate(j)[:, u - lo].tolist(), located):
                assert (None if gi < 0 else ball[gi]) == (ball[hits.argmax()] if hits.any() else None)


# mu_e_lower * Clopper-Pearson lower bound of the stratified hit estimate at
# sampler seed 5006 + i, as the estimator computed them before it was shared
# with check 4_n
STRATIFIED_LOWER_SEED_6 = {
    1: 0.03053775782951667,
    2: 0.00011928811652154949,
    3: 2.3298460258115135e-07,
    4: 2.275240259581556e-10,
}


def test_conditional_hits_reproduce_stratified_bound(built_model):
    mdl, cfg = built_model
    for i, expected in STRATIFIED_LOWER_SEED_6.items():
        _, in_ball, lower, ok = model.conditional_hits(mdl, i, cfg, 6 + 5000 + i, expected)
        cp_lower = stats.clopper_pearson(in_ball, cfg.samples.base_samples)[0]
        assert lower == mdl.stages[i - 1].tower.mu_pattern * cp_lower == expected
        assert not ok  # a bound equal to its requirement fails


def test_serialization_roundtrip(built_model, z_bernoulli):
    mdl = built_model[0]
    data = json.loads(json.dumps(mdl.to_dict()))
    back = model_from_dict(data, mdl.w)
    x = point(z_bernoulli, 44)
    (win1,) = model.orbit_windows(mdl, x, box_cells((-15,), (15,)))
    (win2,) = model.orbit_windows(back, x, box_cells((-15,), (15,)))
    assert (win1.values() == win2.values()).all()


def test_model_load_rejects_malformed_elements(built_model):
    mdl = built_model[0]
    for key in ("xi", "tower_pattern"):
        for bad in (1.5, True, [1], "1"):
            data = json.loads(json.dumps(mdl.to_dict()))
            data["stages"][-1][key][0][0] = bad
            with pytest.raises(EncodingError):
                model_from_dict(data, mdl.w)


def test_model_load_rejects_a_tampered_split_pair(built_model):
    # the loaded split keeps the parents and the offset only, so a map pair
    # that is not (u - s, u + s) must not load
    mdl = built_model[0]
    pair = mdl.to_dict()["stages"][-1]["split"]["map"][0][1]
    nudged = math.nextafter(float.fromhex(pair[1]), 1.0).hex()
    for bad in (pair[::-1], [pair[0], nudged]):
        data = json.loads(json.dumps(mdl.to_dict()))
        data["stages"][-1]["split"]["map"][0][1] = bad
        with pytest.raises(EncodingError, match="split pair"):
            model_from_dict(data, mdl.w)


@pytest.fixture(scope="module")
def lattice_built():
    z2 = groups.GroupSpec("lattice", 2)
    w2 = measures.build_weight(z2, WeightConfig(q=0.5, n_max=14))
    sys2 = dynamics.bernoulli_system(z2, seed=7)
    cfg = ExperimentConfig(
        stages=2, seed=7, n_trunc=6, samples=SampleConfig(check_samples=1500, base_samples=60)
    )
    mdl = model.build_model(sys2, w2, cfg)
    model.run_stage_checks(mdl, cfg)
    return mdl


@pytest.fixture(scope="module")
def cube_built():
    # the golden manifest's ``cube`` model: two stages on Z^3
    z3 = groups.GroupSpec("lattice", 3)
    w3 = measures.build_weight(z3, WeightConfig(q=0.5, n_max=8))
    cfg = ExperimentConfig(stages=2, n_trunc=4, samples=SampleConfig(check_samples=300, base_samples=60))
    return model.build_model(dynamics.bernoulli_system(z3, seed=cfg.seed), w3, cfg)


def _grow(lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray) -> tuple:
    """The box of u + m for u in [lo, hi] and m a row of ``offsets``."""
    return lo + offsets.min(axis=0), hi + offsets.max(axis=0)


def _folded_bit_box(stages: list, cells: np.ndarray) -> tuple:
    """The oracle of ``OrbitWindow.bit_box``: the box around ``cells``
    grown, stage by stage, by its locate ball and then its marker, and by
    its routing cylinder."""
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    blo, bhi = lo, hi
    for st in stages:
        boxes = [_grow(*_grow(lo, hi, st.ball), st.tower.marker[0])]
        if len(st.cylinder[0]):
            boxes.append(_grow(lo, hi, st.cylinder[0]))
        for slo, shi in boxes:
            blo, bhi = np.minimum(blo, slo), np.maximum(bhi, shi)
    return blo, bhi


@pytest.mark.parametrize("built", ["built_model", "lattice_built", "cube_built"])
def test_bit_box_is_the_span_grown_by_each_stage_reach(built, request):
    # every stage prefix, the stages without their splits (as ``hit_ball``
    # makes them), and a stage whose cylinder reaches past its tower's box,
    # on the window ball, a shifted box and scattered cells: the span grown
    # by the reaches is the folded box
    mdl = request.getfixturevalue(built)
    mdl = mdl[0] if built == "built_model" else mdl
    unsplit = [model.ModelStage(st.tower, st.xi, st.n0) for st in mdl.stages]
    e = groups.identity(mdl.spec)
    tower = dynamics.TowerSpec(mdl.system, 0, 0.5, dynamics.CylinderSet.from_dict(mdl.spec, {e: 1}))
    far = model.ModelStage(tower, {e: 0.5}, 0, model.StageSplit(2**30, 0.25, (0.5,)))
    assert (far.cylinder[0].min(axis=0) < tower.box[0]).any() or (far.cylinder[0].max(axis=0) > tower.box[1]).any()
    d = mdl.stages[0].ball.shape[1]
    scattered = np.random.default_rng(4).integers(-20, 20, size=(9, d))
    prefixes = [mdl.stages[:k] for k in range(len(mdl.stages) + 1)]
    for cells in (mdl.w.ball(3)[1], box_cells((-2,) * d, (5,) * d) + 7, scattered):
        span = cells.min(axis=0), cells.max(axis=0)
        for stages in prefixes + [unsplit, mdl.stages[:1] + unsplit[1:], [far], mdl.stages + [far]]:
            lo, hi = model.OrbitWindow.bit_box(stages, span)
            want_lo, want_hi = _folded_bit_box(stages, cells)
            assert lo.tolist() == want_lo.tolist() and hi.tolist() == want_hi.tolist()


def test_lattice_build_smoke(lattice_built):
    mdl = lattice_built
    final = mdl.history[-1]
    assert all(v["pass"] for v in final.checks.values())
    (rep,) = model.equivariance_check(mdl, samples=20, hs=[(1, 0)], n_trunc=5, seed=2)
    assert rep["mismatches"] == 0


def test_window_values_follow_the_cells_in_list_order(lattice_built):
    # the cells of B_3 on Z^2 shuffled, one of them listed twice: one
    # window's values equal the dict oracle at every listed cell, in order
    mdl = lattice_built
    spec = mdl.spec
    ball = groups.ball(spec, 3)
    listed = [ball[k] for k in np.random.default_rng(1).permutation(len(ball))]
    listed.insert(3, listed[10])
    points = dynamics.conditional_base_sampler(mdl.stages[-1].tower, 8, 3)
    cells = groups.coords(spec, listed)
    win = model.OrbitWindow(mdl.stages, points, cells, (cells.min(axis=0), cells.max(axis=0)))
    values = win.values()
    assert values.shape == (len(points), len(listed)) and len(set(values.ravel().tolist())) > 2
    for row, x in zip(values.tolist(), handles(points)):
        ev = ModelEvaluator(mdl, x)
        assert row == [ev.f_value(groups.multiply(spec, g, x.offset)) for g in listed]


def _far_balls(spec, w, n_trunc) -> list:
    """Balls whose centers reach past the truncation window, one atom past
    the stored weight support (where the tail allowance applies)."""
    e = groups.identity(spec)
    a = groups.generators(spec)[0]
    near = groups.power(spec, a, n_trunc + 1)
    far = groups.power(spec, a, w.params.n_max + 5)
    assert weight(w, far) == 0.0 < weight(w, near)
    balls = []
    for radius in (0.05, 0.3, 1.0):
        balls.append(model.BallSpec(-1, 3, ((e, 0.25), (near, -0.5)), radius))
        balls.append(model.BallSpec(-1, 3, ((e, -0.125), (far, 0.75)), radius))
    return balls


def _check_dense_against_dict(mdl, n_trunc, samples, hs, steps):
    """``ball_hits``, ``orbit_frequency`` along each step a of ``steps`` and
    ``equivariance_check`` on the array orbit vectors equal the dict oracle
    exactly."""
    spec, w = mdl.spec, mdl.w
    points, phis = model.probe_orbit_vectors(mdl, samples, n_trunc, seed=3)
    balls = [st.ball for st in mdl.history] + _far_balls(spec, w, n_trunc)
    for ball in balls:
        want = [norm(vec - WeightedVector(w, ball.center_dict())) for vec, _ in dict_vectors(phis, w)]
        assert model.distances(phis[0], phis[1], ball, w).tolist() == want
        assert model.ball_hits(phis, ball, w) == oracle_ball_hits(phis, ball, w)
    x = points[[0]]
    for a, ball in itertools.product(steps, balls[:1] + balls[-2:]):
        rep = model.orbit_frequency(mdl, x, a, ball, 25, n_trunc)
        series, indeterminate = _oracle_orbit(mdl, x, a, ball, 25, n_trunc)
        assert (rep["series"], rep["indeterminate"]) == (series, indeterminate)
        assert rep["hits"] == sum(series)
    for h, rep in zip(hs, model.equivariance_check(mdl, samples=12, hs=hs, n_trunc=n_trunc, seed=4), strict=True):
        assert (rep["compared"], rep["mismatches"]) == oracle_equivariance(mdl, 12, h, n_trunc, 4)


def test_dense_orbit_vectors_match_dict_oracle_z(built_model):
    _check_dense_against_dict(built_model[0], 12, 60, hs=(0, 1, -2), steps=(1, 3, -2))


def test_dense_orbit_vectors_match_dict_oracle_lattice(lattice_built):
    _check_dense_against_dict(lattice_built, 5, 30, hs=((1, 0), (0, -1)), steps=((1, 0), (2, -1)))


def test_dense_equivariance_counts_mismatches(built_model, monkeypatch):
    # a phi that corrupts the unshifted side: the dense and dict comparisons
    # count the same mismatches
    mdl = built_model[0]
    phi = model.phi

    def corrupted(mdl, points, n_trunc):
        ball, values, tail = phi(mdl, points, n_trunc)
        if n_trunc == 8:
            values = values.copy()
            values[::3, ::4] += 0.5
        return ball, values, tail

    monkeypatch.setattr(model, "phi", corrupted)
    (rep,) = model.equivariance_check(mdl, samples=10, hs=[1], n_trunc=8, seed=2)
    assert rep["mismatches"] > 0
    assert (rep["compared"], rep["mismatches"]) == oracle_equivariance(mdl, 10, 1, 8, 2)


def _loose_model(system: dynamics.DynamicalSystem, w: measures.WeightTable) -> model.ModelFunction:
    """Two stages with hand-built overlapping markers: unlike a built tower,
    two base points can share a locate ball, so the order of the locate
    ball changes values."""
    spec = system.group
    a = groups.generators(spec)[0]
    mdl = model.ModelFunction(system=system, stages=[], w=w)
    for j, (n, pattern) in enumerate(((2, {groups.identity(spec): 1, a: 0}), (1, {groups.identity(spec): 1}))):
        tower = dynamics.TowerSpec(
            system=system, n=n, eta=0.5, pattern=dynamics.CylinderSet.from_dict(spec, pattern)
        )
        xi = {g: (i + 1) / 8 for i, g in enumerate(groups.ball(spec, n))}
        mdl.stages.append(model.ModelStage(tower, xi, n))
        split = model.StageSplit(a_index=j + 1, offset=2.0 ** -(6 + 3 * j), parents=mdl.range_values())
        mdl.stages[-1] = model.ModelStage(tower, xi, n, split)
    return mdl


def _assert_window_matches_oracle(mdl: model.ModelFunction, points: dynamics.PointBatch, radius: int):
    """Values of every stage prefix, locate, routing and the hit events of
    a window over [-radius, radius]^d equal the dict oracle's, exactly."""
    spec = mdl.spec
    n = len(mdl.stages)
    d = 1 if spec.kind == "integers" else spec.d
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    cells = [c[0] for c in box] if spec.kind == "integers" else box
    (win,) = model.orbit_windows(mdl, points, box_cells((-radius,) * d, (radius,) * d))
    balls = [groups.ball(spec, st.tower.n) for st in mdl.stages]
    values = {0: np.zeros((win.n_points,) + win.shape)}
    for k in range(1, n + 1):
        values[k] = win.step(k - 1, values[k - 1].copy())  # step updates its argument in place
    assert np.array_equal(win.values(), values[n].reshape(win.n_points, -1))
    for p, x in enumerate(handles(points)):
        ev = ModelEvaluator(mdl, x)
        at = [groups.multiply(spec, g, x.offset) for g in cells]
        for k in range(1, n + 1):
            assert values[k][p].ravel().tolist() == [ev.f_value(u, k) for u in at]
        for j in range(n):
            located = [None if gi < 0 else balls[j][gi] for gi in win.locate(j)[p].ravel()]
            assert located == [ev.locate(j, u) for u in at]
            assert win.routing(j)[p].ravel().tolist() == [ev.in_routing_set(j, u) for u in at]
        for i in range(1, n + 1):
            for m in range(i, n + 1):
                assert bool(win.in_hit_event(i, m)[p]) == ev.in_hit_event(i, m, x.offset)


def _oracle_draws(mdl: model.ModelFunction, probe: dynamics.DynamicalSystem, count: int) -> list:
    """Batches of probe draws, of conditional draws from every stage base
    (forced bits), and of translates of both: the i-th draw of the first
    batches moves by the i-th shift of B_2 minus e, cycling."""
    spec = mdl.spec
    batches = [dynamics.sample_points(probe, np.arange(count))]
    for j, stage in enumerate(mdl.stages):
        batches.append(dynamics.conditional_base_sampler(stage.tower, 90 + j, count))
    shifts = [h for h in groups.ball(spec, 2) if h != groups.identity(spec)]
    turn = np.arange(len(batches) * count).reshape(len(batches), count) % len(shifts)
    batches += [
        batch[turn[b] == k].moved(h)
        for b, batch in enumerate(batches)
        for k, h in enumerate(shifts)
        if (turn[b] == k).any()
    ]
    return batches


def _oracle_orbit(mdl, x, a, ball, n_steps, n_trunc) -> tuple[list, int]:
    """The hit series and the indeterminate count of ``orbit_frequency``."""
    center = WeightedVector(mdl.w, ball.center_dict())
    ev = ModelEvaluator(mdl, x)
    series = []
    indeterminate = 0
    current = x
    for _ in range(n_steps):
        vec, tail = oracle_phi(ev, current, n_trunc)
        dist = norm(vec - center)
        series.append(1.0 if dist + tail < ball.radius else 0.0)
        indeterminate += dist + tail >= ball.radius and dist <= ball.radius
        current = current.moved(a)
    return series, indeterminate


def _check_against_oracle(mdl, draws: int, radius: int, orbit_steps: int, steps=()):
    """Window events on every kind of draw, orbit vectors at two truncations,
    and an orbit walk along the last generator and along each further step
    of ``steps``, against the dict oracle."""
    probe = dynamics.probe_system(mdl.system, "oracle")
    batches = _oracle_draws(mdl, probe, draws)
    for points in batches:
        _assert_window_matches_oracle(mdl, points, radius)
        for n_trunc in (2, radius):
            for (vec, tail), x in zip(dict_vectors(model.phi(mdl, points, n_trunc), mdl.w), handles(points)):
                want, want_tail = oracle_phi(ModelEvaluator(mdl, x), x, n_trunc)
                assert vec.coeffs == want.coeffs and tail == want_tail
    ball = model.basis_balls(1, mdl.spec)
    x = batches[0][[0]]
    for a in groups.generators(mdl.spec)[-1:] + list(steps):
        rep = model.orbit_frequency(mdl, x, a, ball, orbit_steps, radius)
        series, indeterminate = _oracle_orbit(mdl, x, a, ball, orbit_steps, radius)
        assert (rep["series"], rep["indeterminate"]) == (series, indeterminate)


def test_window_matches_dict_oracle_built_z(built_model):
    _check_against_oracle(built_model[0], draws=6, radius=16, orbit_steps=120, steps=(1, 3, -2))


def test_window_matches_dict_oracle_built_lattice(lattice_built):
    _check_against_oracle(lattice_built, draws=3, radius=5, orbit_steps=30, steps=((0, 1), (2, -1)))


@pytest.mark.parametrize("kind, d", [("integers", 1), ("lattice", 2), ("lattice", 3)])
def test_window_matches_dict_oracle_loose(kind, d):
    spec = groups.GroupSpec(kind, d)
    w = measures.build_weight(spec, WeightConfig(q=0.5, n_max=8))
    mdl = _loose_model(dynamics.bernoulli_system(spec, seed=3), w)
    # Z^3 at a smaller radius and fewer draws, to keep the dict oracle fast
    draws, radius = (2, 2) if d == 3 else (6, 4)
    _check_against_oracle(mdl, draws=draws, radius=radius, orbit_steps=40)


def test_window_chunks_match_one_window(built_model, z_bernoulli, monkeypatch):
    mdl = built_model[0]
    points = dynamics.sample_points(z_bernoulli, np.arange(25))
    ball, whole, tail = model.phi(mdl, points, 16)
    # a budget of a few points per chunk, and one step per orbit window
    monkeypatch.setattr(model, "WINDOW_CELL_BUDGET", 300)
    chunked = model.phi(mdl, points, 16)
    assert chunked[0] == ball and chunked[2] == tail
    assert np.array_equal(chunked[1], whole)
    ball = model.basis_balls(1, z_bernoulli.group)
    rep = model.orbit_frequency(mdl, points[[0]], 1, ball, 40, 16)
    assert rep["series"] == _oracle_orbit(mdl, points[[0]], 1, ball, 40, 16)[0]


@pytest.mark.parametrize("a", [3, -2])
def test_orbit_stretches_split_under_budget(built_model, z_bernoulli, monkeypatch, a):
    # a budget of a few steps per window: the stretch loop splits the walk
    # into several windows, and the series still equals the oracle's
    mdl = built_model[0]
    x = point(z_bernoulli, 4)
    lo, hi = model.OrbitWindow.bit_box(mdl.stages, (np.array([-16]), np.array([16])))
    budget = int(hi[0] - lo[0]) + 1 + 30
    monkeypatch.setattr(model, "WINDOW_CELL_BUDGET", budget)
    windows = []
    orbit_windows = model.orbit_windows

    def counted(*args):
        windows.append(args[2:])
        return orbit_windows(*args)

    monkeypatch.setattr(model, "orbit_windows", counted)
    ball = model.basis_balls(1, z_bernoulli.group)
    rep = model.orbit_frequency(mdl, x, a, ball, 40, 16)
    assert 1 < len(windows) < 40
    assert (rep["series"], rep["indeterminate"]) == _oracle_orbit(mdl, x, a, ball, 40, 16)
    # the stretches halve as the folded box of the two end steps' cells did
    offsets = mdl.w.ball(16)[1]
    stretch = 40
    while stretch > 1:
        lo, hi = _folded_bit_box(mdl.stages, np.concatenate([offsets, offsets + (stretch - 1) * a]))
        if int(hi[0] - lo[0]) + 1 <= budget:
            break
        stretch = (stretch + 1) // 2
    assert [len(cells) for (cells,) in windows] == [len(offsets) * min(stretch, 40 - t) for t in range(0, 40, stretch)]


def test_window_over_budget_raises_before_reading(built_model, z_bernoulli, monkeypatch):
    # a budget of exactly one point's bit box still evaluates; one cell less
    # raises CapacityError naming the box and the budget, before any read
    mdl = built_model[0]
    points = dynamics.sample_points(z_bernoulli, np.arange(3))
    whole = model.phi(mdl, points, 16)[1]
    lo, hi = model.OrbitWindow.bit_box(mdl.stages, (np.array([-16]), np.array([16])))
    cells = int(hi[0] - lo[0]) + 1
    monkeypatch.setattr(model, "WINDOW_CELL_BUDGET", cells)
    assert np.array_equal(model.phi(mdl, points, 16)[1], whole)
    monkeypatch.setattr(model, "WINDOW_CELL_BUDGET", cells - 1)

    def no_read(points, cells):
        raise AssertionError("bits read before the capacity check")

    monkeypatch.setattr(dynamics, "read_cells", no_read)
    message = f"the bit box {tuple(lo.tolist())}..{tuple(hi.tolist())} of one point holds {cells} cells, over the window budget of {cells - 1}"
    with pytest.raises(CapacityError, match=re.escape(message)):
        model.phi(mdl, points, 16)
    with pytest.raises(CapacityError):
        model.orbit_frequency(mdl, points[[0]], 1, model.basis_balls(1, z_bernoulli.group), 40, 16)


def test_window_split_map_miss_raises(built_model, z_bernoulli):
    mdl = model_from_dict(json.loads(json.dumps(built_model[0].to_dict())), built_model[0].w)
    points = dynamics.sample_points(z_bernoulli, np.arange(20))
    # drop the last split's parent for the value the first point carries
    # into it: the stage's array form is built once, so a stage is made anew
    before = model.point_values(mdl, points)[0][-2][0]
    last = mdl.stages[-1]
    parents = tuple(u for u in last.split.parents if u != before)
    mdl.stages[-1] = model.ModelStage(last.tower, last.xi, last.n0, last.split._replace(parents=parents))
    with pytest.raises(KeyError):
        model.point_values(mdl, points)
    with pytest.raises(KeyError):
        ModelEvaluator(mdl, points[[0]]).f_value(0)


def test_split_collision_detected(z_bernoulli, z_weights):
    cfg = ExperimentConfig(stages=1, seed=3, samples=SampleConfig(check_samples=50, base_samples=30))
    mdl = model.build_model(z_bernoulli, z_weights, cfg)
    # a second stage, whose offset is beta_1 / 8; two values exactly twice
    # that apart collide
    mdl.stages.append(mdl.stages[0])
    s = mdl.history[0].beta / 8.0
    mdl.range_values = lambda: (0.0, 2.0 * s)
    with pytest.raises(StageError, match=re.escape(f"value split collides at offset {s}: values {[0.0, 2.0 * s]}")):
        model.split_values(mdl)


def test_feldman_identity_and_norm():
    rep = feldman.doubling_shift_baseline(steps=30, n_points=200, seed=1)
    assert rep["pass"]
    assert rep["max_conjugacy_error"] < 1e-12
    assert rep["tail_bound"] == 2.0**-30


def _doubling_shift_loop(steps: int, n_points: int, seed: int) -> dict:
    """``doubling_shift_baseline`` one point and one coordinate at a time,
    with ``math`` and ``sum``: the oracle of the array version."""
    zs = np.random.default_rng(seed).random(n_points)
    alpha = SQRT2_MINUS_1

    def phi0(z: float) -> tuple:
        return (math.cos(2.0 * math.pi * z), math.sin(2.0 * math.pi * z))

    def embed(z: float) -> list:
        return [
            tuple(c / 2.0**k for c in phi0((z + k * alpha) % 1.0)) for k in range(1, steps + 1)
        ]

    worst = worst_norm = 0.0
    expected_norm2 = (1.0 - 4.0**-steps) / 3.0
    for z in zs:
        u = embed(float(z))
        fu = embed((float(z) + alpha) % 1.0)
        for k in range(steps - 1):
            for c in range(2):
                worst = max(worst, abs(2.0 * u[k + 1][c] - fu[k][c]))
        norm2 = sum(c * c for blk in u for c in blk)
        worst_norm = max(worst_norm, abs(norm2 - expected_norm2))
    return {
        "steps": steps,
        "points": n_points,
        "alpha": alpha,
        "max_conjugacy_error": worst,
        "max_norm_identity_error": worst_norm,
        "tail_bound": 2.0**-steps,
        "pass": bool(worst < 1e-12 and worst_norm < 1e-12),
    }


@pytest.mark.parametrize("steps", [1, 2, 7, 30])
@pytest.mark.parametrize("seed", [0, 1, 9, 20240, 20241, 20242])
def test_feldman_arrays_equal_the_loop(steps, seed):
    assert feldman.doubling_shift_baseline(steps, 300, seed) == _doubling_shift_loop(steps, 300, seed)


def test_feldman_no_points():
    assert feldman.doubling_shift_baseline(5, 0, 3) == _doubling_shift_loop(5, 0, 3)


def _dense_base(win: model.OrbitWindow, j: int) -> np.ndarray:
    """The stage-(j+1) base of ``win``: every marker cell ANDed over the
    whole base box, the oracle of the survivor sieve."""
    st = win.stages[j]
    lo, hi = win.lo + st.ball.min(axis=0), win.hi + st.ball.max(axis=0)
    shape = model._shape(lo, hi)
    base = np.ones((win.n_points,) + shape, dtype=bool)
    for p, b in zip(*st.tower.marker):
        base &= win.bits.take(lo + p, shape) == b
    return base


def _backwards_locate(win: model.OrbitWindow, j: int) -> np.ndarray:
    """The oracle of ``OrbitWindow.locate``: per element g of the locate
    ball, walked backwards, write its index wherever T_{g^-1} T_u x lies in
    the base, so the first g in ball order wins."""
    ball = win.stages[j].ball
    first = np.full((win.n_points,) + win.shape, -1, dtype=np.int64)
    for gi in range(len(ball) - 1, -1, -1):
        hit = win.base(j).take(win.lo - ball[gi], win.shape)
        np.copyto(first, gi, where=hit)
    return first


@pytest.mark.parametrize("d, length", [(1, 11), (1, 40), (2, 3), (3, 2)])
def test_base_sieve_equals_dense_and(d, length):
    spec = groups.GroupSpec("integers") if d == 1 else groups.GroupSpec("lattice", d)
    system = dynamics.bernoulli_system(spec, seed=5)
    pattern = dynamics._marker_pattern(spec, length)
    assert len(pattern.bits) > dynamics.DENSE_CELLS
    tower = dynamics.TowerSpec(system=system, n=1, eta=0.5, pattern=pattern)
    mdl = model.ModelFunction(system=system, stages=[], w=measures.build_weight(spec, WeightConfig(0.5, 2)))
    xi = {g: 0.5 for g in groups.ball(spec, 1)}
    mdl.stages.append(model.ModelStage(tower, xi, 1))
    fresh = dynamics.sample_points(system, np.arange(40))
    forced = dynamics.conditional_base_sampler(tower, 3, 6)
    a = groups.generators(spec)[0]
    radius = {1: 40, 2: 6, 3: 3}[d]
    box = ((-radius,) * d, (radius,) * d)
    # the forced markers and their translates survive every cell; two fresh
    # points on the origin's box meet none, so the sieve empties early
    for points, (lo, hi), survivors in (
        (fresh, box, None),
        (forced, box, True),
        (forced.moved(a), box, True),
        (fresh[:2], ((0,) * d, (0,) * d), False),
    ):
        (win,) = model.orbit_windows(mdl, points, box_cells(lo, hi))
        base = win.base(0).array
        assert base.dtype == bool and np.array_equal(base, _dense_base(win, 0))
        assert survivors is None or base.any() == survivors
        assert np.array_equal(win.locate(0), _backwards_locate(win, 0))


def test_locate_takes_the_first_of_meeting_hits():
    # overlapping markers: several ball elements land on one cell, and
    # locate keeps the first in ball order, as the backwards walk does
    spec = groups.GroupSpec("integers")
    mdl = _loose_model(dynamics.bernoulli_system(spec, seed=3), measures.build_weight(spec, WeightConfig(0.5, 8)))
    (win,) = model.orbit_windows(mdl, dynamics.sample_points(mdl.system, np.arange(20)), box_cells((-6,), (6,)))
    meeting = sum(
        win.base(0).take(win.lo - g, win.shape).astype(int)
        for g in win.stages[0].ball
    )
    assert (meeting > 1).any()
    for j in range(len(mdl.stages)):
        assert np.array_equal(win.locate(j), _backwards_locate(win, j))
