import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convolution as oracle
from vectors import partial_weight, weight
from walkrep import groups, measures
from walkrep.config import WeightConfig
from walkrep.errors import CapacityError, DegenerateRestrictionError, DomainError


def test_step_distribution_z(z_spec):
    walk = measures.lazy_walk(z_spec, 1)
    assert walk.counts[1].tolist() == [1, 1, 1]
    assert walk.masses(1, walk.cells([-1, 0, 1])).tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert walk.masses(1, walk.cells([2, -2])).tolist() == [0.0, 0.0]


def test_step_distribution_f2(f2_spec):
    walk = measures.lazy_walk(f2_spec, 1)
    ball = groups.ball(f2_spec, 1)
    assert len(ball) == 5
    assert walk.masses(1, walk.cells(ball)).tolist() == [0.2] * 5
    assert oracle.step_distribution(f2_spec).masses == dict.fromkeys(ball, 0.2)


def test_convolution_examples_z(z_spec):
    walk = measures.lazy_walk(z_spec, 3)
    assert walk.masses(2, walk.cells([0, 2])).tolist() == [1 / 3, 1 / 9]  # 3 of 9 pairs sum to 0; only (1, 1)
    assert walk.masses(3, walk.cells([0])).tolist() == [7 / 27]  # 7 of 27 triples
    rho = oracle.step_distribution(z_spec)
    rho2 = oracle.convolve(z_spec, rho, rho)
    assert abs(rho2.mass(0) - 1 / 3) < 1e-15
    assert abs(oracle.convolution_powers(z_spec, rho, 3)[-1].mass(0) - 7 / 27) < 1e-15


def test_convolution_examples_f2(f2_spec):
    walk = measures.lazy_walk(f2_spec, 2)
    assert walk.masses(2, walk.cells([()])).tolist() == [1 / 5]  # 5 of 25 pairs cancel
    rho = oracle.step_distribution(f2_spec)
    rho2 = oracle.convolve(f2_spec, rho, rho)
    assert abs(rho2.mass(()) - 1 / 5) < 1e-15
    assert set(rho2.masses) <= set(groups.ball(f2_spec, 2))


def test_convolution_power_support_and_mass():
    # rho^{*n} lives on B_n, has mass 1 and is symmetric, in exact counts
    for kind, d in [("free", 2), ("heisenberg", 2), ("lattice", 2)]:
        spec = groups.GroupSpec(kind, d)
        walk = measures.lazy_walk(spec, 4)
        outside = groups.ball(spec, 5)
        for n in range(1, 5):
            ball = groups.ball(spec, n)
            counts = walk._gather(walk.counts[n], walk.cells(ball)).tolist()
            assert sum(counts) == walk.steps**n
            assert all(c > 0 for c in counts)
            inverses = [groups.inverse(spec, g) for g in ball]
            assert walk._gather(walk.counts[n], walk.cells(inverses)).tolist() == counts
            inside = set(ball)
            beyond = [g for g in outside if g not in inside]
            assert not walk.masses(n, walk.cells(beyond)).any()


@pytest.mark.parametrize(
    "kind,d,depth,dtype",
    [("integers", 1, 33, np.int64),  # 3^33 < 2^53
     ("integers", 1, 34, object),  # 3^34 > 2^53
     ("lattice", 3, 8, np.int64),
     ("heisenberg", 2, 8, np.int64),
     ("free", 2, 8, np.int64)],
    ids=["Z-33", "Z-34", "Z3-8", "H-8", "F2-8"],
)
def test_walk_counts_equal_python_int_counts(kind, d, depth, dtype, monkeypatch):
    # int64 counts where (2d+1)^depth <= 2^53, against the same walk on
    # Python ints; at Z-33 the squared counts pass 2^63
    spec = groups.GroupSpec(kind, d)
    walk = measures.lazy_walk(spec, depth)
    allocate = measures._allocate
    monkeypatch.setattr(measures, "_allocate", lambda shape, _: allocate(shape, object))
    exact = measures.lazy_walk(spec, depth)
    ball = groups.ball(spec, depth)
    for n in range(depth + 1):
        assert walk.counts[n].dtype == dtype
        assert walk.counts[n].tolist() == exact.counts[n].tolist()
        assert walk.rho(n).tolist() == exact.rho(n).tolist()
        assert walk.masses(n, walk.cells(ball)).tolist() == exact.masses(n, exact.cells(ball)).tolist()
        assert walk.return_probability(n) == exact.return_probability(n)


def _gather_kernel(monkeypatch):
    monkeypatch.setattr(measures, "_moves", oracle.gather_moves)
    monkeypatch.setattr(measures, "_step", oracle.gather_step)


@pytest.mark.parametrize(
    "kind,d,depth",
    [("integers", 1, 33), ("integers", 1, 34), ("lattice", 2, 6), ("lattice", 3, 4), ("heisenberg", 2, 6)],
    ids=["Z-33", "Z-34", "Z2-6", "Z3-4", "H-6"],
)
def test_slice_kernel_walk_counts_equal_gather_oracle(kind, d, depth, monkeypatch):
    # int64 counts at Z-33 and Python ints at Z-34, on both sides of the
    # boundary, and the Heisenberg y-steps as one shear per x-slice
    spec = groups.GroupSpec(kind, d)
    walk = measures.lazy_walk(spec, depth)
    _gather_kernel(monkeypatch)
    gathered = measures.lazy_walk(spec, depth)
    for n in range(depth + 1):
        assert walk.counts[n].dtype == gathered.counts[n].dtype
        assert walk.counts[n].tolist() == gathered.counts[n].tolist()


def test_slice_kernel_heisenberg_steps_equal_gather_oracle(monkeypatch):
    # steps that move x, y and z at once, on a box whose z-side some of
    # the sheared slices leave
    spec = groups.GroupSpec("heisenberg", 2)
    offset, shape = measures.cell_box(spec, 5)
    steps = [(0, 0, 0), (1, 0, 0), (0, -1, 0), (2, 1, -3), (-1, 2, 1), (-3, -2, 4)]
    power = np.random.default_rng(3).integers(0, 1000, size=shape)
    weights = [1, 2, 1, 3, 5, 7]
    got = measures._step(power, measures._moves(spec, offset, shape, steps), weights)
    want = oracle.gather_step(power, oracle.gather_moves(spec, offset, shape, steps), weights)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_slice_kernel_law_powers_equal_gather_oracle(depth, monkeypatch):
    # asymmetric float laws with an identity atom; the longest step spans
    # the box radius at depth 1
    laws = [
        (groups.GroupSpec("integers"), {0: 0.25, 1: 0.125, -3: 0.375, 2: 0.25}),
        (groups.GroupSpec("lattice", 2), {(0, 0): 0.1, (1, 0): 0.3, (0, -2): 0.2, (-1, 1): 0.4}),
    ]
    slices = [measures._law_powers(spec, law, depth) for spec, law in laws]
    _gather_kernel(monkeypatch)
    for (spec, law), (offset, powers) in zip(laws, slices):
        want_offset, want = measures._law_powers(spec, law, depth)
        assert offset == want_offset
        assert [p.tobytes() for p in powers] == [p.tobytes() for p in want]


def test_sorted_ball_is_the_sort_key_order():
    for kind, d in [("integers", 1), ("lattice", 2), ("lattice", 3), ("heisenberg", 2), ("free", 2)]:
        spec = groups.GroupSpec(kind, d)
        w = measures.build_weight(spec, WeightConfig(0.5, 5))
        for radius in (0, 1, 5):
            elements, cells = w.sorted_ball(radius)
            assert elements == sorted(groups.ball(spec, radius), key=lambda g: groups.sort_key(spec, g))
            assert cells.tolist() == w.cells(elements).tolist()
            assert w.ball(radius)[0] == groups.ball(spec, radius)
            if kind != "free":
                assert w.mass_in_ball(radius) == sum(w.read(w.cells(elements)).tolist())
    z = measures.build_weight(groups.GroupSpec("integers"), WeightConfig(0.5, 2))
    assert z.sorted_ball(2)[0] == [0, -1, 1, -2, 2]


def test_convolution_associative_random():
    spec = groups.GroupSpec("free", 2)
    rng = np.random.default_rng(5)
    pool = groups.ball(spec, 2)

    def random_measure():
        k = int(rng.integers(1, 6))
        idx = rng.choice(len(pool), size=k, replace=False)
        raw = {pool[int(i)]: float(rng.random()) for i in idx}
        total = sum(raw.values())
        return oracle.SparseMeasure(spec, {g: v / total for g, v in raw.items()})

    for _ in range(25):
        a, b, c = random_measure(), random_measure(), random_measure()
        left = oracle.convolve(spec, oracle.convolve(spec, a, b), c)
        right = oracle.convolve(spec, a, oracle.convolve(spec, b, c))
        atoms = set(left.masses) | set(right.masses)
        assert all(abs(left.mass(g) - right.mass(g)) < 1e-10 for g in atoms)


def test_weight_params(z_spec):
    # the config record is the weight's parameters; a record built outside
    # ``config.validate`` is checked where a table is built from it
    p = WeightConfig(q=0.5, n_max=2)
    assert p.p(1) == 0.5 and p.p(2) == 0.25
    assert p.ratio_bound == 2.0
    assert p.tail == 0.25
    assert measures.build_weight(z_spec, p).params is p
    for bad in (WeightConfig(q=1.0, n_max=2), WeightConfig(q=0.0, n_max=2), WeightConfig(q=0.5, n_max=0)):
        with pytest.raises(DomainError):
            measures.build_weight(z_spec, bad)


def test_build_weight_hand_example(z_spec):
    w = measures.build_weight(z_spec, WeightConfig(q=0.5, n_max=2))
    assert abs(weight(w, 0) - 0.25) < 1e-15
    assert w.tail_bound == 0.25
    assert abs(w.stored_mass() - 0.75) < 1e-12
    assert all(weight(w, g) == weight(w, -g) for g in w.support())
    assert all(weight(w, g) > 0 for g in groups.ball(z_spec, 2))


def test_weight_mass_identity(z_weights):
    # total stored mass is 1 - q^n_max exactly
    assert abs(z_weights.stored_mass() + z_weights.tail_bound - 1.0) < 1e-9


def test_monotone_truncation(z_spec):
    w1 = measures.build_weight(z_spec, WeightConfig(q=0.5, n_max=6))
    w2 = measures.build_weight(z_spec, WeightConfig(q=0.5, n_max=9))
    for g in w1.support():
        assert weight(w2, g) >= weight(w1, g) - 1e-15
        assert weight(w2, g) - weight(w1, g) <= w1.tail_bound + 1e-15


def test_partial_weight_tables(z_weights):
    w = z_weights
    full = weight(w, 3)
    partial = partial_weight(w, 3, 10)
    assert 0 < partial <= full
    assert partial_weight(w, 3, w.params.n_max) == full
    with pytest.raises(DomainError):
        partial_weight(w, 0, 99)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_weight_ratio_integers(z_spec, z_weights, b):
    rep = measures.weight_ratio(z_weights, b)
    assert rep["bound"] == 6.0**b
    assert rep["pass"]
    assert rep["observed_max"] <= rep["bound"] * (1 + 1e-12)
    assert rep["observed_min"] >= 1.0 / rep["bound"] / (1 + 1e-12)


def test_weight_ratio_identity(z_spec, z_weights):
    rep = measures.weight_ratio(z_weights, 0)
    assert rep["bound"] == 1.0
    assert abs(rep["observed_max"] - 1.0) < 1e-12


def test_weight_ratio_f2(f2_spec, f2_weights):
    rep = measures.weight_ratio(f2_weights, (1, 2))  # the word ab
    assert rep["bound"] == 100.0
    assert rep["pass"]


_RADIAL_CASES = dict(
    d=st.integers(min_value=1, max_value=2),
    q=st.floats(min_value=0.05, max_value=0.95),
    n_max=st.integers(min_value=1, max_value=8),
)

_BOX_KINDS = [("integers", 1), ("lattice", 1), ("lattice", 2), ("lattice", 3), ("heisenberg", 2)]


@functools.cache
def _oracle_powers(kind, d, n_max):
    spec = groups.GroupSpec(kind, d)
    return oracle.convolution_powers(spec, oracle.step_distribution(spec), n_max)


def _check_against_dict_convolution(kind, d, q, n_max):
    """Every atom at every depth against the dict convolution, within the
    bound stated in build_weight; exact symmetry, support and ``table``.
    Returns the table, the bound and B_n_max."""
    spec = groups.GroupSpec(kind, d)
    params = WeightConfig(q, n_max)
    w = measures.build_weight(spec, params)
    powers = _oracle_powers(kind, d, n_max)
    bound = (2 * d + 4) * (n_max + 1) * 2.0**-53  # stated in build_weight
    ball = groups.ball(spec, n_max)
    cells = w.cells(ball)
    ref: dict = {}
    for depth in range(n_max + 1):
        if depth:  # oracle.mixture(params, powers[:depth]), one term at a time
            rho_n = powers[depth - 1]
            for g in rho_n.support():
                ref[g] = ref.get(g, 0.0) + params.p(depth) * rho_n.masses[g]
        for g, got in zip(ball, w.read(cells, depth).tolist()):
            want = ref.get(g, 0.0)
            assert abs(got - want) <= bound * want
    inverses = [groups.inverse(spec, g) for g in ball]
    assert w.read(w.cells(inverses)).tolist() == w.read(cells).tolist()  # exact symmetry
    support = sorted(ball, key=lambda g: groups.sort_key(spec, g))
    assert w.support() == support
    assert w.table == {g: weight(w, g) for g in support}
    assert all(type(v) is float for v in w.table.values())
    return w, bound, ball


@settings(max_examples=40, deadline=None)
@given(**_RADIAL_CASES)
def test_radial_weight_matches_dict_convolution(d, q, n_max):
    w, bound, _ = _check_against_dict_convolution("free", d, q, n_max)
    # sum_{n<=n_max} p_n; stored_mass sums sphere sizes times the radial weight
    assert abs(w.stored_mass() - (1.0 - w.params.tail)) <= bound


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_BOX_KINDS),
    q=st.floats(min_value=0.05, max_value=0.95),
    n_max=st.integers(min_value=1, max_value=8),
)
def test_weight_table_matches_dict_convolution(case, q, n_max):
    w, bound, ball = _check_against_dict_convolution(*case, q, n_max)
    # sum_{n<=n_max} p_n, plus the rounding of stored_mass's atom-by-atom sum
    assert abs(w.stored_mass() - (1.0 - w.params.tail)) <= bound + len(ball) * 2.0**-53
    # the atoms of B_n_max off the support add exact zeros to the table's sum
    assert w.stored_mass() == sum(w.table.values())


def _element_scan(spec, w, b):
    """weight_ratio's scan over every element of B(n_max - |b|), on the
    dict weight ``w``."""
    depth = w.params.n_max - len(b)
    upper_max, lower_min, evaluated = 0.0, math.inf, 0
    for g in groups.ball(spec, depth):
        gb = groups.multiply(spec, g, b)
        den, full_gb, num_g = w.weight(g), w.weight(gb), w.partial_weight(g, depth)
        if den > 0.0:
            evaluated += 1
            upper_max = max(upper_max, w.partial_weight(gb, depth) / den)
        if full_gb > 0.0 and num_g > 0.0:
            lower_min = min(lower_min, full_gb / num_g)
    return evaluated, upper_max, lower_min


@settings(max_examples=15, deadline=None)
@given(**_RADIAL_CASES)
def test_class_scan_matches_element_scan(d, q, n_max):
    spec = groups.GroupSpec("free", d)
    params = WeightConfig(q, n_max)
    w = measures.build_weight(spec, params)
    reference = oracle.dict_weight(spec, params)
    for b in groups.ball(spec, min(3, n_max - 1)):
        rep = measures.weight_ratio(w, b)
        evaluated, upper_max, lower_min = _element_scan(spec, reference, b)
        assert rep["n_evaluated"] == evaluated
        assert rep["observed_max"] == pytest.approx(upper_max, rel=1e-12, abs=0.0)
        assert rep["observed_min"] == pytest.approx(lower_min, rel=1e-12, abs=0.0)


def test_plain_table_ratio_exceeds_bound_at_edge(z_spec, z_weights):
    # the uncorrected single-table ratio genuinely overshoots near the
    # support edge; the certified two-depth comparison is the sound check
    rep = measures.weight_ratio(z_weights, 1)
    assert rep["plain_table_max"] > rep["bound"]


def test_restrict_renormalize(z_spec, f2_spec, f2_weights):
    emb = groups.subgroup_embed(z_spec, f2_spec, [(1,)])
    rho_g = measures.restrict_renormalize(f2_weights, emb)
    assert abs(sum(rho_g.values()) - 1.0) < 1e-12
    n_max = f2_weights.params.n_max
    assert list(rho_g) == list(range(-n_max, n_max + 1))
    assert all(rho_g[n] > 0 for n in rho_g)
    assert all(rho_g[n] == rho_g[-n] for n in rho_g)


@pytest.mark.parametrize("n_max", [2, 4, 6])
def test_restricted_law_weight_matches_dict_convolution(z_spec, f2_spec, f2_weights, n_max):
    # the restricted law's float stencil against the dict convolution
    emb = groups.subgroup_embed(z_spec, f2_spec, [(1,)])
    rho_g = measures.restrict_renormalize(f2_weights, emb)
    params = WeightConfig(q=0.5, n_max=n_max)
    w = measures.build_weight(z_spec, params, rho=rho_g)
    law = oracle.SparseMeasure(z_spec, rho_g, symmetric=True)
    reference = oracle.dict_weight(z_spec, params, rho=law)
    assert w.support() == reference.support()
    for depth in range(n_max + 1):
        for g in reference.support():
            want = reference.partial_weight(g, depth)
            assert abs(partial_weight(w, g, depth) - want) <= 1e-13 * want
            assert partial_weight(w, g, depth) == partial_weight(w, -g, depth)


def test_custom_law_on_free_group_rejected(f2_spec):
    with pytest.raises(DomainError, match="custom step law"):
        measures.build_weight(f2_spec, WeightConfig(0.5, 2), rho={(): 1.0})


def test_oversized_box_raises_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(measures.np, "zeros", no_allocation)
    spec = groups.GroupSpec("heisenberg", 2)
    assert math.prod(measures.cell_box(spec, 40)[1]) > measures.DEFAULT_SUPPORT_CAP
    with pytest.raises(CapacityError, match="exceeds cap"):
        measures.build_weight(spec, WeightConfig(0.5, 40))
    with pytest.raises(CapacityError, match="exceeds cap"):
        measures.build_weight(groups.GroupSpec("lattice", 3), WeightConfig(0.5, 60))


def test_restricted_ratio_certificate(z_spec, f2_spec, f2_weights):
    emb = groups.subgroup_embed(z_spec, f2_spec, [(1,)])
    rep = measures.restricted_ratio_certificate(f2_weights, emb, 1)
    assert rep["bound"] == 10.0  # (2*2+1) * 2 for a single letter
    assert rep["pass"]


def test_degenerate_restriction(z_spec, f2_spec):
    w_small = measures.build_weight(f2_spec, WeightConfig(q=0.5, n_max=2))
    # images a^n leave the stored support except near the identity, but the
    # window always contains the identity, so force degeneracy differently:
    emb = groups.subgroup_embed(z_spec, f2_spec, [(1,)])
    empty = measures.WeightTable(
        w_small.spec, w_small.offset, w_small.params,
        tuple(np.zeros_like(row) for row in w_small.partials),
    )
    with pytest.raises(DegenerateRestrictionError):
        measures.restrict_renormalize(empty, emb)


def _simulate_walk_z(rng, n, samples):
    steps = rng.integers(-1, 2, size=(samples, n))
    return steps.sum(axis=1)


def test_monte_carlo_cross_check_z(z_spec):
    rng = np.random.default_rng(99)
    samples = 1_000_000
    walk = measures.lazy_walk(z_spec, 6)
    for n in (2, 4, 6):
        endpoints = _simulate_walk_z(rng, n, samples)
        values, counts = np.unique(endpoints, return_counts=True)
        freq = dict(zip(values.tolist(), (counts / samples).tolist()))
        support = groups.ball(z_spec, n)
        for g, p in zip(support, walk.masses(n, walk.cells(support)).tolist()):
            se = math.sqrt(p * (1 - p) / samples)
            assert abs(freq.get(g, 0.0) - p) <= 4 * se + 1e-9


def _simulate_walk_f2(rng, n, samples):
    # letters 0=e, 1=a, 2=A, 3=b, 4=B; reduce with a vectorized stack
    steps = rng.integers(0, 5, size=(samples, n))
    letter = np.array([0, 1, -1, 2, -2])
    words = np.zeros((samples, n), dtype=np.int8)
    length = np.zeros(samples, dtype=np.int64)
    for j in range(n):
        l = letter[steps[:, j]]
        nonzero = l != 0
        top = words[np.arange(samples), np.maximum(length - 1, 0)]
        cancel = nonzero & (length > 0) & (top == -l)
        push = nonzero & ~cancel
        length[cancel] -= 1
        words[np.arange(samples), length * push] = np.where(push, l, words[np.arange(samples), length * push])
        length[push] += 1
    return words, length


def test_monte_carlo_cross_check_f2(f2_spec):
    # fixed representative seed: the 4-sigma-per-atom criterion over ~1500
    # atoms leaves a several-percent chance of a single borderline excursion
    rng = np.random.default_rng(8)
    samples = 1_000_000
    n = 6
    walk = measures.lazy_walk(f2_spec, n)
    words, length = _simulate_walk_f2(rng, n, samples)
    # encode reduced words to integers: base-5 digits plus a length prefix
    enc = length.astype(np.int64) * 5**n
    for j in range(n):
        digit = np.where(j < length, words[:, j] + 2, 0)
        enc = enc + digit.astype(np.int64) * 5**j
    values, counts = np.unique(enc, return_counts=True)
    freq = dict(zip(values.tolist(), (counts / samples).tolist()))

    def encode(word):
        e = len(word) * 5**n
        for j, l in enumerate(word):
            e += (l + 2) * 5**j
        return e

    checked = 0
    support = groups.ball(f2_spec, n)
    for g, p in zip(support, walk.masses(n, walk.cells(support)).tolist()):
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(freq.get(encode(g), 0.0) - p) <= 4 * se + 1e-9
        checked += p > 0.0
    assert checked == len(support)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6))
def test_symmetry_propagates(g, n):
    walk = measures.lazy_walk(groups.GroupSpec("integers"), n)
    assert walk.masses(n, walk.cells([g])).tolist() == walk.masses(n, walk.cells([-g])).tolist()
