import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handles import contains, handles, located_by_translates, point, position, read
from walkrep import dynamics, groups, stats, trace
from walkrep.errors import EncodingError, TowerConstructionError


def wilson_interval(k: int, n: int, z: float = stats.Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def test_point_determinism(z_bernoulli):
    x1 = point(z_bernoulli, 0)
    x2 = point(z_bernoulli, 0)
    assert [read(x1, g) for g in range(-50, 50)] == [read(x2, g) for g in range(-50, 50)]


def test_exact_equivariance(z_bernoulli):
    x = point(z_bernoulli, 3)
    for h in (-2, 1, 5):
        xh = x.moved(h)
        assert all(read(xh, g) == read(x, g + h) for g in range(-10, 10))


def test_action_composition(z_bernoulli):
    x = point(z_bernoulli, 1)
    assert x.moved(3).moved(2).offset == x.moved(5).offset


def test_draws_agree_at_half_rate(z_bernoulli):
    n = 2000
    rows = dynamics.read_cells(dynamics.sample_points(z_bernoulli, [0, 1]), list(range(-n // 2, n // 2)))
    agree = int((rows[0] == rows[1]).sum())
    lo, hi = wilson_interval(agree, n)
    assert lo < 0.5 < hi or abs(agree / n - 0.5) < 0.05


def test_rotation_points_uniform_and_equivariant(z_spec):
    sys_r = dynamics.rotation_system(z_spec, seed=5)
    from scipy import stats as st

    draws, shift = dynamics.sample_points(sys_r, np.arange(10_000)).torus(0)
    assert shift == 0
    assert st.kstest(draws, "uniform").pvalue > 0.01
    alpha = sys_r.alpha[0]
    x = point(sys_r, 0)
    assert abs(position(x.moved(3))[0] - ((position(x)[0] + 3 * alpha) % 1.0)) < 1e-12


def test_cylinder_measure_and_eval(z_bernoulli, z_spec):
    cyl = dynamics.CylinderSet.from_dict(z_spec, {0: 1})
    assert cyl.measure() == 0.5
    points = dynamics.sample_points(z_bernoulli, np.arange(4000))
    hits = int(dynamics.read_cells(points, [0]).sum())
    lo, hi = wilson_interval(hits, 4000)
    assert lo <= 0.5 <= hi
    assert dynamics.CylinderSet.from_dict(z_spec, {}).measure() == 1.0


def test_family_enumeration(z_spec):
    first = list(itertools.islice(dynamics.cylinders(z_spec), 5))
    assert first[0].bits == ()  # the full space
    assert first[1].bits == ((0, 0),)
    assert first[2].bits == ((0, 1),)
    # the ruler makes every cylinder recur infinitely often
    rulers = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]
    assert [dynamics.routing_cylinder(z_spec, i) for i in range(1, 17)] == [first[r] for r in rulers]
    x = point(dynamics.bernoulli_system(z_spec, 1), 0)
    # indices with the same ruler value evaluate identically
    same = [contains(dynamics.routing_cylinder(z_spec, i), x) for i in (2, 6, 10)]
    assert same[0] == same[1] == same[2]


def test_family_distinct_descriptors(z_spec):
    seen = {c.bits for c in itertools.islice(dynamics.cylinders(z_spec), 40)}
    assert len(seen) == 40


def test_tower_disjointness_and_measure(z_bernoulli):
    tower = dynamics.rokhlin_tower(z_bernoulli, 3, 0.1)
    report = dynamics.tower_check(tower, 20_000, 0)
    assert report["mc"]["collisions"] == 0
    assert tower.mu_bn_upper() < 0.05
    assert report["mc"]["ci_upper"] < 0.05
    assert report["pass"]
    assert tower.mu_pattern == 0.5 ** len(tower.pattern.bits)
    assert report["mu_e_lower"] == report["mu_e_upper"] == tower.mu_pattern
    assert "n_excluded" not in report
    assert tower.to_dict()["mc"] == {"samples": 0, "hits_bn": 0, "ci_upper": 1.0, "collisions": 0}


def tower_locate(tower, x):
    """The first g in B_n (``groups.ball`` order) with T_{g^-1} x in E, or
    None; ``located`` must agree with its compare-all oracle."""
    (hits,) = tower.located(x)
    assert np.array_equal(hits, located_by_translates(tower, x)[0])
    return groups.ball(tower.spec, tower.n)[hits.argmax()] if hits.any() else None


def test_tower_locate_unique(z_bernoulli):
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)
    for x in handles(dynamics.conditional_base_sampler(tower, 1, 20)):
        assert all(read(x, p) == b for p, b in tower.pattern.bits)
        assert tower_locate(tower, x) == 0
        assert tower_locate(tower, x.moved(2)) == 2


def test_tower_infeasible_parameters(z_bernoulli):
    # |B_3| 2^-(L+1) < 5e-81 needs a marker of length L >= 269
    with pytest.raises(TowerConstructionError, match=f"length <= {dynamics.MAX_MARKER} "):
        dynamics.rokhlin_tower(z_bernoulli, 3, 1e-80)


def test_tower_lattice(z_spec):
    z2 = groups.GroupSpec("lattice", 2)
    sys2 = dynamics.bernoulli_system(z2, seed=12)
    tower = dynamics.rokhlin_tower(sys2, 2, 0.1)
    assert dynamics.tower_check(tower, 3000, 0)["mc"]["collisions"] == 0
    assert tower.mu_bn_upper() < 0.05


def _shifted_pattern(spec, pattern, offset):
    return {groups.multiply(spec, p, offset): b for p, b in pattern.items()}


def _patterns_compatible(a, b):
    """The dict oracle of the tower's self-avoidance scan."""
    return all(b.get(p, v) == v for p, v in a.items())


def _old_lattice_marker(spec, length):
    """The lattice marker before self-avoidance: a block of ones and a
    single 0 cell past it along the first axis."""
    pattern = {c: 1 for c in itertools.product(range(length), repeat=spec.d)}
    pattern[(length,) + (0,) * (spec.d - 1)] = 0
    return pattern


@pytest.mark.parametrize("d", [1, 2, 3])
def test_marker_self_avoiding_scan(d):
    # every shift by m in B_2n minus e contradicts the marker of side s
    spec = groups.GroupSpec("integers") if d == 1 else groups.GroupSpec("lattice", d)
    e = groups.identity(spec)
    scanned = compatible = 0
    for n in range(1, 5):
        shifts = [m for m in groups.ball(spec, 2 * n) if m != e]
        for s in range(2 * n, 2 * n + 3):
            pattern = dict(dynamics._marker_pattern(spec, s).bits)
            for m in shifts:
                scanned += 1
                compatible += _patterns_compatible(pattern, _shifted_pattern(spec, pattern, m))
                assert dynamics._compatible_with_shift(spec, pattern, m) is False
    assert scanned > 0 and compatible == 0
    if d > 1:
        old = _old_lattice_marker(spec, 2)
        m = (1,) + (1,) * (d - 1)
        assert _patterns_compatible(old, _shifted_pattern(spec, old, m))
        assert dynamics._compatible_with_shift(spec, old, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shift_scan_matches_shifted_dict(data):
    # random patterns on Z^2, compatible with some shifts and not others
    spec = groups.GroupSpec("lattice", 2)
    cells = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=8, unique=True))
    pattern = {p: data.draw(st.integers(0, 1)) for p in cells}
    for m in groups.ball(spec, 4):
        want = _patterns_compatible(pattern, _shifted_pattern(spec, pattern, m))
        assert dynamics._compatible_with_shift(spec, pattern, m) is want


def test_tower_rejects_overlapping_marker(monkeypatch):
    sys2 = dynamics.bernoulli_system(groups.GroupSpec("lattice", 2), seed=12)
    monkeypatch.setattr(
        dynamics, "_marker_pattern", lambda spec, length: dynamics.CylinderSet.from_dict(spec, _old_lattice_marker(spec, length))
    )
    with pytest.raises(TowerConstructionError, match="compatible with its shift"):
        dynamics.rokhlin_tower(sys2, 1, 0.2)


def _per_draw_hits(tower, samples, seed):
    """The per-draw loop the marker sieve replaces: the marker test at every
    translate T_{g^-1} x of the draw, g in B_n, cell by cell on the draw's
    bits (all draws read in one batch, each at every cell of the window)."""
    spec = tower.spec
    probe = dynamics.probe_system(tower.system, "tower", seed)
    ball = groups.ball(spec, tower.n)
    window = sorted(
        {groups.multiply(spec, p, groups.inverse(spec, g)) for g in ball for p, _ in tower.pattern.bits},
        key=lambda c: groups.sort_key(spec, c),
    )
    points = dynamics.sample_points(probe, np.arange(samples))
    hits = collisions = 0
    for row in dynamics.read_cells(points, window).tolist():
        bits = dict(zip(window, row))
        located = [
            g
            for g in ball
            if all(
                bits[groups.multiply(spec, p, groups.inverse(spec, g))] == b
                for p, b in tower.pattern.bits
            )
        ]
        hits += bool(located)
        collisions += len(located) > 1
    return hits, collisions


def _sieve_hits(tower, samples, seed):
    mc = dynamics.tower_check(tower, samples, seed)["mc"]
    return mc["hits_bn"], mc["collisions"]


def _short_tower(sys):
    # a two-cell marker overlaps its own translates, so they can collide
    spec = sys.group
    a = groups.generators(spec)[0]
    return dynamics.TowerSpec(
        system=sys, n=2, eta=0.5, pattern=dynamics.CylinderSet.from_dict(spec, {groups.identity(spec): 1, a: 1})
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tower_sieve_equals_per_draw_loop(z_bernoulli, seed):
    z2 = dynamics.bernoulli_system(groups.GroupSpec("lattice", 2), seed=12)
    z3 = dynamics.bernoulli_system(groups.GroupSpec("lattice", 3), seed=12)
    # the 11- and 20-cell markers are longer than the dense cells of the
    # sieve, so its survivor branch runs
    towers = [
        (dynamics.rokhlin_tower(z_bernoulli, 3, 0.1), 1500),
        (dynamics.rokhlin_tower(z_bernoulli, 3, 0.01), 3000),
        (dynamics.rokhlin_tower(z2, 1, 0.2), 600),
        (dynamics.rokhlin_tower(z3, 1, 0.2), 300),
    ]
    assert [len(t.pattern.bits) for t, _ in towers] == [8, 11, 8, 20]
    for tower, samples in towers:
        assert _sieve_hits(tower, samples, seed) == _per_draw_hits(tower, samples, seed)
    # a hand-made short marker, whose translates of the base meet
    for sys in (z_bernoulli, z2):
        tower = _short_tower(sys)
        counts = _sieve_hits(tower, 500, seed)
        assert counts == _per_draw_hits(tower, 500, seed)
        assert counts[1] > 0


def test_tower_check_is_the_same_at_any_block_budget(z_bernoulli, monkeypatch):
    # one draw per chunk, the default chunks and every draw in one chunk
    # give the same report and draw the same bits and Philox blocks
    z3 = dynamics.bernoulli_system(groups.GroupSpec("lattice", 3), seed=12)
    towers = [(dynamics.rokhlin_tower(z_bernoulli, 3, 0.1), 3000), (dynamics.rokhlin_tower(z3, 1, 0.2), 300)]
    for tower, samples in towers:
        found = []
        for blocks in (1, dynamics.SIEVE_BLOCKS, 1 << 30):
            monkeypatch.setattr(dynamics, "SIEVE_BLOCKS", blocks)
            before = dict(trace.COUNTERS)
            report = dynamics.tower_check(tower, samples, 5)
            found.append((report, {k: v - before[k] for k, v in trace.COUNTERS.items()}))
        assert found[0] == found[1] == found[2]
        assert found[0][0]["mc"]["samples"] == samples and found[0][1]["philox_blocks"] > 0


@pytest.mark.parametrize("kind, d, n, eta", [
    ("integers", 1, 3, 0.1), ("integers", 1, 3, 0.01), ("lattice", 2, 1, 0.2), ("lattice", 3, 1, 0.2),
])
def test_located_equals_compare_all(kind, d, n, eta):
    # fresh draws, conditional draws (every base hit at g = e) and their
    # translates, on a built marker and on a short one whose translates meet
    sys = dynamics.bernoulli_system(groups.GroupSpec(kind, d), seed=4)
    a = groups.generators(sys.group)[0]
    for tower in (dynamics.rokhlin_tower(sys, n, eta), _short_tower(sys)):
        fresh = dynamics.sample_points(sys, np.arange(300))
        conditional = dynamics.conditional_base_sampler(tower, 2, 40)
        for batch in (fresh, fresh.moved(a), conditional, conditional.moved(a)):
            assert np.array_equal(tower.located(batch), located_by_translates(tower, batch))
        e = groups.ball(sys.group, tower.n).index(groups.identity(sys.group))
        assert tower.located(conditional)[:, e].all()


def _per_point_rows(batch, cells: list) -> list:
    """Each row of ``batch`` read as the one-row batch ``batch[[i]]``, cell
    by cell."""
    return [[read(x, c) for c in cells] for x in handles(batch)]


def test_batched_read_equals_per_cell_read(z_bernoulli):
    positions = list(range(-12, 13))
    fresh = point(z_bernoulli, 7)
    flipped = {p: 1 - read(fresh, p) for p in positions[::2]}
    flip = dynamics.TowerSpec(
        system=z_bernoulli, n=0, eta=0.5, pattern=dynamics.CylinderSet.from_dict(z_bernoulli.group, flipped)
    )
    forced = dynamics.PointBatch(
        fresh.system, fresh.draws, fresh.stream, dynamics.conditional_base_sampler(flip, 0, 1).forced, fresh.offset
    )
    # forced cells overlay the drawn bits and leave the others alone
    got = dynamics.read_cells(forced, positions)[0].tolist()
    assert got[::2] == list(flipped.values())
    assert got[1::2] == [read(fresh, p) for p in positions[1::2]]
    # fresh draws, conditional draws (marker forced), rows picked by a mask,
    # and translates, each row against its one-row batch
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)
    conditional = dynamics.conditional_base_sampler(tower, 4, 6)
    assert all(read(x, p) == b for x in handles(conditional) for p, b in tower.pattern.bits)
    fresh = dynamics.sample_points(z_bernoulli, np.arange(6))
    for batch in (fresh, conditional, conditional[np.arange(6) % 3 != 1], fresh.moved(5), conditional.moved(-3)):
        assert dynamics.read_cells(batch, positions).tolist() == _per_point_rows(batch, positions)
    # shifted points on Z^2 and Z^3, at negative coordinates
    for d in (2, 3):
        spec = groups.GroupSpec("lattice", d)
        sys = dynamics.bernoulli_system(spec, seed=9)
        h = (-300,) + (7,) * (d - 1)
        cells = groups.ball(spec, 2)
        conditional = dynamics.conditional_base_sampler(dynamics.rokhlin_tower(sys, 1, 0.2), 4, 5)
        for batch in (dynamics.sample_points(sys, np.arange(5)).moved(h), conditional.moved(h)):
            assert dynamics.read_cells(batch, cells).tolist() == _per_point_rows(batch, cells)


def _numpy_philox_block(key, counter):
    """One block from numpy's Philox, which steps its 256-bit counter once
    before drawing the first block: so start it one below ``counter``."""
    whole = sum(c << (64 * i) for i, c in enumerate(counter)) - 1
    below = [(whole >> (64 * i)) & (2**64 - 1) for i in range(4)]
    gen = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=np.array(below, dtype=np.uint64))
    return gen.random_raw(4).tolist()


def _philox_block(key, counter):
    words = dynamics.philox(
        [np.array([c], dtype=np.uint64) for c in counter],
        [np.array([k], dtype=np.uint64) for k in key],
    )
    return [int(w[0]) for w in words]


def test_philox_matches_numpy():
    rng = np.random.default_rng(2011)
    for _ in range(200):
        key = [int(k) for k in rng.integers(0, 2**64, 2, dtype=np.uint64)]
        counter = [int(c) for c in rng.integers(0, 2**64, 4, dtype=np.uint64)]
        assert _philox_block(key, counter) == _numpy_philox_block(key, counter)
    # numpy's step from (2^64 - 1, 6, ...) carries out of word 0
    key, counter = [3, 4], [0, 7, 8, 9]
    assert _philox_block(key, counter) == _numpy_philox_block(key, counter)
    carried = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=np.array([2**64 - 1, 6, 8, 9], dtype=np.uint64))
    assert carried.random_raw(4).tolist() == _philox_block(key, counter)
    # a batch is each counter's block
    c0 = np.arange(5, dtype=np.uint64)
    words = dynamics.philox((c0, c0 * np.uint64(3), np.uint64(1), np.uint64(0)), (np.array([9], np.uint64), np.array([10], np.uint64)))
    for i in range(5):
        assert [int(w[i]) for w in words] == _philox_block([9, 10], [i, 3 * i, 1, 0])


def _block_bits(sys, draw, block, stream=0):
    """The 256 lanes of one block: lane k is bit k % 64 of word k // 64."""
    words = _philox_block(sys.key, [block, draw, stream, 0])
    return [(words[k // 64] >> (k % 64)) & 1 for k in range(256)]


def test_lane_order(z_bernoulli):
    x = point(z_bernoulli, 11)
    assert dynamics.read_cells(x, list(range(256)))[0].tolist() == _block_bits(z_bernoulli, 11, 0)
    assert dynamics.read_cells(x, list(range(-256, 0)))[0].tolist() == _block_bits(
        z_bernoulli, 11, 2**64 - 1
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tile_edges(d):
    # cells on both sides of every tile face, with negative coordinates
    spec = groups.GroupSpec("integers") if d == 1 else groups.GroupSpec("lattice", d)
    sys = dynamics.bernoulli_system(spec, seed=5)
    sides = {1: (256,), 2: (16, 16), 3: (8, 8, 4)}[d]
    field = 64 // d
    axes = [sorted({v for t in (-2, -1, 0, 1) for v in (t * s - 1, t * s)}) for s in sides]
    cells = list(itertools.product(*axes))
    x = point(sys, 3)
    got = dynamics.read_cells(x, cells if d > 1 else [c[0] for c in cells])[0].tolist()
    for cell, bit in zip(cells, got):
        block = lane = 0
        for c, s in zip(cell, sides):
            block = (block << field) | ((c // s) & (2**field - 1))
            lane = lane * s + c % s
        assert bit == _block_bits(sys, 3, block)[lane], cell


_KINDS = [
    groups.GroupSpec("integers"),
    groups.GroupSpec("lattice", 2),
    groups.GroupSpec("free", 2),
    groups.GroupSpec("heisenberg", 2),
]


@pytest.mark.parametrize("spec", _KINDS, ids=["Z", "Z2", "F2", "H"])
def test_read_equivariance_all_kinds(spec):
    sys = dynamics.bernoulli_system(spec, seed=41)
    x = point(sys, 2)
    ball = groups.ball(spec, 2)
    far = groups.power(spec, groups.generators(spec)[-1], 30 if spec.kind == "free" else 300)
    for h in groups.ball(spec, 1) + [far]:
        xh = x.moved(h)
        assert [read(xh, g) for g in ball] == [read(x, groups.multiply(spec, g, h)) for g in ball]
        assert dynamics.read_cells(xh, ball).tolist() == dynamics.read_cells(
            x, [groups.multiply(spec, g, h) for g in ball]
        ).tolist()


@pytest.mark.parametrize(
    "spec, near, far",
    [
        (groups.GroupSpec("lattice", 2), (16 * 2**31 - 1, 0), (16 * 2**31, 0)),
        (groups.GroupSpec("lattice", 3), (0, 0, -4 * 2**20), (0, 0, -4 * 2**20 - 1)),
        (groups.GroupSpec("heisenberg", 2), (0, -(2**23), 0), (0, 2**23, 0)),
        (groups.GroupSpec("free", 1), (1,) * 72, (1,) * 73),
    ],
    ids=["Z2", "Z3", "H", "F1"],
)
def test_cells_past_the_counter_range(spec, near, far):
    # the last cell a block word holds reads; the next raises
    x = point(dynamics.bernoulli_system(spec, seed=1), 0)
    assert read(x, near) in (0, 1)
    with pytest.raises(EncodingError):
        read(x, far)


@pytest.mark.parametrize("spec", [groups.GroupSpec("integers"), groups.GroupSpec("lattice", 2)], ids=["Z", "Z2"])
def test_cell_past_64_bits_is_an_encoding_error(spec):
    x = point(dynamics.bernoulli_system(spec, seed=1), 0)
    e = groups.identity(spec)
    with pytest.raises(EncodingError):
        dynamics.read_cells(x, [e, 2**63 if spec.kind == "integers" else (2**63, 0)])


def test_fair_bit_frequency(z_bernoulli):
    # 4000 draws x 300 cells across two blocks: 1.2M bits within 4 SE of 1/2
    points = dynamics.sample_points(z_bernoulli, np.arange(4000))
    bits = dynamics.read_cells(points, list(range(-150, 150)))
    assert bits.size >= 1_000_000
    assert abs(bits.mean() - 0.5) <= 4 * 0.5 / math.sqrt(bits.size)


def test_conditional_sampler_law(z_bernoulli):
    # conditioned points carry the marker; free coordinates stay fair
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)
    far = dynamics.read_cells(dynamics.conditional_base_sampler(tower, 8, 400), [1000])[:, 0].tolist()
    n = len(far)
    se = math.sqrt(0.25 / n)
    assert abs(sum(far) / n - 0.5) <= 4 * se


def measure_preservation_report(sys, cyl, g, samples: int, seed: int = 0) -> dict:
    """Empirical mu(T_g^{-1} A) vs the exact cylinder measure, with CI."""
    probe = dynamics.probe_system(sys, "mp", seed)
    moved = dynamics.sample_points(probe, np.arange(samples)).moved(g)
    bits = dynamics.read_cells(moved, [c for c, _ in cyl.bits])
    hits = int((bits == [b for _, b in cyl.bits]).all(axis=1).sum())
    exact = cyl.measure()
    se = math.sqrt(exact * (1 - exact) / samples)
    return {
        "exact": exact,
        "estimate": hits / samples,
        "pass": abs(hits / samples - exact) <= 4 * se + 1e-12,
    }


def freeness_report(sys, radius: int, points: int, seed: int = 0) -> dict:
    """For sampled points and g in B_radius minus e, some coordinate differs.

    Two fair sequences agree on k witness cells with probability 2^-k, so
    the witness ball is wide enough that no pair agrees by chance."""
    spec = sys.group
    probe = dynamics.probe_system(sys, "free", seed)
    witnesses = groups.ball(spec, radius + 16)
    xs = dynamics.sample_points(probe, np.arange(points))
    bits = dynamics.read_cells(xs, witnesses)
    failures = 0
    for g in groups.ball(spec, radius):
        if g == groups.identity(spec):
            continue
        moved = dynamics.read_cells(xs.moved(g), witnesses)
        failures += int((moved == bits).all(axis=1).sum())
    return {"failures": failures, "pass": failures == 0}


def test_measure_preservation(z_bernoulli, z_spec):
    cyl = dynamics.CylinderSet.from_dict(z_spec, {0: 1, 3: 0})
    rep = measure_preservation_report(z_bernoulli, cyl, 7, samples=20_000)
    assert rep["pass"]


def test_freeness(z_bernoulli):
    rep = freeness_report(z_bernoulli, radius=4, points=300)
    assert rep["pass"]


def test_birkhoff_window_sanity(z_bernoulli, z_spec):
    # ball-window averages of a cylinder indicator approach its measure
    cyl = dynamics.CylinderSet.from_dict(z_spec, {0: 1})
    x = point(z_bernoulli, 17)
    for n, tol in ((50, 0.2), (400, 0.1)):
        window = dynamics.read_cells(x, list(range(-n, n)))[0]
        assert [contains(cyl, x.moved(g)) for g in (-n, 0, n - 1)] == [
            window[k] == 1 for k in (0, n, 2 * n - 1)
        ]
        assert abs(window.mean() - 0.5) < tol
