import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrep import dynamics, groups, stats
from walkrep.errors import TowerConstructionError


def wilson_interval(k: int, n: int, z: float = stats.Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def test_point_determinism(z_bernoulli):
    x1 = dynamics.sample_point(z_bernoulli, 0)
    x2 = dynamics.sample_point(z_bernoulli, 0)
    assert [x1.read(g) for g in range(-50, 50)] == [x2.read(g) for g in range(-50, 50)]


def test_exact_equivariance(z_bernoulli):
    x = dynamics.sample_point(z_bernoulli, 3)
    for h in (-2, 1, 5):
        xh = dynamics.act(z_bernoulli, h, x)
        assert all(xh.read(g) == x.read(g + h) for g in range(-10, 10))


def test_action_composition(z_bernoulli):
    x = dynamics.sample_point(z_bernoulli, 1)
    a = dynamics.act(z_bernoulli, 2, dynamics.act(z_bernoulli, 3, x))
    b = dynamics.act(z_bernoulli, 5, x)
    assert a.offset == b.offset


def test_draws_agree_at_half_rate(z_bernoulli):
    x = dynamics.sample_point(z_bernoulli, 0)
    y = dynamics.sample_point(z_bernoulli, 1)
    n = 2000
    agree = sum(x.read(g) == y.read(g) for g in range(-n // 2, n // 2))
    lo, hi = wilson_interval(agree, n)
    assert lo < 0.5 < hi or abs(agree / n - 0.5) < 0.05


def test_rotation_points_uniform_and_equivariant(z_spec):
    sys_r = dynamics.rotation_system(z_spec, seed=5)
    from scipy import stats as st

    draws = np.array(
        [dynamics.sample_point(sys_r, i).position()[0] for i in range(10_000)]
    )
    assert st.kstest(draws, "uniform").pvalue > 0.01
    alpha = sys_r.alpha[0]
    x = dynamics.sample_point(sys_r, 0)
    x3 = dynamics.act(sys_r, 3, x)
    assert abs(x3.position()[0] - ((x.position()[0] + 3 * alpha) % 1.0)) < 1e-12


def test_cylinder_measure_and_eval(z_bernoulli, z_spec):
    cyl = dynamics.CylinderSet.from_dict(z_spec, {0: 1})
    assert cyl.measure() == 0.5
    hits = sum(
        cyl.contains(dynamics.sample_point(z_bernoulli, i)) for i in range(4000)
    )
    lo, hi = wilson_interval(hits, 4000)
    assert lo <= 0.5 <= hi
    full = dynamics.CylinderSet.from_dict(z_spec, {})
    assert full.contains(dynamics.sample_point(z_bernoulli, 0))


def test_family_enumeration(z_spec):
    fam = dynamics.SetFamily(z_spec)
    assert fam.descriptor(0).bits == ()  # the full space
    assert fam.descriptor(1).bits == ((0, 0),)
    assert fam.descriptor(2).bits == ((0, 1),)
    # the ruler makes every descriptor recur infinitely often
    rulers = [dynamics.SetFamily.ruler(i) for i in range(1, 17)]
    assert rulers == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]
    x = dynamics.sample_point(dynamics.bernoulli_system(z_spec, 1), 0)
    # indices with the same ruler value evaluate identically
    assert fam.set_at(2).contains(x) == fam.set_at(6).contains(x) == fam.set_at(10).contains(x)


def test_family_distinct_descriptors(z_spec):
    fam = dynamics.SetFamily(z_spec)
    seen = {fam.descriptor(j).bits for j in range(40)}
    assert len(seen) == 40


def test_tower_disjointness_and_measure(z_bernoulli):
    tower = dynamics.rokhlin_tower(z_bernoulli, 3, 0.1, mc_samples=20_000)
    assert tower.collisions == 0
    assert tower.mu_bn_upper() < 0.05
    assert tower.mc_ci_upper < 0.05
    assert tower.mu_pattern == 0.5 ** len(tower.pattern)
    report = tower.to_dict()
    assert report["mu_e_lower"] == report["mu_e_upper"] == tower.mu_pattern
    assert "n_excluded" not in report


def test_tower_locate_unique(z_bernoulli):
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)
    gen = dynamics.conditional_base_sampler(tower, seed=1)
    spec = z_bernoulli.group
    for _ in range(20):
        x = next(gen)
        assert tower.in_base(x)
        assert tower.locate(x) == 0
        moved = dynamics.act(z_bernoulli, 2, x)
        assert tower.locate(moved) == 2


def test_tower_respects_prescribed_base(z_bernoulli, z_spec):
    within = dynamics.CylinderSet.from_dict(z_spec, {-50: 1})
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2, base_within=within)
    gen = dynamics.conditional_base_sampler(tower, seed=3)
    x = next(gen)
    assert within.contains(x)


def test_tower_infeasible_parameters(z_bernoulli):
    with pytest.raises(TowerConstructionError):
        dynamics.rokhlin_tower(z_bernoulli, 3, 1e-6, max_marker=10)


def test_tower_lattice(z_spec):
    z2 = groups.GroupSpec("lattice", 2)
    sys2 = dynamics.bernoulli_system(z2, seed=12)
    tower = dynamics.rokhlin_tower(sys2, 2, 0.1, mc_samples=3000)
    assert tower.collisions == 0
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
            pattern = dynamics._marker_pattern(spec, s)
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
    monkeypatch.setattr(dynamics, "_marker_pattern", _old_lattice_marker)
    with pytest.raises(TowerConstructionError, match="compatible with its shift"):
        dynamics.rokhlin_tower(sys2, 1, 0.2)


def _per_draw_hits(tower, samples, seed):
    """The per-draw loop the marker sieve replaces: in_base at every
    translate of the draw by an element of B_n^-1."""
    spec = tower.spec
    probe = dynamics.probe_system(tower.system, "tower", seed)
    hits = collisions = 0
    for draw in range(samples):
        x = dynamics.sample_point(probe, draw)
        located = [
            g
            for g in groups.ball(spec, tower.n)
            if tower.in_base(dynamics.act(probe, groups.inverse(spec, g), x))
        ]
        hits += bool(located)
        collisions += len(located) > 1
    return hits, collisions


def _sieve_hits(tower, samples, seed):
    dynamics._tower_monte_carlo(tower, samples, seed)
    return tower.mc_hits_bn, tower.collisions


def _short_tower(sys):
    # a two-cell marker overlaps its own translates, so they can collide
    spec = sys.group
    a = groups.generators(spec)[0]
    return dynamics.TowerSpec(
        system=sys, n=2, eta=0.5, pattern={groups.identity(spec): 1, a: 1}, mu_pattern=0.25
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tower_sieve_equals_per_draw_loop(z_bernoulli, z_spec, seed):
    z2 = dynamics.bernoulli_system(groups.GroupSpec("lattice", 2), seed=12)
    within = dynamics.CylinderSet.from_dict(z_spec, {-1: 0, 9: 1})
    towers = [
        (dynamics.rokhlin_tower(z_bernoulli, 3, 0.1), 1500),
        (dynamics.rokhlin_tower(z2, 1, 0.2), 600),
        (dynamics.rokhlin_tower(z_bernoulli, 2, 0.2, base_within=within), 1500),
    ]
    for tower, samples in towers:
        assert _sieve_hits(tower, samples, seed) == _per_draw_hits(tower, samples, seed)
    # a hand-made short marker, whose translates of the base meet
    for sys in (z_bernoulli, z2):
        tower = _short_tower(sys)
        counts = _sieve_hits(tower, 500, seed)
        assert counts == _per_draw_hits(tower, 500, seed)
        assert counts[1] > 0


def test_read_bits_equals_bit(z_bernoulli, z_spec):
    positions = list(range(-12, 13))
    key = dynamics._root_key(7, 0)
    hashed = dynamics._BernoulliRoot(z_spec, key)
    flipped = {p: 1 - hashed.bit(p) for p in positions[::2]}
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)

    def points():
        """Fresh, offset, cached and forced points, the same on every call."""
        cached = dynamics.sample_point(z_bernoulli, 2)
        for p in positions[::3]:
            cached.read(p)
        forced = dynamics.PointHandle(
            z_bernoulli, dynamics._BernoulliRoot(z_spec, key, forced=flipped), 0
        )
        sampled = next(dynamics.conditional_base_sampler(tower, seed=4))
        return [
            dynamics.sample_point(z_bernoulli, 0),
            dynamics.act(z_bernoulli, 5, dynamics.sample_point(z_bernoulli, 1)),
            cached,
            forced,
            sampled,
        ]

    for x, y in zip(points(), points()):
        at = [groups.multiply(z_spec, p, x.offset) for p in positions]
        got = dynamics.read_bits([x.root], at, dynamics.cell_messages(z_spec, at))
        assert got == [y.root.bit(p) for p in at]
        assert x.root.bits == y.root.bits  # the batched read fills the cache
    # many roots at once, row-major
    roots = [x.root for x in points() if x.offset == 0]
    expected = [x.root.bit(p) for x in points() if x.offset == 0 for p in positions]
    assert dynamics.read_bits(roots, positions, dynamics.cell_messages(z_spec, positions)) == expected


def test_conditional_sampler_law(z_bernoulli):
    # conditioned points carry the marker; free coordinates stay fair
    tower = dynamics.rokhlin_tower(z_bernoulli, 2, 0.2)
    gen = dynamics.conditional_base_sampler(tower, seed=8)
    far = []
    for _ in range(400):
        x = next(gen)
        far.append(x.read(1000))
    n = len(far)
    se = math.sqrt(0.25 / n)
    assert abs(sum(far) / n - 0.5) <= 4 * se


def measure_preservation_report(sys, cyl, g, samples: int, seed: int = 0) -> dict:
    """Empirical mu(T_g^{-1} A) vs the exact cylinder measure, with CI."""
    probe = dynamics.probe_system(sys, "mp", seed)
    hits = 0
    for draw in range(samples):
        x = dynamics.sample_point(probe, draw)
        if cyl.contains(dynamics.act(probe, g, x)):
            hits += 1
    exact = cyl.measure()
    se = math.sqrt(exact * (1 - exact) / samples)
    return {
        "exact": exact,
        "estimate": hits / samples,
        "pass": abs(hits / samples - exact) <= 4 * se + 1e-12,
    }


def freeness_report(sys, radius: int, points: int, seed: int = 0) -> dict:
    """For sampled points and g in B_radius minus e, some coordinate differs."""
    spec = sys.group
    probe = dynamics.probe_system(sys, "free", seed)
    witnesses = groups.ball(spec, radius + 2)
    failures = 0
    for draw in range(points):
        x = dynamics.sample_point(probe, draw)
        for g in groups.ball(spec, radius):
            if g == groups.identity(spec):
                continue
            moved = dynamics.act(probe, g, x)
            if not any(x.read(h) != moved.read(h) for h in witnesses):
                failures += 1
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
    x = dynamics.sample_point(z_bernoulli, 17)
    for n, tol in ((50, 0.2), (400, 0.1)):
        window = [cyl.contains(dynamics.act(z_bernoulli, g, x)) for g in range(-n, n)]
        assert abs(sum(window) / len(window) - 0.5) < tol
