import math

import numpy as np
import pytest

import convolution as oracle
from handles import contains, handles, point, position
from walkrep import dynamics, groups, markov, measures, stats


def mean_interval(values, z: float = stats.Z95) -> tuple[float, float, float]:
    """(mean, lo, hi) by the normal approximation."""
    arr = np.asarray(values, dtype=float)
    m = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return (m, m - z * se, m + z * se)


# -- oracle: the per-point averaging loop that convergence_report's table
# replaces


def evaluate(f, x):
    """f(x) at one point: the cylinder test, or the cosine of the position."""
    if f.kind == "indicator":
        return 1.0 if contains(f.payload, x) else 0.0
    return math.cos(2.0 * math.pi * position(x)[f.payload])


def observe(sys, f, x, elements):
    """[f(T_g x) for g in elements]: a rotation point's cosines one by one
    from its root, taken once, and the coordinate of T_g's offset on the
    observed axis; a Bernoulli point's cylinder tests cell by cell on its
    bits, read once."""
    spec = sys.group
    if f.kind == "cos":
        u, n = x.torus(f.payload)
        a = sys.alpha[f.payload]
        return [
            math.cos(2.0 * math.pi * ((float(u[0]) + (n + c) * a) % 1.0))
            for c in groups.coords(spec, elements)[:, f.payload].tolist()
        ]
    cells = list({groups.multiply(spec, c, g) for c, _ in f.payload.bits for g in elements})
    bits = dict(zip(cells, dynamics.read_cells(x, cells)[0].tolist()))
    return [
        1.0 if all(bits[groups.multiply(spec, c, g)] == b for c, b in f.payload.bits) else 0.0
        for g in elements
    ]


def markov_average(sys, f, n, x, rho_powers):
    """(A^n f)(x) as the exact finite sum over the support of rho^{*n};
    n = 0 returns f(x) (the empty convolution)."""
    if n == 0:
        return evaluate(f, x)
    rho_n = rho_powers[n - 1]
    support = rho_n.support()
    total = 0.0
    for g, value in zip(support, observe(sys, f, x, support)):
        total += value * rho_n.masses[g]
    return total


def contraction_report(sys, f, n_max, samples, seed=0):
    """Sampled sup |A^n f| <= 1, the sup of an indicator or a cosine, and
    positivity for nonnegative f."""
    spec = sys.group
    rho_powers = oracle.convolution_powers(spec, oracle.step_distribution(spec), max(n_max, 1))
    probe = dynamics.probe_system(sys, "contr", seed)
    worst = 0.0
    min_val = math.inf
    for i in range(samples):
        x = point(probe, i)
        for n in range(n_max + 1):
            v = markov_average(sys, f, n, x, rho_powers)
            worst = max(worst, abs(v))
            min_val = min(min_val, v)
    return {
        "sup_abs": worst,
        "min_value": min_val,
        "bound": 1.0,
        "pass": worst <= 1.0 + 1e-12,
    }


def walk_powers(spec, n_max):
    """rho^{*1..n_max} as dict measures read from ``measures.lazy_walk``: the
    very masses convergence_report sums."""
    walk = measures.lazy_walk(spec, n_max)
    powers = []
    for n in range(1, n_max + 1):
        ball = groups.ball(spec, n)
        powers.append(oracle.SparseMeasure(spec, dict(zip(ball, walk.masses(n, walk.cells(ball)).tolist()))))
    return powers


def per_point_deviations(sys, f, n_max, samples, seed, rho_powers):
    """sup_dev, l2_dev and l2_se of convergence_report from markov_average."""
    probe = dynamics.probe_system(sys, "jrt", seed)
    points = handles(dynamics.sample_points(probe, np.arange(samples)))
    sup_dev, l2_dev, se_l2 = [], [], []
    for n in range(n_max + 1):
        devs = np.array([markov_average(sys, f, n, x, rho_powers) - f.mean for x in points])
        sup_dev.append(float(np.abs(devs).max()))
        second = devs * devs
        l2_dev.append(float(math.sqrt(second.mean())))
        se_l2.append(float(second.std(ddof=1) / math.sqrt(samples)))
    return sup_dev, l2_dev, se_l2


_Z2 = groups.GroupSpec("lattice", 2)


@pytest.mark.parametrize("spec", [groups.GroupSpec("integers"), _Z2], ids=["Z", "Z2"])
@pytest.mark.parametrize("kind", ["rotation_cos", "two_bit_cylinder", "shifted_cos"])
def test_tabled_report_equals_per_point_average(spec, kind):
    if kind == "shifted_cos":
        # points moved far to the negative side, so the torus coordinate
        # is negative before ``% 1.0``: the table equals act + position
        sys = dynamics.rotation_system(spec, seed=33)
        f = markov.cos_observable(0)
        h = groups.power(spec, groups.generators(spec)[-1], -3)
        h = groups.multiply(spec, h, groups.power(spec, groups.generators(spec)[0], -40))
        points = dynamics.sample_points(sys, np.arange(30)).moved(h)
        u, shift = points.torus(0)
        assert (u + (shift + 6) * sys.alpha[0] < 0.0).all()
        atoms = sorted(groups.ball(spec, 6), key=lambda g: groups.sort_key(spec, g))
        moved = [point(sys, i).moved(h) for i in range(30)]
        assert f.table(points, atoms).tolist() == [observe(sys, f, x, atoms) for x in moved]
        return
    if kind == "rotation_cos":
        sys = dynamics.rotation_system(spec, seed=31)
        f = markov.cos_observable(0)
    else:
        sys = dynamics.bernoulli_system(spec, seed=32)
        e = groups.identity(spec)
        far = groups.generators(spec)[0]
        f = markov.indicator_observable(
            dynamics.CylinderSet.from_dict(spec, {e: 1, groups.multiply(spec, far, far): 0})
        )
    n_max = 6
    rep = markov.convergence_report(sys, f, n_max=n_max, samples=60, seed=5)
    # bit for bit: each lane does the scalar loop's float operations in order
    assert (rep["sup_dev"], rep["l2_dev"], rep["l2_se"]) == per_point_deviations(
        sys, f, n_max, 60, 5, walk_powers(spec, n_max)
    )


@pytest.mark.parametrize(
    "spec",
    [groups.GroupSpec("integers"), _Z2, groups.GroupSpec("free", 2), groups.GroupSpec("heisenberg", 2)],
    ids=["Z", "Z2", "F2", "H"],
)
def test_bernoulli_report_matches_dict_convolution(spec):
    # the walk-count masses against the dict convolution, on all four kinds
    sys = dynamics.bernoulli_system(spec, seed=33)
    e = groups.identity(spec)
    f = markov.indicator_observable(dynamics.CylinderSet.from_dict(spec, {e: 1}))
    n_max = 4
    rep = markov.convergence_report(sys, f, n_max=n_max, samples=40, seed=7)
    powers = oracle.convolution_powers(spec, oracle.step_distribution(spec), 2 * n_max)
    want = per_point_deviations(sys, f, n_max, 40, 7, powers[:n_max])
    for got, ref in zip((rep["sup_dev"], rep["l2_dev"], rep["l2_se"]), want):
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
    exact = [0.5] + [math.sqrt(powers[2 * n - 1].mass(e)) / 2.0 for n in range(1, n_max + 1)]
    assert rep["expected_l2"] == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_n_zero_returns_observable(z_spec, z_bernoulli):
    f = markov.indicator_observable(dynamics.CylinderSet.from_dict(z_spec, {0: 1}))
    x = point(z_bernoulli, 0)
    powers = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 2)
    assert markov_average(z_bernoulli, f, 0, x, powers) == evaluate(f, x)


def test_rotation_eigenfunction(z_spec):
    sys_r = dynamics.rotation_system(z_spec, seed=2)
    lam = markov.rotation_eigenvalue(sys_r)
    f = markov.cos_observable(0)
    powers = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 6)
    for draw in range(5):
        x = point(sys_r, draw)
        for n in range(1, 7):
            got = markov_average(sys_r, f, n, x, powers)
            assert abs(got - lam**n * evaluate(f, x)) < 1e-10


def test_lattice_rotation_eigenfunction():
    from walkrep import groups

    z2 = groups.GroupSpec("lattice", 2)
    sys_r = dynamics.rotation_system(z2, seed=3)
    lam = markov.rotation_eigenvalue(sys_r, 0)
    f = markov.cos_observable(0)
    powers = oracle.convolution_powers(z2, oracle.step_distribution(z2), 4)
    x = point(sys_r, 0)
    for n in range(1, 5):
        got = markov_average(sys_r, f, n, x, powers)
        assert abs(got - lam**n * evaluate(f, x)) < 1e-10


def test_bernoulli_average_is_convex_combination(z_spec, z_bernoulli):
    f = markov.indicator_observable(dynamics.CylinderSet.from_dict(z_spec, {0: 1}))
    powers = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 8)
    for draw in range(10):
        x = point(z_bernoulli, draw)
        for n in (1, 4, 8):
            v = markov_average(z_bernoulli, f, n, x, powers)
            assert 0.0 <= v <= 1.0


def test_constant_observable_fixed(z_spec, z_bernoulli):
    const = markov.ObservableSpec("indicator", dynamics.CylinderSet.from_dict(z_spec, {}), mean=1.0)
    powers = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 5)
    x = point(z_bernoulli, 0)
    for n in range(6):
        assert abs(markov_average(z_bernoulli, const, n, x, powers) - 1.0) < 1e-12


def test_rotation_decay_ratio(z_spec):
    sys_r = dynamics.rotation_system(z_spec, seed=6)
    f = markov.cos_observable(0)
    rep = markov.convergence_report(sys_r, f, n_max=20, samples=300, seed=0)
    lam = abs(markov.rotation_eigenvalue(sys_r))
    for n in range(1, 21):
        ratio = rep["l2_dev"][n] / rep["l2_dev"][n - 1]
        assert abs(ratio - lam) <= 0.05 * lam
    assert rep["pass"]
    assert rep["aperiodicity_witness"] == 1 / 3


def test_bernoulli_variance_formula(z_spec, z_bernoulli):
    f = markov.indicator_observable(dynamics.CylinderSet.from_dict(z_spec, {0: 1}))
    rep = markov.convergence_report(z_bernoulli, f, n_max=12, samples=2500, seed=1)
    for n in range(1, 13):
        est2 = rep["l2_dev"][n] ** 2
        exact2 = rep["expected_l2"][n] ** 2
        assert abs(est2 - exact2) <= 4.0 * rep["l2_se"][n]
    assert rep["pass"]


def test_exact_l2_formula_against_direct_sum(z_spec):
    powers = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 12)
    walk = measures.lazy_walk(z_spec, 6)
    for n in (1, 3, 6):
        direct = math.sqrt(sum(m * m for m in powers[n - 1].masses.values())) / 2.0
        assert abs(markov.bernoulli_indicator_l2(walk, n) - direct) < 1e-14
        assert abs(markov.bernoulli_indicator_l2(walk, n) - math.sqrt(powers[2 * n - 1].mass(0)) / 2.0) < 1e-15


def test_contraction_and_positivity(z_spec, z_bernoulli):
    f = markov.indicator_observable(dynamics.CylinderSet.from_dict(z_spec, {0: 1, 2: 1}))
    rep = contraction_report(z_bernoulli, f, n_max=6, samples=50)
    assert rep["pass"]
    assert rep["min_value"] >= 0.0


def test_self_adjointness_proxy(z_spec, z_bernoulli):
    # <A f, g> == <f, A g> within Monte-Carlo error for a symmetric step law,
    # f and g the indicators of a one at 0 and at 2, so f(T_h x) = x_h and
    # g(T_h x) = x_{h+2}
    (rho,) = oracle.convolution_powers(z_spec, oracle.step_distribution(z_spec), 1)
    probe = dynamics.bernoulli_system(z_spec, seed=404)
    n = 20_000
    points = dynamics.sample_points(probe, np.arange(n))
    bits = dynamics.read_cells(points, [-1, 0, 1, 2, 3]).astype(float)  # x_{-1..3}
    support = rho.support()
    a_f = sum(bits[:, h + 1] * rho.masses[h] for h in support)
    a_g = sum(bits[:, h + 3] * rho.masses[h] for h in support)
    lhs = a_f * bits[:, 3]
    rhs = bits[:, 1] * a_g
    m_l, lo_l, hi_l = mean_interval(lhs)
    m_r, lo_r, hi_r = mean_interval(rhs)
    assert abs(m_l - m_r) <= (hi_l - lo_l) / 2 + (hi_r - lo_r) / 2
