import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convolution as oracle
import fresh
from walkrep import cli, continuous, groups
from walkrep.errors import DomainError


def test_overlap_closed_form():
    L = continuous.IntervalMeasure(2.0)
    assert continuous.overlap_density(L, 0.0) == 4.0
    assert continuous.overlap_density(L, 3.0) == 1.0
    assert continuous.overlap_density(L, -3.0) == 1.0
    assert continuous.overlap_density(L, 4.0) == 0.0
    assert continuous.overlap_density(L, 5.5) == 0.0


def test_overlap_quadrature_grid():
    L = continuous.IntervalMeasure(2.0)
    grid = np.linspace(-4.5, 4.5, 10_000)
    worst = 0.0
    for t in grid[:: 40]:  # a representative sweep; the full grid runs in the CLI
        worst = max(
            worst,
            abs(
                continuous.overlap_density_quadrature(L, float(t))
                - continuous.overlap_density(L, float(t))
            ),
        )
    assert worst < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-12.0, max_value=12.0),
)
def test_overlap_quadrature_matches_scipy_quad(half, t):
    from scipy import integrate

    L = continuous.IntervalMeasure(half)
    lo, hi = -half - abs(t), half + abs(t)
    breaks = sorted(x for x in (-half, half, t - half, t + half) if lo < x < hi)
    ref, _ = integrate.quad(
        lambda h: L.indicator(t - h) * L.indicator(h), lo, hi, points=breaks, limit=200
    )
    assert abs(continuous.overlap_density_quadrature(L, t) - ref) <= 1e-9 * max(1.0, half)


def test_domination_constant_real_defaults():
    rep = continuous.domination_constant_real()
    assert rep["u"] == 1.0
    assert rep["D"] == 2.0
    assert rep["shift_bound"] == 2.0
    assert rep["violations"] == 0
    assert rep["pass"]


def _full_real_domination() -> tuple:
    """(u, violations, worst_gap) of the real-line check by its full scans:
    psi at every point of the window's grid, and one gap scan per k."""
    L = continuous.IntervalMeasure(continuous.L_HALF)
    step = continuous.GRID_STEP
    kl_half = continuous.K_HALF + continuous.L_HALF
    u = min(continuous.overlap_density(L, t) for t in continuous.arange(-kl_half, kl_half + step / 2, step))
    grid = continuous.arange(-L.half, L.half + step / 2, step)
    rhs = [2.0 / u * continuous.overlap_density(L, t) / L.length**2 for t in grid]
    violations, worst = 0, -math.inf
    for k in continuous.K_SAMPLES:
        gap = [(1.0 / L.length if abs(t - k) <= L.half else 0.0) - r for t, r in zip(grid, rhs)]
        worst = max(worst, max(gap))
        violations += sum(x > 1e-12 for x in gap)
    return u, violations, worst


def test_real_domination_equals_full_grid_oracle():
    rep = continuous.domination_constant_real()
    assert repr((rep["u"], rep["violations"], rep["worst_gap"])) == repr(_full_real_domination())


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=12.0),
    st.floats(min_value=0.005, max_value=1.0),
)
def test_overlap_density_minimum_on_a_grid_is_at_an_end(half, reach, step):
    # psi falls as |t| grows, and its rounding keeps that order
    L = continuous.IntervalMeasure(half)
    grid = continuous.arange(-reach, reach + step / 2, step)
    psi = [continuous.overlap_density(L, t) for t in grid]
    assert min(psi) == min(psi[0], psi[-1])


def test_domination_grid_tight_at_edges():
    # equality holds at the interval endpoints, so any smaller constant fails
    rep = continuous.domination_constant_real()
    assert rep["worst_gap"] <= 1e-12
    lhs_at_edge = 1.0 / 4.0
    rhs_at_edge = 2.0 * continuous.overlap_density(continuous.IntervalMeasure(2.0), 2.0) / 16.0
    assert abs(lhs_at_edge - rhs_at_edge) < 1e-15


def test_chain_subgroups():
    chain = continuous.LocallyFiniteChain(n_max=4)
    assert len(chain.subgroup(1)) == 2
    assert len(chain.subgroup(4)) == 16
    assert chain.first_containing(()) == 1
    assert chain.first_containing((2,)) == 2
    assert chain.first_containing((1, 3)) == 3
    with pytest.raises(DomainError):
        chain.first_containing((9,))


def test_haar_measures():
    chain = continuous.LocallyFiniteChain(n_max=4)
    lam2 = chain.haar(2)
    assert abs(sum(lam2) - 1.0) < 1e-15
    assert lam2[continuous.mask(())] == 0.25
    assert lam2[continuous.mask((1, 2))] == 0.25
    assert len(lam2) == 4 <= continuous.mask((3,))  # K_2's cells only


def test_haar_convolution_identity_small():
    chain = continuous.LocallyFiniteChain(n_max=5)
    rep = continuous.haar_convolution_identity(chain)
    assert rep["pass"]
    assert rep["pairs_checked"] == 15


def _full_haar_identity(chain) -> dict:
    """The Haar identity with every measure on all of K_n_max and every
    pair's product transformed back there."""
    size = 2**chain.n_max
    full = [chain.haar(n) + [0.0] * (size - 2**n) for n in range(1, chain.n_max + 1)]
    spectra = [continuous.fwht(lam) for lam in full]
    worst = 0.0
    checked = 0
    for i in range(1, chain.n_max + 1):
        for j in range(i, chain.n_max + 1):
            prod = [x * y for x, y in zip(spectra[i - 1], spectra[j - 1])]
            err = max(abs(x / size - y) for x, y in zip(continuous.fwht(prod), full[j - 1]))
            worst = max(worst, err)
            checked += 1
    return {"pairs_checked": checked, "max_abs_error": worst, "pass": worst < 1e-12}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_haar_identity_equals_full_size_oracle(q):
    for n in range(1, 11):
        chain = continuous.LocallyFiniteChain(n_max=n, q=q)
        assert repr(continuous.haar_convolution_identity(chain)) == repr(_full_haar_identity(chain))


@pytest.mark.parametrize("j", range(1, 7))
def test_haar_identity_sees_one_perturbed_transform_output(monkeypatch, j):
    # the last cell of lambda_j's inverse transform, off by 1e-9, fails the check
    chain = continuous.LocallyFiniteChain(n_max=6)
    fwht, sizes = continuous.fwht, []

    def perturbed(a):
        out = fwht(a)
        sizes.append(len(out))
        if len(sizes) == chain.n_max + j:
            out[-1] += 1e-9
        return out

    monkeypatch.setattr(continuous, "fwht", perturbed)
    rep = continuous.haar_convolution_identity(chain)
    # one spectrum per subgroup, then one inverse per j, each on K_j's cells
    assert sizes == [2**n for n in range(1, 7)] * 2
    assert rep["max_abs_error"] == pytest.approx(1e-9 / 2**j) and not rep["pass"]


def test_locally_finite_rho_masses():
    chain = continuous.LocallyFiniteChain(n_max=10)
    rho = continuous.locally_finite_rho(chain)
    p = chain.params.p
    expected_e = sum(p(n) * 2.0**-n for n in range(1, 11))
    assert abs(rho[continuous.mask(())] - expected_e) < 1e-15
    expected_e2 = sum(p(n) * 2.0**-n for n in range(2, 11))
    assert abs(rho[continuous.mask((2,))] - expected_e2) < 1e-15
    spec = chain.spec
    assert all(
        rho[continuous.mask(groups.inverse(spec, g))] == rho[continuous.mask(g)]
        for g in chain.subgroup(10)
    )
    assert abs(sum(rho) - sum(p(n) for n in range(1, 11))) < 1e-12


# -- the F_2 kernel against the dict oracle (convolution.convolve on tuples) --


def _sparse(chain, arr) -> oracle.SparseMeasure:
    return oracle.SparseMeasure(
        chain.spec, {g: float(arr[continuous.mask(g)]) for g in chain.subgroup(chain.n_max)}
    )


def _dict_chain(chain) -> tuple:
    lams = [
        oracle.SparseMeasure(chain.spec, dict.fromkeys(chain.subgroup(n), 2.0**-n))
        for n in range(1, chain.n_max + 1)
    ]
    rho = oracle.SparseMeasure(chain.spec, oracle.mixture(chain.params, lams))
    return rho, oracle.convolve(chain.spec, rho, rho)


# mixed magnitudes, both zeros and exact ties, so a changed addition order
# or a lost sign of zero shows in the bytes
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-200, 200)),
)


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_list_kernel_is_the_numpy_butterfly_bit_for_bit(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    arrays = st.lists(_FLOATS, min_size=2**n, max_size=2**n)
    mu, nu = data.draw(arrays), data.draw(arrays)
    assert _bytes(continuous.fwht(mu)) == _bytes(oracle.fwht(np.array(mu)))
    want = oracle.xor_convolve(np.array(mu), np.array(nu))
    assert _bytes(continuous.xor_convolve(mu, nu)) == _bytes(want)


def test_grids_are_numpy_grids_entry_for_entry():
    kl_half, step = continuous.K_HALF + continuous.L_HALF, continuous.GRID_STEP
    for lo, hi in ((-kl_half, kl_half + step / 2), (-continuous.L_HALF, continuous.L_HALF + step / 2)):
        assert _bytes(continuous.arange(lo, hi, step)) == np.arange(lo, hi, step).tobytes()
    assert _bytes(continuous.linspace(-5.0, 5.0, 101)) == np.linspace(-5.0, 5.0, 101).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.integers(min_value=2, max_value=500),
)
def test_arange_and_linspace_match_numpy(start, stop, step, num):
    assert _bytes(continuous.arange(start, stop, step)) == np.arange(start, stop, step).tobytes()
    if start != stop:
        assert _bytes(continuous.linspace(start, stop, num)) == np.linspace(start, stop, num).tobytes()


def test_mask_element_round_trip():
    chain = continuous.LocallyFiniteChain(n_max=6)
    masks = [continuous.mask(g) for g in chain.subgroup(6)]
    assert sorted(masks) == list(range(64))
    assert [continuous.element(m) for m in masks] == chain.subgroup(6)
    assert list(chain.canonical_masks) == masks


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_xor_convolve_equals_dict_convolution_on_dyadic_masses(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    chain = continuous.LocallyFiniteChain(n_max=n)
    ints = st.lists(st.integers(0, 16), min_size=2**n, max_size=2**n)
    mu = np.array(data.draw(ints), dtype=float) * 2.0**-10
    nu = np.array(data.draw(ints), dtype=float) * 2.0**-10
    got = continuous.xor_convolve(mu, nu)
    want = oracle.convolve(chain.spec, _sparse(chain, mu), _sparse(chain, nu))
    for g in chain.subgroup(n):
        assert got[continuous.mask(g)] == want.mass(g)


@pytest.mark.parametrize("q", [0.5, 0.3])
def test_chain_convolution_against_dict_oracle(q):
    n = 6
    chain = continuous.LocallyFiniteChain(n_max=n, q=q)
    rho, rho2 = continuous.chain_convolution(chain)
    want_rho, want_rho2 = _dict_chain(chain)
    # the documented absolute bound of xor_convolve against the exact
    # convolution, plus the dict path's own rounding (2^n terms per atom)
    bound = (3 * n + 2) * 2.0**-53
    for g in chain.subgroup(n):
        m = continuous.mask(g)
        assert rho[m] == want_rho.mass(g)  # bit-equal mixture for every q
        err = abs(rho2[m] - want_rho2.mass(g))
        if q == 0.5:
            assert err == 0.0  # dyadic masses: exact
        else:
            assert err <= bound + 2**n * 2.0**-53 * want_rho2.mass(g)


def test_chain_convolution_computed_once_per_chain():
    chain = continuous.LocallyFiniteChain(n_max=5, q=0.3)
    shared = continuous.chain_convolution(chain)
    assert shared is continuous.chain_convolution(continuous.LocallyFiniteChain(chain.n_max, chain.q))
    assert shared is not continuous.chain_convolution(continuous.LocallyFiniteChain(chain.n_max))
    for arr in shared:
        with pytest.raises(TypeError):  # tuples: no check can write to the shared result
            arr[0] = 0.0


def test_chain_rejects_q_outside_unit_interval():
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            continuous.LocallyFiniteChain(n_max=4, q=q)


def _dict_domination(chain, g0, rho, rho2) -> tuple:
    """(worst_ratio, worst_atom, violations) by the per-atom loop."""
    rep = continuous.domination_check_locally_finite(chain, g0)
    worst, atom, violations = 0.0, None, 0
    for g in chain.subgroup(chain.n_max):
        lhs = rho.mass(groups.multiply(chain.spec, g, g0))
        rhs = rho2.mass(g)
        if lhs / rhs > worst:  # first strict maximum in canonical order
            worst, atom = lhs / rhs, g
        violations += lhs > rep["C_simple"] * rhs * (1 + 1e-12)
    return worst, groups.element_str(chain.spec, atom), violations


def test_domination_check_matches_dict_loop():
    chain = continuous.LocallyFiniteChain(n_max=6)
    rho, rho2 = _dict_chain(chain)
    for g0 in [(), (1,), (3,), (2, 5), (1, 4, 6), (6,)]:
        rep = continuous.domination_check_locally_finite(chain, g0)
        want = _dict_domination(chain, g0, rho, rho2)
        assert (rep["worst_ratio"], rep["worst_atom"], rep["violations"]) == want


def test_chain_domination_anchors_k10():
    # the numbers criterion 11b reports on K_10 at the default seed
    chain = continuous.LocallyFiniteChain(n_max=10)
    pool = chain.subgroup(10)
    picks = [pool[int(i)] for i in np.random.default_rng(20240).choice(len(pool), size=20, replace=False)]
    reps = [continuous.domination_check_locally_finite(chain, g0) for g0 in picks]
    assert sum(r["violations"] for r in reps) == 468
    assert round(max(r["worst_ratio"] for r in reps), 1) == 175018.9
    assert sum(r["violations_corrected"] for r in reps) == 0


# ``continuous`` on K_3..K_6 at seed 20240, sampling min(20, 2^n) of the g0:
# n -> (violations of the simple constant over the g0, the worst ratio)
SHORT_CHAINS_11B = {
    3: (8, "12.923076923076923"),
    4: (40, "46.89655172413793"),
    5: (54, "178.88524590163934"),
    6: (134, "698.88"),
}


@pytest.mark.parametrize("n", sorted(SHORT_CHAINS_11B))
def test_simple_constant_fails_on_short_chains_only_from_k3(tmp_path, n):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lf_chain_n": n, "lf_sampled_g0": min(20, 2**n)}))
    out = tmp_path / "out"
    assert cli.main(["continuous", "--config", str(path), "--seed", "20240", "--out", str(out)]) == 1
    with open(out / "continuous" / "lf_domination.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(int(r["violations"]) for r in rows)
    assert (total, max((r["worst_ratio"] for r in rows), key=float)) == SHORT_CHAINS_11B[n]
    # a g0 violates exactly when its first containing subgroup is K_3 or deeper
    assert all((int(r["violations"]) > 0) == (int(r["m0"]) >= 3) for r in rows)
    assert all(int(r["violations_corrected"]) == 0 for r in rows)
    report = json.loads((out / "continuous" / "report.json").read_text())
    verdicts = {r["name"]: r["pass"] for r in report["records"]}
    assert not verdicts["lf_domination_simple_constant"]
    assert verdicts["lf_domination_corrected_constant"]


def _script_lines(script: str, *args: str) -> list:
    """The stdout lines of ``scripts/<script>`` run in a fresh interpreter,
    which must exit 0."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = fresh.run([os.path.join(root, "scripts", script), *args])
    assert proc.returncode == 0, (script, proc.stderr)
    return proc.stdout.splitlines()


def test_chain_domination_sweep_script():
    rows = _script_lines("chain_domination_sweep.py", "--n-max", "6")[1:]
    assert [int(r.split()[0]) for r in rows] == list(range(1, 7))
    assert [int(r.split()[0]) for r in rows if "simple=FAILS" in r] == [3, 4, 5, 6]


def test_stage_script():
    lines = _script_lines("stage_script.py", "--stages", "2")
    header = "n radius N marker mu(E) eta s beta eps_n delta_n"
    assert lines[0].split() == header.split()
    assert [int(r.split()[0]) for r in lines[1:3]] == [1, 2]
    checks = ["separation", "nesting", "patch", "range", "exceptions", "hitting", "quartic"]
    assert lines[-1] == "checks: " + str({k: True for k in checks})


def test_norm_certificates_script():
    lines = _script_lines("norm_certificates.py")
    assert lines[0].startswith("integers  d=1 n_max= 10  bound=")
    assert len(lines) == 9 and all(line.endswith("[ok]") for line in lines)


def test_chain_lower_bound():
    chain = continuous.LocallyFiniteChain(n_max=8)
    rep = continuous.lower_bound_chain_check(chain)
    assert rep["pass"]


def test_domination_identity_element():
    chain = continuous.LocallyFiniteChain(n_max=4)
    rep = continuous.domination_check_locally_finite(chain, ())
    assert rep["m0"] == 1
    assert rep["C_simple"] == 3.0
    assert rep["violations"] == 0


def test_domination_second_bit():
    chain = continuous.LocallyFiniteChain(n_max=4)
    rep = continuous.domination_check_locally_finite(chain, (2,))
    assert rep["m0"] == 2
    assert rep["C_simple"] == 4.0
    assert rep["violations"] == 0
    assert rep["C_corrected"] >= rep["worst_ratio"]


def test_domination_monotone_constant():
    chain = continuous.LocallyFiniteChain(n_max=6)
    consts = [
        continuous.domination_check_locally_finite(chain, (m,))["C_simple"]
        for m in (1, 2, 3, 4)
    ]
    assert all(a <= b for a, b in zip(consts, consts[1:]))


def test_simple_constant_fails_deep_in_chain():
    # the closed-form constant genuinely undershoots for elements whose
    # first containing subgroup is K_3 or deeper; the corrected constant,
    # which keeps the cumulative-weight factor, is certified exhaustively
    chain = continuous.LocallyFiniteChain(n_max=6)
    rep = continuous.domination_check_locally_finite(chain, (3,))
    assert rep["violations"] > 0
    assert rep["worst_ratio"] > rep["C_simple"]
    assert rep["pass_corrected"]
    assert not rep["pass"]


def test_corrected_constant_certified_everywhere():
    chain = continuous.LocallyFiniteChain(n_max=7)
    for g0 in [(), (1,), (3,), (2, 5), (1, 4, 7)]:
        rep = continuous.domination_check_locally_finite(chain, g0)
        assert rep["violations_corrected"] == 0
