import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrep import continuous, groups, measures
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


def test_domination_constant_real_defaults():
    rep = continuous.domination_constant_real()
    assert rep["u"] == 1.0
    assert rep["D"] == 2.0
    assert rep["shift_bound"] == 2.0
    assert rep["violations"] == 0
    assert rep["pass"]


def test_domination_grid_tight_at_edges():
    # equality holds at the interval endpoints, so any smaller constant fails
    rep = continuous.domination_constant_real(ratio_bound_c=2.0)
    assert rep["worst_gap"] <= 1e-12
    lhs_at_edge = 1.0 / 4.0
    rhs_at_edge = 2.0 * continuous.overlap_density(continuous.IntervalMeasure(2.0), 2.0) / 16.0
    assert abs(lhs_at_edge - rhs_at_edge) < 1e-15


def test_chain_subgroups():
    chain = continuous.LocallyFiniteChain(n_max=4, params=measures.WeightParams(0.5, 4))
    assert len(chain.subgroup(1)) == 2
    assert len(chain.subgroup(4)) == 16
    assert chain.first_containing(()) == 1
    assert chain.first_containing((2,)) == 2
    assert chain.first_containing((1, 3)) == 3
    with pytest.raises(DomainError):
        chain.first_containing((9,))


def test_haar_measures():
    chain = continuous.LocallyFiniteChain(n_max=4, params=measures.WeightParams(0.5, 4))
    lam2 = chain.haar(2)
    assert abs(lam2.sum() - 1.0) < 1e-15
    assert lam2[continuous.mask(())] == 0.25
    assert lam2[continuous.mask((1, 2))] == 0.25
    assert lam2[continuous.mask((3,))] == 0.0


def test_haar_convolution_identity_small():
    chain = continuous.LocallyFiniteChain(n_max=5, params=measures.WeightParams(0.5, 5))
    rep = continuous.haar_convolution_identity(chain)
    assert rep["pass"]
    assert rep["pairs_checked"] == 15


def test_locally_finite_rho_masses():
    chain = continuous.LocallyFiniteChain(n_max=10, params=measures.WeightParams(0.5, 10))
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
    assert abs(rho.sum() - sum(p(n) for n in range(1, 11))) < 1e-12


# -- the F_2 kernel against the dict oracle (measures.convolve on tuples) --


def _sparse(chain, arr) -> measures.SparseMeasure:
    return measures.SparseMeasure(
        chain.spec, {g: float(arr[continuous.mask(g)]) for g in chain.subgroup(chain.n_max)}
    )


def _dict_chain(chain) -> tuple:
    lams = [
        measures.SparseMeasure(chain.spec, dict.fromkeys(chain.subgroup(n), 2.0**-n))
        for n in range(1, chain.n_max + 1)
    ]
    rho = measures.SparseMeasure(chain.spec, measures.mixture(chain.params, lams))
    return rho, measures.convolve(chain.spec, rho, rho)


def test_mask_element_round_trip():
    chain = continuous.LocallyFiniteChain(n_max=6, params=measures.WeightParams(0.5, 6))
    masks = [continuous.mask(g) for g in chain.subgroup(6)]
    assert sorted(masks) == list(range(64))
    assert [continuous.element(m) for m in masks] == chain.subgroup(6)
    assert list(chain.canonical_masks) == masks


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_xor_convolve_equals_dict_convolution_on_dyadic_masses(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    chain = continuous.LocallyFiniteChain(n_max=n, params=measures.WeightParams(0.5, n))
    ints = st.lists(st.integers(0, 16), min_size=2**n, max_size=2**n)
    mu = np.array(data.draw(ints), dtype=float) * 2.0**-10
    nu = np.array(data.draw(ints), dtype=float) * 2.0**-10
    got = continuous.xor_convolve(mu, nu)
    want = measures.convolve(chain.spec, _sparse(chain, mu), _sparse(chain, nu))
    for g in chain.subgroup(n):
        assert got[continuous.mask(g)] == want.mass(g)


@pytest.mark.parametrize("q", [0.5, 0.3])
def test_chain_convolution_against_dict_oracle(q):
    n = 6
    chain = continuous.LocallyFiniteChain(n_max=n, params=measures.WeightParams(q, n))
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
    chain = continuous.LocallyFiniteChain(n_max=6, params=measures.WeightParams(0.5, 6))
    rho, rho2 = _dict_chain(chain)
    for g0 in [(), (1,), (3,), (2, 5), (1, 4, 6), (6,)]:
        rep = continuous.domination_check_locally_finite(chain, g0)
        want = _dict_domination(chain, g0, rho, rho2)
        assert (rep["worst_ratio"], rep["worst_atom"], rep["violations"]) == want


def test_chain_domination_anchors_k10():
    # the numbers criterion 11b reports on K_10 at the default seed
    chain = continuous.LocallyFiniteChain(n_max=10, params=measures.WeightParams(0.5, 10))
    shared = continuous.chain_convolution(chain)
    pool = chain.subgroup(10)
    picks = [pool[int(i)] for i in np.random.default_rng(20240).choice(len(pool), size=20, replace=False)]
    reps = [continuous.domination_check_locally_finite(chain, g0, precomputed=shared) for g0 in picks]
    assert sum(r["violations"] for r in reps) == 468
    assert round(max(r["worst_ratio"] for r in reps), 1) == 175018.9
    assert sum(r["violations_corrected"] for r in reps) == 0


def test_chain_domination_sweep_script():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(continuous.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "chain_domination_sweep.py"), "--n-max", "6"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [int(r.split()[0]) for r in rows] == list(range(1, 7))
    assert [int(r.split()[0]) for r in rows if "simple=FAILS" in r] == [3, 4, 5, 6]


def test_chain_lower_bound():
    chain = continuous.LocallyFiniteChain(n_max=8, params=measures.WeightParams(0.5, 8))
    rep = continuous.lower_bound_chain_check(chain)
    assert rep["pass"]


def test_domination_identity_element():
    chain = continuous.LocallyFiniteChain(n_max=4, params=measures.WeightParams(0.5, 4))
    rep = continuous.domination_check_locally_finite(chain, ())
    assert rep["m0"] == 1
    assert rep["C_simple"] == 3.0
    assert rep["violations"] == 0


def test_domination_second_bit():
    chain = continuous.LocallyFiniteChain(n_max=4, params=measures.WeightParams(0.5, 4))
    rep = continuous.domination_check_locally_finite(chain, (2,))
    assert rep["m0"] == 2
    assert rep["C_simple"] == 4.0
    assert rep["violations"] == 0
    assert rep["C_corrected"] >= rep["worst_ratio"]


def test_domination_monotone_constant():
    chain = continuous.LocallyFiniteChain(n_max=6, params=measures.WeightParams(0.5, 6))
    consts = [
        continuous.domination_check_locally_finite(chain, (m,))["C_simple"]
        for m in (1, 2, 3, 4)
    ]
    assert all(a <= b for a, b in zip(consts, consts[1:]))


def test_simple_constant_fails_deep_in_chain():
    # the closed-form constant genuinely undershoots for elements whose
    # first containing subgroup is K_3 or deeper; the corrected constant,
    # which keeps the cumulative-weight factor, is certified exhaustively
    chain = continuous.LocallyFiniteChain(n_max=6, params=measures.WeightParams(0.5, 6))
    rep = continuous.domination_check_locally_finite(chain, (3,))
    assert rep["violations"] > 0
    assert rep["worst_ratio"] > rep["C_simple"]
    assert rep["pass_corrected"]
    assert not rep["pass"]


def test_corrected_constant_certified_everywhere():
    chain = continuous.LocallyFiniteChain(n_max=7, params=measures.WeightParams(0.5, 7))
    for g0 in [(), (1,), (3,), (2, 5), (1, 4, 7)]:
        rep = continuous.domination_check_locally_finite(chain, g0)
        assert rep["violations_corrected"] == 0
