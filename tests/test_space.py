import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vectors import WeightedVector, delta, norm, norm_detail, partial_weight, shift, weight
from walkrep import groups, measures, space
from walkrep.config import WeightConfig
from walkrep.errors import DomainError


def test_norm_delta_hand_value(z_spec):
    w = measures.build_weight(z_spec, WeightConfig(q=0.5, n_max=2))
    assert norm(delta(w, 0)) == 0.5


def test_norm_zero_vector(z_weights):
    v = WeightedVector(z_weights, {})
    assert norm(v) == 0.0
    v2 = WeightedVector(z_weights, {0: 0.0})
    assert norm(v2) == 0.0 and v2.coeffs == {}


def test_norm_homogeneity(z_weights):
    rng = np.random.default_rng(3)
    for _ in range(50):
        support = rng.choice(30, size=5, replace=False) - 15
        v = WeightedVector(
            z_weights, {int(g): float(c) for g, c in zip(support, rng.standard_normal(5))}
        )
        assert abs(norm(v.scale(2.0)) - 2.0 * norm(v)) < 1e-12


def test_norm_outside_support_flagged(z_weights):
    v = WeightedVector(z_weights, {10_000: 1.0})
    detail = norm_detail(v)
    assert detail["flagged"] and detail["n_outside"] == 1
    assert detail["value"] == math.sqrt(z_weights.tail_bound)


def test_parallelogram_law(z_weights):
    rng = np.random.default_rng(4)
    for _ in range(60):
        def rand_vec():
            idx = rng.choice(40, size=6, replace=False) - 20
            return WeightedVector(
                z_weights,
                {int(g): float(c) for g, c in zip(idx, rng.standard_normal(6))},
            )

        u, v = rand_vec(), rand_vec()
        lhs = norm(u + v) ** 2 + norm(u - v) ** 2
        rhs = 2 * norm(u) ** 2 + 2 * norm(v) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_shift_moves_single_atom(z_weights):
    v = delta(z_weights, 5)
    moved = shift(v, 1)
    assert moved.coeffs == {4: 1.0}


def test_shift_is_representation_f2(f2_weights):
    rng = np.random.default_rng(9)
    spec = f2_weights.spec
    pool = groups.ball(spec, 3)
    a, b = (1,), (2,)
    ab = groups.multiply(spec, a, b)
    for _ in range(40):
        idx = rng.choice(len(pool), size=4, replace=False)
        v = WeightedVector(
            f2_weights,
            {pool[int(i)]: float(c) for i, c in zip(idx, rng.standard_normal(4))},
        )
        assert shift(shift(v, b), a).coeffs == shift(v, ab).coeffs


def test_shift_identity_is_noop(z_weights):
    v = delta(z_weights, 3)
    assert shift(v, 0).coeffs == v.coeffs


def test_single_atom_ratio_identity(z_weights):
    v = delta(z_weights, 0)
    lhs = norm(shift(v, 1)) ** 2 / norm(v) ** 2
    rhs = weight(z_weights, -1) / weight(z_weights, 0)
    assert abs(lhs - rhs) < 1e-12


def test_operator_norm_certificate_z(z_spec, z_weights):
    rep = space.operator_norm_certificate(z_weights, 1)
    assert abs(rep["bound"] - math.sqrt(6.0)) < 1e-12
    assert rep["pass"]
    assert rep["observed"] <= rep["bound"] + 1e-9
    assert rep["observed"] > 2.0  # the certificate is near-sharp


def test_operator_norm_certificate_f2(f2_spec, f2_weights):
    rep = space.operator_norm_certificate(f2_weights, (1,))
    assert abs(rep["bound"] - math.sqrt(10.0)) < 1e-12
    assert rep["pass"]


def test_certificate_rejects_non_generator(z_spec, z_weights):
    with pytest.raises(DomainError):
        space.operator_norm_certificate(z_weights, 2)


@pytest.mark.parametrize("kind, d", [("integers", 1), ("lattice", 2), ("heisenberg", 2), ("free", 2)])
def test_certificate_needs_a_shifted_atom(kind, d):
    # at depth 1 the domain is B(0) = {e}, whose shift reads the depth-0
    # weight, 0: no atom certifies anything.  At depth 2 the argmax is an
    # element of B(1), with a nonzero ratio
    spec = groups.GroupSpec(kind, d)
    for a in groups.generators(spec):
        with pytest.raises(DomainError, match=r"^ball\(0\) holds no atom with a nonzero shifted weight$"):
            space.operator_norm_certificate(measures.build_weight(spec, WeightConfig(0.5, 1)), a)
        rep = space.operator_norm_certificate(measures.build_weight(spec, WeightConfig(0.5, 2)), a)
        assert rep["observed"] > 0.0 and rep["pass"]
        assert rep["single_atom_argmax"] in {groups.element_str(spec, g) for g in groups.ball(spec, 1)}


def test_subgroup_norm_certificates(z_spec, f2_spec, f2_weights):
    emb = groups.subgroup_embed(z_spec, f2_spec, [(1,)])
    rep0 = space.subgroup_norm_certificate(f2_weights, emb, 0)
    assert rep0["bound"] == 1.0 and rep0["observed"] <= 1.0 + 1e-9
    rep1 = space.subgroup_norm_certificate(f2_weights, emb, 1)
    assert rep1["bound"] == 10.0 and rep1["pass"]
    rep2 = space.subgroup_norm_certificate(f2_weights, emb, 2)
    assert rep2["bound"] == 100.0 and rep2["pass"]


# The certificates are exact: ||S_a v||^2 / ||v||^2 is a weighted average of
# single-atom ratios.  Random finitely supported vectors serve as the oracle.
# Each squared norm sums at most _MAX_SUPPORT positive terms, so the computed
# ratio sqrt(N / D) is within (_MAX_SUPPORT + 4) u of the exact one (u = 2^-53,
# relative), which is at most the exact supremum; ``observed`` is within 2 u
# of that supremum.  _ORACLE_REL = 16 u covers both.
_MAX_SUPPORT = 8
_ORACLE_REL = 16 * 2.0**-53


def _random_vector(w, pool, data):
    idx = data.draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=_MAX_SUPPORT, unique=True
        )
    )
    mags = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(idx), max_size=len(idx)))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(idx), max_size=len(idx)))
    return WeightedVector(w, {pool[i]: s * m for i, s, m in zip(idx, signs, mags)})


def _ratio(v, g, table_v, table_shifted):
    """sqrt(||S_g v||^2 / ||v||^2), each squared norm read from its table."""
    den = sum(c * c * table_v[h] for h, c in v.coeffs.items())
    shifted = shift(v, g).coeffs
    num = sum(c * c * table_shifted.get(h, 0.0) for h, c in shifted.items())
    return math.sqrt(num / den)


@functools.cache
def _weight(kind, d, n_max):
    return measures.build_weight(groups.GroupSpec(kind, d), WeightConfig(0.5, n_max))


@functools.cache
def _exact_case(kind, d, n_max, a):
    """Operator certificate, its domain and the norm tables of its ratio."""
    spec = groups.GroupSpec(kind, d)
    w = _weight(kind, d, n_max)
    rep = space.operator_norm_certificate(w, a)
    pool = [g for g in groups.ball(spec, n_max - 1) if weight(w, g) > 0.0]
    shifted = {g: partial_weight(w, g, n_max - 1) for g in groups.ball(spec, n_max)}
    return rep, spec, w, pool, w.table, shifted


@functools.cache
def _exact_subgroup_case(g0):
    """Z -> F_2 certificate, its pool and the second-layer table."""
    z, f2 = groups.GroupSpec("integers"), groups.GroupSpec("free", 2)
    w_amb = _weight("free", 2, 6)
    emb = groups.subgroup_embed(z, f2, [(1,)])
    rep = space.subgroup_norm_certificate(w_amb, emb, g0)
    rho_g = measures.restrict_renormalize(w_amb, emb)
    w_sub = measures.build_weight(z, WeightConfig(q=0.5, n_max=4), rho=rho_g)
    interior = int(rep["domain"].removeprefix("subgroup ball(").removesuffix(")"))
    pool = [
        g for g in groups.ball(z, interior) if weight(w_sub, g) > 0.0 and weight(w_sub, g - g0) > 0.0
    ]
    atom_max = max(_ratio(delta(w_sub, h), g0, w_sub.table, w_sub.table) for h in pool)
    return rep, w_sub, pool, atom_max


_EXACT_CASES = [
    pytest.param(kind, d, n_max, a, id=f"{kind}{d}-{groups.element_str(spec, a)}")
    for kind, d, n_max in (("integers", 1, 12), ("free", 2, 6), ("lattice", 3, 4))
    for spec in [groups.GroupSpec(kind, d)]
    for a in groups.generators(spec)
]


@pytest.mark.parametrize("kind,d,n_max,a", _EXACT_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operator_certificate_is_exact_supremum(kind, d, n_max, a, data):
    rep, spec, w, pool, table, table_shifted = _exact_case(kind, d, n_max, a)
    argmax = {groups.element_str(spec, g): g for g in pool}[rep["single_atom_argmax"]]
    assert _ratio(delta(w, argmax), a, table, table_shifted) == rep["observed"]
    v = _random_vector(w, pool, data)
    assert _ratio(v, a, table, table_shifted) <= rep["observed"] * (1 + _ORACLE_REL)


@pytest.mark.parametrize("g0", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subgroup_certificate_is_exact_supremum(g0, data):
    rep, w_sub, pool, atom_max = _exact_subgroup_case(g0)
    table = w_sub.table
    assert atom_max == rep["observed"]
    v = _random_vector(w_sub, pool, data)
    assert _ratio(v, g0, table, table) <= rep["observed"] * (1 + _ORACLE_REL)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
def test_shift_composition_z(g, h):
    spec = groups.GroupSpec("integers")
    w = measures.build_weight(spec, WeightConfig(q=0.5, n_max=10))
    v = WeightedVector(w, {0: 1.0, 3: -2.0})
    assert (
        shift(shift(v, h), g).coeffs
        == shift(v, g + h).coeffs
    )


def _exact_walk_counts(spec, n_max):
    """Integer walk counts of the lazy step per element, n = 0..n_max."""
    steps = [groups.identity(spec)] + groups.generators(spec)
    counts = [{groups.identity(spec): 1}]
    for _ in range(n_max):
        nxt: dict = {}
        for g, c in counts[-1].items():
            for s in steps:
                h = groups.multiply(spec, g, s)
                nxt[h] = nxt.get(h, 0) + c
        counts.append(nxt)
    return counts


@pytest.mark.parametrize("n_max", [4, 5])
def test_heisenberg_argmax_in_exact_tie_set(n_max):
    # many atoms tie exactly for the largest ratio on the Heisenberg group;
    # rounding picks one of them, and it must be one of the exact argmaxes
    spec = groups.GroupSpec("heisenberg", 2)
    counts = _exact_walk_counts(spec, n_max)
    q, walks = Fraction(1, 2), 2 * spec.d + 1

    def weight(g, depth):
        return sum(
            (1 - q) * q ** (n - 1) * Fraction(counts[n].get(g, 0), walks**n)
            for n in range(1, depth + 1)
        )

    w = measures.build_weight(spec, WeightConfig(0.5, n_max))
    for a in groups.generators(spec):
        rep = space.operator_norm_certificate(w, a)
        a_inv = groups.inverse(spec, a)
        ratios = {
            h: weight(groups.multiply(spec, h, a_inv), n_max - 1) / weight(h, n_max)
            for h in groups.ball(spec, n_max - 1)
        }
        top = max(ratios.values())
        ties = {groups.element_str(spec, h) for h, r in ratios.items() if r == top}
        assert len(ties) > 1
        assert rep["single_atom_argmax"] in ties
        assert rep["observed"] == pytest.approx(math.sqrt(top), rel=1e-14, abs=0.0)
