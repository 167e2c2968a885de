import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrep import groups, measures, space
from walkrep.errors import DomainError


def test_norm_delta_hand_value(z_spec):
    w = measures.build_weight(z_spec, measures.WeightParams(q=0.5, n_max=2))
    assert space.norm(space.delta(w, 0)) == 0.5


def test_norm_zero_vector(z_weights):
    v = space.WeightedVector(z_weights, {})
    assert space.norm(v) == 0.0
    v2 = space.WeightedVector(z_weights, {0: 0.0})
    assert space.norm(v2) == 0.0 and v2.coeffs == {}


def test_norm_homogeneity(z_weights):
    rng = np.random.default_rng(3)
    for _ in range(50):
        support = rng.choice(30, size=5, replace=False) - 15
        v = space.WeightedVector(
            z_weights, {int(g): float(c) for g, c in zip(support, rng.standard_normal(5))}
        )
        assert abs(space.norm(v.scale(2.0)) - 2.0 * space.norm(v)) < 1e-12


def test_norm_outside_support_flagged(z_weights):
    v = space.WeightedVector(z_weights, {10_000: 1.0})
    detail = space.norm_detail(v)
    assert detail["flagged"] and detail["n_outside"] == 1
    assert detail["value"] == math.sqrt(z_weights.tail_bound)


def test_parallelogram_law(z_weights):
    rng = np.random.default_rng(4)
    for _ in range(60):
        def rand_vec():
            idx = rng.choice(40, size=6, replace=False) - 20
            return space.WeightedVector(
                z_weights,
                {int(g): float(c) for g, c in zip(idx, rng.standard_normal(6))},
            )

        u, v = rand_vec(), rand_vec()
        lhs = space.norm(u + v) ** 2 + space.norm(u - v) ** 2
        rhs = 2 * space.norm(u) ** 2 + 2 * space.norm(v) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_shift_moves_single_atom(z_weights):
    v = space.delta(z_weights, 5)
    moved = space.shift(v, 1)
    assert moved.coeffs == {4: 1.0}


def test_shift_is_representation_f2(f2_weights):
    rng = np.random.default_rng(9)
    spec = f2_weights.spec
    pool = groups.ball(spec, 3)
    a, b = (1,), (2,)
    ab = groups.multiply(spec, a, b)
    for _ in range(40):
        idx = rng.choice(len(pool), size=4, replace=False)
        v = space.WeightedVector(
            f2_weights,
            {pool[int(i)]: float(c) for i, c in zip(idx, rng.standard_normal(4))},
        )
        assert space.shift(space.shift(v, b), a).coeffs == space.shift(v, ab).coeffs


def test_shift_identity_is_noop(z_weights):
    v = space.delta(z_weights, 3)
    assert space.shift(v, 0).coeffs == v.coeffs


def test_single_atom_ratio_identity(z_weights):
    v = space.delta(z_weights, 0)
    lhs = space.norm(space.shift(v, 1)) ** 2 / space.norm(v) ** 2
    rhs = z_weights.weight(-1) / z_weights.weight(0)
    assert abs(lhs - rhs) < 1e-12


def test_operator_norm_certificate_z(z_spec, z_weights):
    rep = space.operator_norm_certificate(z_spec, z_weights, 1)
    assert abs(rep["bound"] - math.sqrt(6.0)) < 1e-12
    assert rep["pass"]
    assert rep["observed"] <= rep["bound"] + 1e-9
    assert rep["observed_single_atom"] > 2.0  # the certificate is near-sharp


def test_operator_norm_certificate_f2(f2_spec, f2_weights):
    rep = space.operator_norm_certificate(f2_spec, f2_weights, (1,))
    assert abs(rep["bound"] - math.sqrt(10.0)) < 1e-12
    assert rep["pass"]


def test_certificate_rejects_non_generator(z_spec, z_weights):
    with pytest.raises(DomainError):
        space.operator_norm_certificate(z_spec, z_weights, 2)


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
    return space.WeightedVector(w, {pool[i]: s * m for i, s, m in zip(idx, signs, mags)})


def _ratio(v, g, table_v, table_shifted):
    """sqrt(||S_g v||^2 / ||v||^2), each squared norm read from its table."""
    den = sum(c * c * table_v[h] for h, c in v.coeffs.items())
    shifted = space.shift(v, g).coeffs
    num = sum(c * c * table_shifted.get(h, 0.0) for h, c in shifted.items())
    return math.sqrt(num / den)


@functools.cache
def _weight(kind, d, n_max):
    return measures.build_weight(groups.GroupSpec(kind, d), measures.WeightParams(0.5, n_max))


@functools.cache
def _exact_case(kind, d, n_max, a):
    """Operator certificate, its domain and the norm tables of its ratio."""
    spec = groups.GroupSpec(kind, d)
    w = _weight(kind, d, n_max)
    rep = space.operator_norm_certificate(spec, w, a)
    pool = [g for g in groups.ball(spec, n_max - 1) if w.weight(g) > 0.0]
    return rep, spec, w, pool, w.table, w.partial_table(n_max - 1)


@functools.cache
def _exact_subgroup_case(g0):
    """Z -> F_2 certificate, its pool and the second-layer table."""
    z, f2 = groups.GroupSpec("integers"), groups.GroupSpec("free", 2)
    w_amb = _weight("free", 2, 6)
    emb = groups.subgroup_embed(z, f2, [(1,)])
    rep = space.subgroup_norm_certificate(w_amb, emb, g0)
    rho_g = measures.restrict_renormalize(w_amb, emb)
    w_sub = measures.build_weight(z, measures.WeightParams(q=0.5, n_max=4), rho=rho_g)
    interior = int(rep["domain"].removeprefix("subgroup ball(").removesuffix(")"))
    pool = [
        g for g in groups.ball(z, interior) if w_sub.weight(g) > 0.0 and w_sub.weight(g - g0) > 0.0
    ]
    atom_max = max(_ratio(space.delta(w_sub, h), g0, w_sub.table, w_sub.table) for h in pool)
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
    assert _ratio(space.delta(w, argmax), a, table, table_shifted) == rep["observed"]
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
    w = measures.build_weight(spec, measures.WeightParams(q=0.5, n_max=10))
    v = space.WeightedVector(w, {0: 1.0, 3: -2.0})
    assert (
        space.shift(space.shift(v, h), g).coeffs
        == space.shift(v, g + h).coeffs
    )
