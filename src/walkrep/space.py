"""The weighted sequence space: vectors, the translation operators, and
norm-bound certificates.

Vectors are finitely supported real functions on the group, normed by
``||v||^2 = sum_g v(g)^2 w(g)`` against a stored WeightTable.  Coefficients
at elements outside the stored weight support contribute through the tail
allowance (their true weight mass is at most ``tail_bound``) and the norm is
flagged as an upper estimate in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups, measures
from .errors import DomainError
from .groups import GroupSpec
from .measures import WeightParams, WeightTable

PASS_SLACK = 1e-9


@dataclass
class WeightedVector:
    """Finitely supported vector; canonical form drops exact zeros."""

    weights: WeightTable
    coeffs: dict

    def __post_init__(self):
        self.coeffs = {g: c for g, c in self.coeffs.items() if c != 0.0}

    @property
    def spec(self) -> GroupSpec:
        return self.weights.spec

    def support(self) -> list:
        return sorted(self.coeffs, key=lambda g: groups.sort_key(self.spec, g))

    def __add__(self, other: "WeightedVector") -> "WeightedVector":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0.0) + c
        return WeightedVector(self.weights, out)

    def __sub__(self, other: "WeightedVector") -> "WeightedVector":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0.0) - c
        return WeightedVector(self.weights, out)

    def scale(self, t: float) -> "WeightedVector":
        return WeightedVector(self.weights, {g: t * c for g, c in self.coeffs.items()})


def delta(w: WeightTable, g) -> WeightedVector:
    return WeightedVector(w, {g: 1.0})


def norm_detail(v: WeightedVector, depth: int | None = None) -> dict:
    """Norm with the evaluated split: stored part plus outside-tail allowance.

    With ``depth`` set, the norm is taken against the weight truncated at
    that depth, which is exactly zero outside its support; no allowance
    applies.  At full depth, atoms outside the stored support score against
    the tail allowance (their true weight mass is at most ``tail_bound``)
    and the result is flagged as an upper estimate.
    """
    w = v.weights
    truncated = depth is not None
    table = w.table if depth is None else w.partial_table(depth)
    inside = 0.0
    max_outside = 0.0
    n_outside = 0
    for g in v.support():
        c = v.coeffs[g]
        wg = table.get(g)
        if wg is None:
            if not truncated:
                n_outside += 1
                max_outside = max(max_outside, abs(c))
        else:
            inside += c * c * wg
    outside_bound = max_outside * max_outside * w.tail_bound
    return {
        "value": math.sqrt(inside + outside_bound),
        "stored_part": math.sqrt(inside),
        "n_outside": n_outside,
        "outside_bound": outside_bound,
        "flagged": n_outside > 0,
    }


def norm(v: WeightedVector, depth: int | None = None) -> float:
    return norm_detail(v, depth=depth)["value"]


def shift(v: WeightedVector, g0) -> WeightedVector:
    """(S_{g0} v)(g) = v(g g0): every atom at h moves to h g0^-1."""
    spec = v.spec
    g0_inv = groups.inverse(spec, g0)
    return WeightedVector(
        v.weights,
        {groups.multiply(spec, h, g0_inv): c for h, c in v.coeffs.items()},
    )


def _random_vector(w: WeightTable, pool: list, rng, max_support: int) -> WeightedVector:
    k = int(rng.integers(1, max_support + 1))
    idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
    coeffs = {pool[int(i)]: float(c) for i, c in zip(idx, rng.standard_normal(len(idx)))}
    return WeightedVector(w, coeffs)


def operator_norm_certificate(
    spec: GroupSpec,
    w: WeightTable,
    a,
    trials: int = 10_000,
    seed: int = 0,
    max_support: int = 12,
) -> dict:
    """Certify ||S_a|| <= sqrt((2d+1) C) on the truncated table.

    Ratios compare the shifted norm at depth n_max-1 against the full-depth
    norm, the exact truncated form of the one-step bound; it is scanned over
    ``trials`` random finitely supported vectors (support inside B(n_max-1))
    and exhaustively over the single-atom family.  The best observed ratio is
    also a lower-bound witness for the operator norm at those depths.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if a not in groups.generators(spec):
        raise DomainError("certificate expects a symmetric generator")
    bound = math.sqrt((2 * spec.d + 1) * w.params.ratio_bound)
    n_max = w.params.n_max
    pool = groups.ball(spec, n_max - 1)
    rng = np.random.default_rng(seed)
    observed = 0.0
    witness = None
    for _ in range(trials):
        v = _random_vector(w, pool, rng, max_support)
        denom = norm(v, depth=n_max)
        if denom == 0.0:
            continue
        r = norm(shift(v, a), depth=n_max - 1) / denom
        if r > observed:
            observed = r
            witness = v
    atom_max = 0.0
    atom_arg = None
    a_inv = groups.inverse(spec, a)
    for g in pool:
        den = w.weight(g)
        if den <= 0.0:
            continue
        num = w.partial_weight(groups.multiply(spec, g, a_inv), n_max - 1)
        r = math.sqrt(num / den)
        if r > atom_max:
            atom_max = r
            atom_arg = g
    overall = max(observed, atom_max)
    return {
        "group": spec.to_dict(),
        "a": groups.element_str(spec, a),
        "bound": bound,
        "observed": overall,
        "observed_random": observed,
        "observed_single_atom": atom_max,
        "single_atom_argmax": groups.element_str(spec, atom_arg),
        "witness_support": [groups.element_str(spec, g) for g in witness.support()]
        if witness is not None
        else [],
        "trials": trials,
        "seed": seed,
        "domain": f"support in ball({n_max - 1}); shifted norm at depth {n_max - 1}",
        "pass": bool(overall <= bound + PASS_SLACK),
    }


def subgroup_norm_certificate(
    w_amb: WeightTable,
    emb: groups.Embedding,
    g0,
    second_params: WeightParams | None = None,
    trials: int = 2000,
    seed: int = 0,
    max_support: int = 8,
) -> dict:
    """Certify the translation-operator bound on the restricted-weight space.

    The restricted, renormalized measure becomes the step law of a second
    weight w_G on the subgroup; the operator bound there is M_{g0}, the
    ambient translation bound of the embedded element.  The observed ratio is
    scanned over single atoms and random vectors supported in the interior of
    the second-layer window, where truncation of the restricted measure does
    not bite.
    """
    sub, amb = emb.spec_sub, emb.spec_amb
    groups.check_element(sub, g0)
    rho_g = measures.restrict_renormalize(w_amb, emb)
    if second_params is None:
        second_params = WeightParams(q=0.5, n_max=4)
    img = emb.map(g0)
    length = groups.word_length(amb, img)
    m_g0 = measures.translation_bound(amb, w_amb.params, length)
    w_sub = measures.build_weight(sub, second_params, rho=rho_g)
    # interior window: one base-window radius in from the support edge
    base_radius = max(
        groups.word_length(sub, h) for h in rho_g.support()
    )
    interior = base_radius * (second_params.n_max - 1)
    interior = max(interior - length, 1)
    pool = [
        g
        for g in groups.ball(sub, interior)
        if w_sub.weight(g) > 0.0
        and w_sub.weight(groups.multiply(sub, g, groups.inverse(sub, g0))) > 0.0
    ]
    if not pool:
        raise DomainError("empty interior domain for subgroup certificate")
    g0_inv = groups.inverse(sub, g0)
    atom_max = 0.0
    for g in pool:
        r = math.sqrt(w_sub.weight(groups.multiply(sub, g, g0_inv)) / w_sub.weight(g))
        atom_max = max(atom_max, r)
    rng = np.random.default_rng(seed)
    vec_max = 0.0
    for _ in range(trials):
        v = _random_vector(w_sub, pool, rng, max_support)
        denom = norm(v)
        if denom == 0.0:
            continue
        shifted = shift(v, g0)
        num = norm_detail(shifted)
        vec_max = max(vec_max, num["value"] / denom)
    observed = max(atom_max, vec_max)
    return {
        "g0": groups.element_str(sub, g0),
        "ambient_image": groups.element_str(amb, img),
        "bound": m_g0,
        "observed": observed,
        "observed_single_atom": atom_max,
        "observed_random": vec_max,
        "trials": trials,
        "seed": seed,
        "domain": f"subgroup ball({interior})",
        "second_layer": {"q": second_params.q, "n_max": second_params.n_max},
        "pass": bool(observed <= m_g0 + PASS_SLACK),
    }
