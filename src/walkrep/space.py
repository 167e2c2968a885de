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


def norm_detail(v: WeightedVector) -> dict:
    """Norm with the evaluated split: stored part plus outside-tail allowance.

    Atoms outside the stored support score against the tail allowance (their
    true weight mass is at most ``tail_bound``) and the result is flagged as
    an upper estimate.
    """
    w = v.weights
    inside = 0.0
    max_outside = 0.0
    n_outside = 0
    for g in v.support():
        c = v.coeffs[g]
        wg = w.table.get(g)
        if wg is None:
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


def norm(v: WeightedVector) -> float:
    return norm_detail(v)["value"]


def shift(v: WeightedVector, g0) -> WeightedVector:
    """(S_{g0} v)(g) = v(g g0): every atom at h moves to h g0^-1."""
    spec = v.spec
    g0_inv = groups.inverse(spec, g0)
    return WeightedVector(
        v.weights,
        {groups.multiply(spec, h, g0_inv): c for h, c in v.coeffs.items()},
    )


def operator_norm_certificate(spec: GroupSpec, w: WeightTable, a) -> dict:
    """Certify ||S_a|| <= sqrt((2d+1) C) on the truncated table.

    The domain is vectors supported in B(n_max-1), normed by the full-depth
    weight w; their shifts are normed by the weight w_{n_max-1} truncated at
    depth n_max-1, the exact truncated form of the one-step bound.  S_a sends
    delta_h to delta_{h a^-1}, a permutation of the basis, and both norms are
    diagonal in that basis, so

        ||S_a v||^2 / ||v||^2 = sum_h v(h)^2 w(h) r(h)^2 / sum_h v(h)^2 w(h),
        r(h)^2 = w_{n_max-1}(h a^-1) / w(h),

    a weighted average of the single-atom ratios.  The operator norm on the
    domain is therefore exactly max_h r(h), attained at ``delta_h`` for the
    argmax h, and the exhaustive scan over the ball is the whole certificate
    (the classical weighted-shift fact; Shields 1974).
    """
    if a not in groups.generators(spec):
        raise DomainError("certificate expects a symmetric generator")
    bound = math.sqrt((2 * spec.d + 1) * w.params.ratio_bound)
    n_max = w.params.n_max
    atom_max = 0.0
    atom_arg = None
    a_inv = groups.inverse(spec, a)
    for g in groups.ball(spec, n_max - 1):
        den = w.weight(g)
        if den <= 0.0:
            continue
        num = w.partial_weight(groups.multiply(spec, g, a_inv), n_max - 1)
        r = math.sqrt(num / den)
        if r > atom_max:
            atom_max = r
            atom_arg = g
    return {
        "group": spec.to_dict(),
        "a": groups.element_str(spec, a),
        "bound": bound,
        "observed": atom_max,
        "observed_single_atom": atom_max,
        "single_atom_argmax": groups.element_str(spec, atom_arg),
        "domain": f"support in ball({n_max - 1}); shifted norm at depth {n_max - 1}",
        "pass": bool(atom_max <= bound + PASS_SLACK),
    }


def subgroup_norm_certificate(
    w_amb: WeightTable,
    emb: groups.Embedding,
    g0,
    second_params: WeightParams | None = None,
) -> dict:
    """Certify the translation-operator bound on the restricted-weight space.

    The restricted, renormalized measure becomes the step law of a second
    weight w_G on the subgroup; the operator bound there is M_{g0}, the
    ambient translation bound of the embedded element.  The domain is the
    vectors supported on the pool of atoms h in the interior of the
    second-layer window whose shift h g0^-1 also carries stored weight, so
    both norms read the stored table and no tail allowance applies.  S_{g0}
    permutes the basis and w_G is diagonal in it, so ||S_{g0} v||^2 / ||v||^2
    is the average of the single-atom ratios w_G(h g0^-1) / w_G(h) weighted
    by v(h)^2 w_G(h); the operator norm on the domain is exactly the largest
    single-atom ratio, which is what ``observed`` reports.
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
    g0_inv = groups.inverse(sub, g0)
    atom_max = 0.0
    n_pool = 0
    for g in groups.ball(sub, interior):
        den = w_sub.weight(g)
        num = w_sub.weight(groups.multiply(sub, g, g0_inv))
        if den > 0.0 and num > 0.0:
            n_pool += 1
            atom_max = max(atom_max, math.sqrt(num / den))
    if not n_pool:
        raise DomainError("empty interior domain for subgroup certificate")
    return {
        "g0": groups.element_str(sub, g0),
        "ambient_image": groups.element_str(amb, img),
        "bound": m_g0,
        "observed": atom_max,
        "observed_single_atom": atom_max,
        "domain": f"subgroup ball({interior})",
        "second_layer": {"q": second_params.q, "n_max": second_params.n_max},
        "pass": bool(atom_max <= m_g0 + PASS_SLACK),
    }
