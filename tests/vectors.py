"""Finitely supported vectors of the weighted sequence space as dicts: the
test oracle for the array orbit vectors of ``walkrep.model`` and for the
shift-norm certificates of ``walkrep.space``, and the one-element weight
reads those oracles use.

Vectors are finitely supported real functions on the group, normed by
``||v||^2 = sum_g v(g)^2 w(g)`` against a stored WeightTable.  Coefficients
at elements outside the stored weight support contribute through the tail
allowance (their true weight mass is at most ``tail_bound``) and the norm is
flagged as an upper estimate in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from walkrep import groups
from walkrep.groups import GroupSpec
from walkrep.measures import WeightTable


def partial_weight(w: WeightTable, g, depth: int) -> float:
    """The weight truncated at ``depth`` at one element, read as a Python float."""
    return float(w.read(w.cells([g]), depth)[0])


def weight(w: WeightTable, g) -> float:
    """The stored weight w(g): zero off the stored support."""
    return partial_weight(w, g, w.params.n_max)


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
        wg = weight(w, g)
        if wg == 0.0:
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
