"""Norm-bound certificates for the translations of l2(G, w), ``||v||^2 =
sum_g v(g)^2 w(g)``, and of the restricted-weight space of a copy of Z.

Both scan single atoms: a translation permutes the basis delta_h and the
norm is diagonal in it (see ``operator_norm_certificate``).
"""

from __future__ import annotations

import math

import numpy as np

from . import groups, measures
from .config import WeightConfig
from .errors import DomainError
from .measures import WeightTable

PASS_SLACK = 1e-9
# The weight built on the subgroup from the restricted step law
SECOND_LAYER = WeightConfig(0.5, 4)


def operator_norm_certificate(w: WeightTable, a) -> dict:
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
    spec = w.spec
    if a not in groups.generators(spec):
        raise DomainError("certificate expects a symmetric generator")
    bound = math.sqrt((2 * spec.d + 1) * w.params.ratio_bound)
    n_max = w.params.n_max
    ball, cells = w.ball(n_max - 1)
    moved = measures.translated_cells(w, ball, cells, groups.inverse(spec, a))
    den = w.read(cells)
    num = w.read(moved, n_max - 1)
    ratios = np.zeros(len(ball))
    stored = den > 0.0
    ratios[stored] = np.sqrt(num[stored] / den[stored])
    k = int(ratios.argmax())  # the first atom of the largest ratio, in ball order
    atom_max = float(ratios[k])
    if atom_max == 0.0:
        raise DomainError(f"ball({n_max - 1}) holds no atom with a nonzero shifted weight")
    return {
        "group": spec.to_dict(),
        "a": groups.element_str(spec, a),
        "bound": bound,
        "observed": atom_max,
        "single_atom_argmax": groups.element_str(spec, ball[k]),
        "domain": f"support in ball({n_max - 1}); shifted norm at depth {n_max - 1}",
        "pass": bool(atom_max <= bound + PASS_SLACK),
    }


def subgroup_norm_certificate(w_amb: WeightTable, x, g0s) -> list:
    """Certify the translation-operator bound on the restricted-weight space
    of the copy n -> x^n of the integers: one record per g0 of ``g0s``.

    The restricted, renormalized measure is pulled back once, and becomes
    the step law of one second weight w_G on the integers for every g0; the
    bound there is M_{g0}, the ambient translation bound of x^g0.  The
    domain is the vectors supported on the atoms h in the interior of the
    second-layer window whose shift h - g0 also carries stored weight, so
    both norms read the stored table and no tail allowance applies.  S_{g0}
    permutes the basis and w_G is diagonal in it, so ||S_{g0} v||^2 /
    ||v||^2 is the average of the single-atom ratios w_G(h - g0) / w_G(h)
    weighted by v(h)^2 w_G(h): the operator norm on the domain is exactly
    the largest single-atom ratio, which ``observed`` reports.
    """
    rho_g = measures.restrict_renormalize(w_amb, x)  # checks x
    w_sub = measures.build_weight(measures.INTEGERS, SECOND_LAYER, rho=rho_g)
    base_radius = max(abs(n) for n in rho_g)
    records = []
    for g0 in g0s:
        groups.check_element(measures.INTEGERS, g0)
        img = groups.power(w_amb.spec, x, g0)
        length = groups.word_length(w_amb.spec, img)
        m_g0 = measures.translation_bound(w_amb, length)
        # interior window: one base-window radius in from the support edge
        interior = max(base_radius * (SECOND_LAYER.n_max - 1) - length, 1)
        ball, cells = w_sub.ball(interior)
        den = w_sub.read(cells)
        num = w_sub.read(measures.translated_cells(w_sub, ball, cells, -g0))
        pool = (den > 0.0) & (num > 0.0)
        atom_max = float(np.sqrt(num[pool] / den[pool]).max(initial=0.0))
        if not pool.any():
            raise DomainError("empty interior domain for subgroup certificate")
        records.append({
            "g0": str(g0),
            "ambient_image": groups.element_str(w_amb.spec, img),
            "bound": m_g0,
            "observed": atom_max,
            "domain": f"subgroup ball({interior})",
            "second_layer": {"q": SECOND_LAYER.q, "n_max": SECOND_LAYER.n_max},
            "pass": bool(atom_max <= m_g0 + PASS_SLACK),
        })
    return records
