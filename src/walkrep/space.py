"""Norm-bound certificates for the translation operators of the weighted
sequence space l2(G, w), ``||v||^2 = sum_g v(g)^2 w(g)``.

Both certificates scan single atoms: a translation permutes the basis
delta_h and the norm is diagonal in it (see ``operator_norm_certificate``).
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


def subgroup_norm_certificate(
    w_amb: WeightTable,
    emb: groups.Embedding,
    g0,
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
    img = emb.map(g0)
    length = groups.word_length(amb, img)
    m_g0 = measures.translation_bound(w_amb, length)
    w_sub = measures.build_weight(sub, SECOND_LAYER, rho=rho_g)
    # interior window: one base-window radius in from the support edge
    base_radius = max(groups.word_length(sub, h) for h in rho_g)
    interior = base_radius * (SECOND_LAYER.n_max - 1)
    interior = max(interior - length, 1)
    ball, cells = w_sub.ball(interior)
    den = w_sub.read(cells)
    num = w_sub.read(measures.translated_cells(w_sub, ball, cells, groups.inverse(sub, g0)))
    pool = (den > 0.0) & (num > 0.0)
    atom_max = float(np.sqrt(num[pool] / den[pool]).max(initial=0.0))
    if not pool.any():
        raise DomainError("empty interior domain for subgroup certificate")
    return {
        "g0": groups.element_str(sub, g0),
        "ambient_image": groups.element_str(amb, img),
        "bound": m_g0,
        "observed": atom_max,
        "domain": f"subgroup ball({interior})",
        "second_layer": {"q": SECOND_LAYER.q, "n_max": SECOND_LAYER.n_max},
        "pass": bool(atom_max <= m_g0 + PASS_SLACK),
    }
