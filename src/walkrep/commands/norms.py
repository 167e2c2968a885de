"""``norms``: the shift-norm certificates of both groups' generators, and
the restricted-weight pipeline from the integers into a free group."""

from __future__ import annotations

from .. import groups, measures, space
from ..config import ExperimentConfig
from ..errors import ConfigError
from . import _check_boxes, _finish, _out_dir, _record, _start, _weight_tables


def cmd_norms(cfg: ExperimentConfig, out_base: str) -> int:
    for key in ("weights", "second_weights"):
        if getattr(cfg, key).n_max < 2:  # the certificate's domain B(n_max - 1) needs a shifted atom
            raise ConfigError(f"{key}.n_max must be >= 2 for a shift-norm certificate on B(n_max - 1)")
    _check_boxes(cfg, "weights", "second_weights")
    start = _start()
    out = _out_dir(out_base, "norms")
    records = []
    tables = _weight_tables(cfg)
    for label, w in zip(("group", "second_group"), tables):
        for a in groups.generators(w.spec):
            rep = space.operator_norm_certificate(w, a)
            records.append(
                _record(
                    f"{label}_shift_{groups.element_str(w.spec, a)}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    # restricted-weight pipeline: integers into the second group via a^n
    w1, w2 = tables
    if w1.spec.kind == "integers" and w2.spec.kind == "free":
        emb = groups.subgroup_embed(w1.spec, w2.spec, [(1,)])
        nrho = measures.restricted_ratio_certificate(w2, emb, 1)
        records.append(_record("restricted_ratio_b1", nrho, bound=nrho["bound"]))
        for g0 in (0, 1, 2):
            rep = space.subgroup_norm_certificate(w2, emb, g0)
            records.append(
                _record(
                    f"restricted_shift_g{g0}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    return _finish(out, "norms", cfg, records, start)
