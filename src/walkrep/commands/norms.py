"""``norms``: the shift-norm certificates of both groups' generators, and
the restricted-weight pipeline from the integers into a free group."""

from __future__ import annotations

from .. import groups, measures, space
from ..config import ExperimentConfig
from ..errors import ConfigError
from . import _record, _weight_tables


def cmd_norms(cfg: ExperimentConfig) -> tuple[list, dict]:
    for key in ("weights", "second_weights"):
        if getattr(cfg, key).n_max < 2:  # the certificate's domain B(n_max - 1) needs a shifted atom
            raise ConfigError(f"{key}.n_max must be >= 2 for a shift-norm certificate on B(n_max - 1)")
    # the restricted pipeline certifies translations by a^2 in the free group
    restricted = cfg.group.kind == "integers" and cfg.second_group.kind == "free"
    records = []
    tables = _weight_tables(cfg, weights=1, second_weights=2 if restricted else 1)
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
    if restricted:
        w2, a = tables[1], (1,)
        nrho = measures.restricted_ratio_certificate(w2, a, 1)
        records.append(_record("restricted_ratio_b1", nrho, bound=nrho["bound"]))
        for rep in space.subgroup_norm_certificate(w2, a, (0, 1, 2)):
            records.append(
                _record(
                    f"restricted_shift_g{rep['g0']}",
                    rep,
                    bound=rep["bound"],
                    observed=rep["observed"],
                )
            )
    return records, {}
