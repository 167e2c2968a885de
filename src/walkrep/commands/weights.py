"""``weights``: both weight tables as CSV, their stored mass and the
translation ratios of every b in B_3."""

from __future__ import annotations

from .. import groups, measures
from ..config import ExperimentConfig
from ..errors import ConfigError
from . import _record, _weight_tables


def _weight_rows(w):
    """``(element_str(g), repr(w(g)))`` for every g of B_n_max in ``sort_key``
    order, including any whose weight underflows to 0.0.  On a free group
    the weight is radial, so the rows come one word-length level at a time,
    each word spelled from its prefix's string and one letter."""
    spec = w.spec
    if spec.kind != "free":
        ball, cells = w.sorted_ball(w.params.n_max)
        yield from zip([groups.element_str(spec, g) for g in ball], map(repr, w.read(cells).tolist()))
        return
    letters = {c: groups.element_str(spec, (c,)) for c in range(-spec.d, spec.d + 1) if c}
    level = [("", 0)]
    for k, weight in enumerate(map(repr, w.partials[-1].tolist())):
        if k:
            level = [(s + char, c) for s, last in level for c, char in letters.items() if c != -last]
        yield from ((s or "e", weight) for s, _ in level)


RATIO_RADIUS = 3  # ``weights`` checks the translation ratios of every b in B_3


def cmd_weights(cfg: ExperimentConfig) -> tuple[list, dict]:
    for key in ("weights", "second_weights"):
        if getattr(cfg, key).n_max <= RATIO_RADIUS:  # weight_ratio needs |b| <= n_max - 1
            raise ConfigError(f"{key}.n_max must be > {RATIO_RADIUS} for the ratios of b in B_{RATIO_RADIUS}")
    records, tables = [], {}
    both = _weight_tables(cfg, weights=RATIO_RADIUS, second_weights=RATIO_RADIUS)
    for label, w in zip(("group", "second_group"), both):
        tables[f"{label}_weights.csv"] = (["element", "weight"], _weight_rows(w))
        mass = w.stored_mass()
        records.append(
            _record(
                f"{label}_mass",
                {"pass": abs(mass + w.tail_bound - 1.0) < 1e-9},
                stored_mass=mass,
                tail_bound=w.tail_bound,
            )
        )
        ratio_rows = []
        all_ok = True
        worst = 0.0
        for b in groups.ball(w.spec, RATIO_RADIUS):
            if b == groups.identity(w.spec):
                continue
            rep = measures.weight_ratio(w, b)
            ratio_rows.append(
                [
                    rep["b"],
                    rep["word_length"],
                    repr(rep["bound"]),
                    repr(rep["observed_max"]),
                    repr(rep["observed_min"]),
                    rep["pass"],
                ]
            )
            worst = max(worst, rep["observed_max"] / rep["bound"])
            all_ok = all_ok and rep["pass"]
        tables[f"{label}_ratios.csv"] = (
            ["b", "word_length", "bound", "observed_max", "observed_min", "pass"],
            ratio_rows,
        )
        records.append(
            _record(
                f"{label}_translation_ratios",
                {"pass": all_ok},
                n_translations=len(ratio_rows),
                worst_fraction_of_bound=worst,
            )
        )
    return records, tables
