"""``continuous``: the overlap density and domination constant on the real
line, and the Haar identity, lower bound and domination checks on the
Z/2-chain."""

from __future__ import annotations

from .. import continuous, pcg64
from ..config import ExperimentConfig
from . import _record


def cmd_continuous(cfg: ExperimentConfig) -> tuple[list, dict]:
    records = []
    # real line: overlap density quadrature sweep and the domination grid
    L = continuous.IntervalMeasure(continuous.L_HALF)
    worst = max(
        abs(continuous.overlap_density_quadrature(L, t) - continuous.overlap_density(L, t))
        for t in continuous.linspace(-5.0, 5.0, 101)
    )
    records.append(
        _record(
            "overlap_quadrature",
            {"pass": worst < cfg.tolerances.quadrature_abs},
            max_abs_err=worst,
        )
    )
    dom = continuous.domination_constant_real()
    records.append(_record("real_domination", dom, u=dom["u"], D=dom["D"]))
    # locally finite chain
    chain = continuous.LocallyFiniteChain(cfg.lf_chain_n)
    ident = continuous.haar_convolution_identity(chain)
    records.append(_record("haar_convolution_identity", ident))
    lower = continuous.lower_bound_chain_check(chain)
    records.append(_record("chain_lower_bound", lower))
    pool = chain.subgroup(chain.n_max)
    picks = [pool[i] for i in pcg64.sample(cfg.seed, len(pool), cfg.lf_sampled_g0)]
    rows = []
    all_ok = True
    all_ok_corr = True
    for g0 in picks:
        rep = continuous.domination_check_locally_finite(chain, g0)
        rows.append(
            [
                rep["g0"],
                rep["m0"],
                repr(rep["C_simple"]),
                repr(rep["C_corrected"]),
                repr(rep["worst_ratio"]),
                rep["violations"],
                rep["violations_corrected"],
            ]
        )
        all_ok = all_ok and rep["pass"]
        all_ok_corr = all_ok_corr and rep["pass_corrected"]
    records.append(
        _record(
            "lf_domination_simple_constant",
            {"pass": all_ok},
            note="simple closed-form constant; see corrected record",
        )
    )
    records.append(_record("lf_domination_corrected_constant", {"pass": all_ok_corr}))
    header = ["g0", "m0", "C_simple", "C_corrected", "worst_ratio", "violations", "violations_corrected"]
    return records, {"lf_domination.csv": (header, rows)}
