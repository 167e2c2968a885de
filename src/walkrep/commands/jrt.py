"""``jrt``: the decay of Markov averages on a rotation and on the
Bernoulli shift."""

from __future__ import annotations

import math
import os

from .. import dynamics, groups, markov
from ..config import ExperimentConfig
from ..errors import ConfigError
from . import _finish, _out_dir, _record, _start, _write_csv


JRT_DEPTH = 12  # the Bernoulli harness averages over B_12


def cmd_jrt(cfg: ExperimentConfig, out_base: str) -> int:
    spec = cfg.group.spec()
    size = groups.free_ball_size(spec.d, JRT_DEPTH) if spec.kind == "free" else 0
    if size > groups.BALL_CAP:  # the other kinds' balls grow polynomially
        raise ConfigError(f"jrt averages over B_{JRT_DEPTH}, whose {size} elements exceed the ball cap {groups.BALL_CAP}")
    start = _start()
    out = _out_dir(out_base, "jrt")
    records = []
    rows = []
    if spec.kind in ("integers", "lattice"):
        rot = dynamics.rotation_system(spec, cfg.seed, cfg.system.alpha or None)
        f_cos = markov.cos_observable(0)
        rep = markov.convergence_report(
            rot, f_cos, n_max=20, samples=min(cfg.samples.averaging_samples, 500), seed=cfg.seed
        )
        lam = abs(markov.rotation_eigenvalue(rot, 0))
        ratios = [
            rep["l2_dev"][n] / rep["l2_dev"][n - 1] for n in range(1, len(rep["l2_dev"]))
        ]
        ratio_ok = all(
            abs(r - lam) <= cfg.tolerances.decay_ratio_rel * lam for r in ratios
        )
        records.append(
            _record(
                "rotation_cos_decay",
                {"pass": rep["pass"] and ratio_ok},
                eigenvalue=lam,
                worst_ratio_err=max(abs(r - lam) / lam for r in ratios),
            )
        )
        for n, (s, l) in enumerate(zip(rep["sup_dev"], rep["l2_dev"])):
            rows.append(["rotation_cos", n, repr(s), repr(l), repr(rep["expected_l2"][n])])
    bern = dynamics.bernoulli_system(spec, cfg.seed)
    f_ind = markov.indicator_observable(
        dynamics.CylinderSet.from_dict(spec, {groups.identity(spec): 1})
    )
    repb = markov.convergence_report(
        bern, f_ind, n_max=JRT_DEPTH, samples=cfg.samples.averaging_samples, seed=cfg.seed
    )
    sigma_ok = True
    worst_sigma = 0.0
    for n in range(1, JRT_DEPTH + 1):
        est2 = repb["l2_dev"][n] ** 2
        exact2 = repb["expected_l2"][n] ** 2
        se = repb["l2_se"][n]
        # with a zero standard error only the exact value passes
        dev = abs(est2 - exact2) / se if se > 0.0 else (0.0 if est2 == exact2 else math.inf)
        worst_sigma = max(worst_sigma, dev)
        sigma_ok = sigma_ok and dev <= cfg.tolerances.decay_sigma
    records.append(
        _record(
            "bernoulli_indicator_variance",
            {"pass": repb["pass"] and sigma_ok},
            worst_dev_in_se=None if worst_sigma == math.inf else worst_sigma,
        )
    )
    for n, (s, l) in enumerate(zip(repb["sup_dev"], repb["l2_dev"])):
        rows.append(["bernoulli_bit", n, repr(s), repr(l), repr(repb["expected_l2"][n])])
    _write_csv(
        os.path.join(out, "deviations.csv"),
        ["observable", "n", "sup_dev", "l2_dev", "expected_l2"],
        rows,
    )
    return _finish(out, "jrt", cfg, records, start)
