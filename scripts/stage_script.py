#!/usr/bin/env python3
"""Build a staged model and dump the stage budgets as a table.

Shows how fast the eta cascade shrinks the tower bases: marker lengths grow
roughly linearly in the stage index while the base measures collapse
geometrically.
"""

import argparse

from walkrep import dynamics, groups, measures, model
from walkrep.config import ExperimentConfig, SampleConfig, WeightConfig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--stages", type=int, default=4)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--check-samples", type=int, default=1000)
    args = ap.parse_args()

    spec = groups.GroupSpec("integers")
    w = measures.build_weight(spec, WeightConfig(q=0.5, n_max=40))
    sys_b = dynamics.bernoulli_system(spec, seed=args.seed)
    cfg = ExperimentConfig(
        stages=args.stages, seed=args.seed, samples=SampleConfig(check_samples=args.check_samples)
    )
    mdl = model.build_model(sys_b, w, cfg)
    model.run_stage_checks(mdl, cfg)
    print(f"{'n':>2} {'radius':>7} {'N':>3} {'marker':>7} {'mu(E)':>10} "
          f"{'eta':>10} {'s':>10} {'beta':>10} {'eps_n':>10} {'delta_n':>10}")
    for st, hs in zip(mdl.stages, mdl.history):
        print(
            f"{hs.n:>2} {hs.ball.radius:>7.3f} {st.tower.n:>3} "
            f"{len(st.tower.pattern.bits):>7} {st.tower.mu_pattern:>10.3e} "
            f"{hs.eta:>10.3e} {st.split.offset:>10.3e} {hs.beta:>10.3e} "
            f"{hs.eps[hs.n]:>10.3e} {hs.delta[hs.n]:>10.3e}"
        )
    final = mdl.history[-1]
    print("\nchecks:", {k: v["pass"] for k, v in final.checks.items()})


if __name__ == "__main__":
    main()
