#!/usr/bin/env python3
"""Sweep the locally finite chain domination ratio by subgroup depth.

For each m0 this prints the worst observed ratio of (rho * delta_g0) to
(rho * rho) over K_n against the simple constant 1/p1 + [K_m0:K_1] and the
corrected constant that keeps the cumulative-weight factor.  The simple
constant fails from m0 = 3 on; the corrected one holds everywhere.
"""

import argparse

from walkrep import continuous


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=10)
    args = ap.parse_args()

    chain = continuous.LocallyFiniteChain(n_max=args.n_max)
    print(f"{'m0':>3} {'worst ratio':>14} {'C simple':>10} {'C corrected':>14} verdicts")
    for m0 in range(1, args.n_max + 1):
        g0 = (m0,)
        rep = continuous.domination_check_locally_finite(chain, g0)
        print(
            f"{m0:>3} {rep['worst_ratio']:>14.2f} {rep['C_simple']:>10.0f} "
            f"{rep['C_corrected']:>14.1f} "
            f"simple={'ok' if rep['pass'] else 'FAILS'} "
            f"corrected={'ok' if rep['pass_corrected'] else 'FAILS'}"
        )


if __name__ == "__main__":
    main()
