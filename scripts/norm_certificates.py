#!/usr/bin/env python3
"""Print shift-norm certificates for the stock groups at a few truncation depths.

Usage: ``python scripts/norm_certificates.py`` (no options).  Shows how close
the exact shift norm on the truncated domain, the single-atom supremum, gets
to the sqrt((2d+1) C) ceiling as the truncation depth grows.
"""

from walkrep import groups, measures, space


def main():
    cases = [
        (groups.GroupSpec("integers"), [10, 20, 40]),
        (groups.GroupSpec("lattice", 2), [6, 10, 14]),
        (groups.GroupSpec("free", 2), [4, 7, 10]),
    ]
    for spec, depths in cases:
        for n_max in depths:
            w = measures.build_weight(spec, measures.WeightParams(q=0.5, n_max=n_max))
            a = groups.generators(spec)[0]
            rep = space.operator_norm_certificate(spec, w, a)
            gap = rep["bound"] - rep["observed"]
            print(
                f"{spec.kind:9s} d={spec.d} n_max={n_max:3d}  "
                f"bound={rep['bound']:.5f}  observed={rep['observed']:.5f}  "
                f"gap={gap:.2e}  [{'ok' if rep['pass'] else 'VIOLATION'}]"
            )


if __name__ == "__main__":
    main()
