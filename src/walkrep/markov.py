"""The random-walk averaging operator and its convergence harness.

``A f(x) = sum_g f(T_g x) rho(g)`` iterates by replacing rho with its
convolution powers.  For the concrete ergodic systems here the invariant
projection of an observable is its known mean, so the harness compares the
sampled sup/L2 deviations from that mean against closed forms where they
exist: the rotation eigenvalue (1 + 2cos(2 pi alpha))/3 per axis, and the
exact independence variance sum_g rho^{*n}(g)^2 / 4 = rho^{*2n}(e)/4 for a
fair-coin cylinder bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import dynamics, groups, measures
from .dynamics import DynamicalSystem
from .errors import DomainError


class ObservableSpec(NamedTuple):
    """A bounded observable: a cylinder indicator or a coordinate cosine."""

    kind: str  # "indicator" | "cos"
    payload: object = None  # CylinderSet for indicators; axis index for cos
    mean: float = 0.0

    def table(self, points, atoms: list) -> np.ndarray:
        """f(T_g x) for each row x of the batch ``points`` and g in ``atoms``
        (columns).

        An indicator reads the cells c g of every constraint c for all points
        in one ``dynamics.read_cells`` call.  The cosine of T_g x depends only
        on the axis coordinate of g, so it is evaluated once per point and
        distinct coordinate n, at ``(u + n * alpha) % 1.0`` with u from
        ``PointBatch.torus``.
        """
        sys = points.system
        spec = sys.group
        if self.kind == "indicator":
            wanted = np.array([[b] for _, b in self.payload.bits], dtype=np.uint8)
            cells = [groups.multiply(spec, c, g) for c, _ in self.payload.bits for g in atoms]
            bits = dynamics.read_cells(points, cells).reshape(len(points), len(wanted), len(atoms))
            return (bits == wanted).all(axis=1).astype(np.float64)
        if self.kind == "cos":
            axis = self.payload
            distinct, where = np.unique(groups.coords(spec, atoms)[:, axis], return_inverse=True)
            u, shift = points.torus(axis)
            turns = 2.0 * math.pi * ((u[:, None] + (distinct + shift) * sys.alpha[axis]) % 1.0)
            return np.array(list(map(math.cos, turns.ravel()))).reshape(turns.shape)[:, where]
        raise DomainError(f"unknown observable kind {self.kind!r}")


def indicator_observable(cyl: dynamics.CylinderSet) -> ObservableSpec:
    return ObservableSpec("indicator", cyl, mean=cyl.measure())


def cos_observable(axis: int = 0) -> ObservableSpec:
    return ObservableSpec("cos", axis, mean=0.0)


def rotation_eigenvalue(sys: DynamicalSystem, axis: int = 0) -> float:
    """The averaging eigenvalue of cos(2 pi x_axis) under the lazy step.

    Of the 2d+1 atoms, the identity and the 2(d-1) off-axis generators fix
    the observable and the two on-axis generators contribute 2 cos(2 pi a).
    """
    if sys.kind != "rotation":
        raise DomainError("eigenvalue applies to rotation systems")
    d = sys.group.d
    return (
        2.0 * d - 1.0 + 2.0 * math.cos(2.0 * math.pi * sys.alpha[axis])
    ) / (2.0 * d + 1.0)


def bernoulli_indicator_l2(walk: measures.LazyWalk, n: int) -> float:
    """Exact L2 deviation of a single-bit indicator: sqrt(rho^{*2n}(e)) / 2."""
    if n >= len(walk.counts):
        raise DomainError(f"need walk counts up to depth {n}")
    return math.sqrt(walk.return_probability(n)) / 2.0


def convergence_report(
    sys: DynamicalSystem,
    f: ObservableSpec,
    n_max: int,
    samples: int,
    seed: int = 0,
) -> dict:
    """Per-n sampled deviations |A^n f - mean| with closed-form cross-checks.

    Each f(T_g x) is evaluated once, into a points x atoms table over the
    union of the supports, and every (A^n f)(x) = sum_g rho^{*n}(g) f(T_g x)
    is summed from it per point in canonical support order, so the averages
    are bit-equal to the per-point sums.  The trend check asks the L2
    deviations to be non-increasing within a Monte-Carlo envelope; a rate is
    never assumed.  The report records the strict-aperiodicity witness
    rho(e) > 0.
    """
    spec = sys.group
    walk = measures.lazy_walk(spec, n_max)
    probe = dynamics.probe_system(sys, "jrt", seed)
    points = dynamics.sample_points(probe, np.arange(samples))
    # f(T_g x) once per point and per atom of B_n_max, in canonical order
    atoms = sorted(groups.ball(spec, n_max), key=lambda g: groups.sort_key(spec, g))
    table = f.table(points, atoms)
    cells = walk.cells(atoms)
    sup_dev: list[float] = []
    l2_dev: list[float] = []
    se_l2: list[float] = []
    for n in range(n_max + 1):
        masses = walk.masses(n, cells)
        averages = np.zeros(samples)
        for j in np.flatnonzero(masses):
            averages += table[:, j] * masses[j]
        devs = averages - f.mean
        sup_dev.append(float(np.abs(devs).max()))
        second = devs * devs
        l2_dev.append(float(math.sqrt(second.mean())))
        se_l2.append(float(second.std(ddof=1) / math.sqrt(samples)))
    expected = None
    if sys.kind == "rotation" and f.kind == "cos":
        lam = rotation_eigenvalue(sys, f.payload)
        base = l2_dev[0]
        expected = [base * abs(lam) ** n for n in range(n_max + 1)]
    elif sys.kind == "bernoulli" and f.kind == "indicator" and len(f.payload.bits) == 1:
        # at n=0 the deviation of a fair bit from its mean is 1/2 exactly
        expected = [0.5] + [
            bernoulli_indicator_l2(walk, n) for n in range(1, n_max + 1)
        ]
    envelope = [se * 4 for se in se_l2]
    trend_ok = all(
        l2_dev[n] <= l2_dev[n - 1] + envelope[n] + envelope[n - 1]
        for n in range(1, n_max + 1)
    )
    return {
        "system": sys.to_dict(),
        "observable": f.kind,
        "n_max": n_max,
        "samples": samples,
        "seed": seed,
        "aperiodicity_witness": 1.0 / walk.steps,
        "sup_dev": sup_dev,
        "l2_dev": l2_dev,
        "l2_se": se_l2,
        "expected_l2": expected,
        "pass": bool(trend_ok),
    }
