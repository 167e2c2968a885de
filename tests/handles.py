"""Single points as one-row point batches, for the per-point oracles, and
the compare-all oracle of ``TowerSpec.located``."""

import numpy as np

from walkrep import dynamics, groups


def point(sys: dynamics.DynamicalSystem, draw: int) -> dynamics.PointBatch:
    """The ``draw``-th sample of ``sys`` as a one-row batch."""
    return dynamics.sample_points(sys, [draw])


def handles(batch: dynamics.PointBatch) -> list:
    """Every row of ``batch`` as the one-row batch ``batch[[i]]``, in row order."""
    return [batch[[i]] for i in range(len(batch))]


def read(x: dynamics.PointBatch, g) -> int:
    """The coordinate at ``g`` of the one-row Bernoulli batch ``x``: one
    whole ``read_cells`` call per cell."""
    return int(dynamics.read_cells(x, [g])[0, 0])


def located_by_translates(tower: dynamics.TowerSpec, points: dynamics.PointBatch) -> np.ndarray:
    """The oracle of ``TowerSpec.located``: per point and g in B_n
    (``groups.ball`` order), the marker compared at every cell p g^-1 of
    its translate, read from the distinct cells of all translates in one
    ``read_cells`` call."""
    spec = tower.spec
    ball = groups.ball(spec, tower.n)
    pattern = groups.coords(spec, [p for p, _ in tower.pattern.bits])
    cells = np.concatenate([groups.translate(spec, pattern, groups.inverse(spec, g)) for g in ball])
    window, cols = np.unique(cells, axis=0, return_inverse=True)
    bits = dynamics.read_cells(points, window)
    return (bits[:, cols.reshape(len(ball), -1)] == [b for _, b in tower.pattern.bits]).all(axis=2)


def contains(cyl: dynamics.CylinderSet, x: dynamics.PointBatch) -> bool:
    """Whether the one-row batch ``x`` meets every constraint of ``cyl``,
    read cell by cell."""
    return all(read(x, g) == b for g, b in cyl.bits)


def position(x: dynamics.PointBatch) -> tuple:
    """The torus position of the one-row rotation batch ``x``, axis by axis:
    ``(u + n * a) % 1.0`` for the draw's coordinate u, the offset's
    coordinate n and the frequency a."""
    alpha = x.system.alpha
    out = []
    for axis, a in enumerate(alpha):
        u, n = x.torus(axis)
        out.append((float(u[0]) + n * a) % 1.0)
    return tuple(out)
