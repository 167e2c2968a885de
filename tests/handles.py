"""Single points as one-row point batches, for the per-point oracles."""

from walkrep import dynamics


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
