"""Rows of a point batch as single points, for the per-point oracles."""

from walkrep import dynamics


def handles(batch: dynamics.PointBatch) -> list:
    """The ``PointHandle`` of every row of ``batch``, in row order."""
    return [
        dynamics.PointHandle(batch.system, dynamics.BitSource(draw, batch.stream, batch.forced), batch.offset)
        for draw in batch.draws.tolist()
    ]
