"""``feldman``: the doubling shift on blocks of l2, intertwined with a
circle rotation."""

from __future__ import annotations

import math

import numpy as np

from .. import pcg64
from ..config import SQRT2_MINUS_1, ExperimentConfig
from . import _record


def doubling_shift_baseline(steps: int = 30, n_points: int = 1000, seed: int = 0) -> dict:
    """The doubling shift (T u)_k = 2 u_{k+1} on blocks of l2, intertwined
    with the circle rotation by ``SQRT2_MINUS_1`` through the planar
    embedding z -> (cos, sin).

    Checks the conjugacy identity per coordinate over sampled points and the
    geometric norm identity ||(2^-k phi0(f^k z))_k||^2 = (1 - 4^-steps)/3.
    """
    alpha = SQRT2_MINUS_1
    zs = pcg64.random(seed, n_points)
    k = np.arange(1, steps + 1)

    def embed(z: np.ndarray) -> np.ndarray:
        """Per point, the blocks 2^-k phi0((z + k alpha) mod 1) for k = 1..steps,
        with phi0(z) = (cos 2 pi z, sin 2 pi z), as points x steps x 2."""
        t = 2.0 * math.pi * ((z[:, None] + k * alpha) % 1.0)
        return np.stack((np.cos(t), np.sin(t)), axis=-1) / (2.0**k)[:, None]

    expected_norm2 = (1.0 - 4.0**-steps) / 3.0
    u = embed(zs)
    fu = embed((zs + alpha) % 1.0)
    # (T u)_k = 2 u_{k+1} must equal phi(f z)_k for k = 1..steps-1
    worst = float(np.abs(2.0 * u[:, 1:] - fu[:, :-1]).max(initial=0.0))
    # each point's squares added left to right in coordinate order, as a scalar
    # sum adds them
    norm2 = np.cumsum((u * u).reshape(n_points, 2 * steps), axis=1)[:, -1:]
    worst_norm = float(np.abs(norm2 - expected_norm2).max(initial=0.0))
    return {
        "steps": steps,
        "points": n_points,
        "alpha": alpha,
        "max_conjugacy_error": worst,
        "max_norm_identity_error": worst_norm,
        "tail_bound": 2.0**-steps,
        "pass": bool(worst < 1e-12 and worst_norm < 1e-12),
    }


def cmd_feldman(cfg: ExperimentConfig) -> tuple[list, dict]:
    rep = doubling_shift_baseline(steps=30, n_points=1000, seed=cfg.seed)
    ok = rep["max_conjugacy_error"] < cfg.tolerances.conjugacy_abs and rep["pass"]
    return [_record("conjugacy_identity", {**rep, "pass": ok})], {}
