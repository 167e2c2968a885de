"""Confidence-interval helpers used by the Monte-Carlo harnesses."""

from __future__ import annotations

import math

import numpy as np

Z95 = 1.959963984540054


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need n > 0")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact (conservative) binomial confidence interval."""
    from scipy.special import betaincinv

    if n <= 0:
        raise ValueError("need n > 0")
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return (lo, hi)


def mean_interval(values, z: float = Z95) -> tuple[float, float, float]:
    """(mean, lo, hi) by the normal approximation."""
    arr = np.asarray(values, dtype=float)
    m = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return (m, m - z * se, m + z * se)


def batch_means_se(series, n_batches: int = 20) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    arr = np.asarray(series, dtype=float)
    if len(arr) < 2 * n_batches:
        n_batches = max(2, len(arr) // 2)
    usable = (len(arr) // n_batches) * n_batches
    batches = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))
