"""Confidence bounds used by the Monte-Carlo harnesses, and the one place
a sampled check is decided: ``certify``.

``clopper_pearson`` is the exact binomial interval (Clopper & Pearson,
1934), computed with ``math`` alone.  Its bounds are the beta quantiles
``lo = B^-1(alpha/2; k, n-k+1)`` and ``hi = B^-1(1-alpha/2; k+1, n-k)``.
For integer ``a, b`` the regularized incomplete beta ``I_x(a, b)`` is the
binomial tail ``P(Bin(a+b-1, x) >= a)``.  Its front factor is a binomial
pmf in Loader's saddle-point form (``stirlerr`` + ``bd0``; C. Loader, *Fast
and Accurate Computation of Binomial Probabilities*, 2000), which avoids the
``n * eps`` cancellation of ``lgamma`` differences.  The pmf multiplies the
incomplete-beta continued fraction, evaluated by Lentz's method on its
convergent side.  Each quantile is found by Newton steps on the log-odds of
``I`` in ``logit(x)``, bracketed by bisection.  On random cases with ``n``
up to 10^6 the bounds were within 3e-15 relative of a 40-digit reference;
the tests check them against ``scipy.special`` to 1e-12.  Both iterations
are capped and raise ``ConvergenceError`` at the cap.
"""

from __future__ import annotations

import math
import operator

from .errors import ConvergenceError

Z95 = 1.959963984540054
# the sides of ``certify``: which end a record reports, and where it must lie
UPPER, LOWER, COVERS = "upper", "lower", "covers"

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15 (Loader's table; 0 is unused)
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_LOG_2PI = math.log(2.0 * math.pi)
CF_MAX_TERMS = 20_000
NEWTON_MAX_STEPS = 100
MEAN_BATCHES = 20
_CF_EPS = 2.5e-16  # a Lentz factor within rounding of 1 ends the fraction
_TINY = 1e-300


def _stirlerr(n: int) -> float:
    """Loader's table up to 15, then five terms of the Stirling series."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(x: int, np_: float) -> float:
    """``x log(x / np) + np - x`` without cancellation when ``x`` is near ``np``."""
    if abs(x - np_) < 0.1 * (x + np_):
        v = (x - np_) / (x + np_)
        s = (x - np_) * v
        ej = 2.0 * x * v
        v2 = v * v
        for j in range(1, 40):  # |v| < 0.1: each term is at most 1e-2 of the last
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                break
            s = s1
        return s
    return x * math.log(x / np_) + np_ - x


def _log(p: float, q: float) -> float:
    """``log p`` given ``q = 1 - p``, without rounding ``p`` near 1."""
    return math.log(p) if p <= 0.5 else math.log1p(-q)


def _log_binom_pmf(k: int, n: int, p: float, q: float) -> float:
    """log P(Bin(n, p) = k) in Loader's saddle-point form; ``q = 1 - p``."""
    if k == 0:
        return n * _log(q, p)
    if k == n:
        return n * _log(p, q)
    lc = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        - _bd0(k, n * p) - _bd0(n - k, n * q)
    )
    return lc - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n))


def _beta_cf(a: int, b: int, x: float, y: float) -> float:
    """The continued fraction of ``I_x(a, b)``, ``y = 1 - x``.

    Lentz's method on the even part of the classical fraction
    ``1/(1+ d1/(1+ d2/(1+ ...)))``: partial denominators ``1 + u_m x`` with
    rational ``u_m``, partial numerators ``-d_{2m-1} d_{2m} > 0``.  For
    ``x > 1/2`` a denominator is formed as ``(1 + u_m) - u_m y``, with
    ``1 + u_m`` from exact integers, so it keeps full precision when ``y``
    is small.  With integer ``b`` the fraction ends at ``m = b``.
    """
    if x <= 0.5:
        f = 1.0 - (a + b) / (a + 1) * x
    else:
        f = (1 - b) / (a + 1) + (a + b) / (a + 1) * y
    f = f if abs(f) > _TINY else _TINY
    c, d = f, 0.0
    for m in range(1, min(b, CF_MAX_TERMS) + 1):
        s = a + 2 * m
        den = (s - 1) * s * (s + 1)
        u = m * (b - m) * (s + 1) - (a + m) * (a + b + m) * (s - 1)  # u_m * den
        part_den = 1.0 + u / den * x if x <= 0.5 else (den + u) / den - u / den * y
        part_num = (a + m - 1) * (a + b + m - 1) * m * (b - m) / ((s - 2) * (s - 1) ** 2 * s) * (x * x)
        d = part_den + part_num * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = part_den + part_num / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_EPS or m == b:
            return 1.0 / f
    raise ConvergenceError(f"continued fraction for I_x({a}, {b}) took over {CF_MAX_TERMS} terms")


def _log_odds(a: int, b: int, x: float, y: float) -> tuple[float, float]:
    """``log(I / (1 - I))`` for ``I = I_x(a, b)`` and its derivative in ``logit(x)``.

    ``y = 1 - x``.  Of ``I`` and ``1 - I`` the continued fraction gives the
    one on its convergent side directly, in logs, so neither underflows.
    """
    n = a + b - 1
    if x * (a + b + 2) < a + 1:
        cf = _beta_cf(a, b, x, y)
        log_small = _log_binom_pmf(a, n, x, y) + _log(y, x) + math.log(cf)
        sign, scale = 1.0, a
    else:
        cf = _beta_cf(b, a, y, x)
        log_small = _log_binom_pmf(b, n, y, x) + _log(x, y) + math.log(cf)
        sign, scale = -1.0, b
    small = math.exp(log_small)
    return sign * (log_small - math.log1p(-small)), scale / (cf * (1.0 - small))


def _expit(t: float) -> tuple[float, float]:
    """``(x, 1 - x)`` for ``x = 1 / (1 + e^-t)``, each to full relative precision."""
    e = math.exp(-abs(t))
    small = e / (1.0 + e)
    return (1.0 - small, small) if t >= 0 else (small, 1.0 - small)


def _beta_quantile(a: int, b: int, target: float, start: float) -> float:
    """The ``x`` with ``logit(I_x(a, b)) = target``, starting from ``x = start``.

    ``logit I`` increases in ``t = logit(x)``, with slope about ``a`` and
    ``b`` in the two tails, so Newton steps in ``t`` converge from any start.
    A step that leaves the bracket of signs seen so far is replaced by
    bisection.
    """
    t = math.log(start / (1.0 - start))
    t_lo, t_hi = -math.inf, math.inf
    for _ in range(NEWTON_MAX_STEPS):
        r, slope = _log_odds(a, b, *_expit(t))
        r -= target
        if r > 0.0:
            t_hi = t
        else:
            t_lo = t
        t_new = t - r / slope
        if abs(t_new - t) <= 1e-9 * max(1.0, abs(t)):
            return _expit(t_new)[0]
        if not t_lo < t_new < t_hi:  # a real step overshoots only a side already seen
            t_new = 0.5 * (t_lo + t_hi)
            if t_new in (t_lo, t_hi):
                return _expit(t_new)[0]
        t = t_new
    raise ConvergenceError(f"beta quantile for ({a}, {b}) took over {NEWTON_MAX_STEPS} steps")


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact (conservative) binomial confidence interval for ``k`` of ``n``."""
    k, n = operator.index(k), operator.index(n)  # Python ints: the fraction's products pass 2^63
    if not (n >= 1 and 0 <= k <= n and 0.0 < alpha < 1.0):
        raise ValueError(f"need n >= 1, 0 <= k <= n and 0 < alpha < 1, got k={k}, n={n}, alpha={alpha}")
    target = math.log(alpha / (2.0 - alpha))  # logit(alpha / 2)
    start = (k + 0.5) / (n + 1)
    lo = 0.0 if k == 0 else _beta_quantile(k, n - k + 1, target, start)
    hi = 1.0 if k == n else _beta_quantile(k + 1, n - k, -target, start)
    return (lo, hi)


def batch_means_se(series) -> float:
    """Standard error of the mean of a correlated series via batch means:
    ``MEAN_BATCHES`` batches, or fewer of two values each on a short series."""
    import numpy as np  # here, so a process that only certifies loads no numpy

    arr = np.asarray(series, dtype=float)
    count = MEAN_BATCHES if len(arr) >= 2 * MEAN_BATCHES else max(2, len(arr) // 2)
    usable = (len(arr) // count) * count
    means = arr[:usable].reshape(count, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(count))


def certify(
    side: str, limit: float, *, counts: tuple | None = None, normal: tuple | None = None, scale: float = 1.0
) -> tuple[float, bool]:
    """The confidence end a sampled record reports, and its verdict.

    The method is Clopper-Pearson on ``counts = (k, n)``, the end times
    ``scale``; or the ``Z95`` normal bound on ``normal = (mean, se)``,
    ``mean + Z95 * se`` above and ``max(0, mean - Z95 * se)`` below.  Every
    verdict is strict:

    * ``UPPER``: the upper end lies below the budget ``limit``; a budget of
      0 or less needs k = 0;
    * ``LOWER``: the lower end lies above ``limit``;
    * ``COVERS``: the upper end lies above ``limit``, an observed deviation
      (``mean`` is then the null's allowance).
    """
    if side not in (UPPER, LOWER, COVERS):
        raise ValueError(f"side must be {UPPER!r}, {LOWER!r} or {COVERS!r}, got {side!r}")
    if counts is not None:
        lo, hi = clopper_pearson(*counts)
        end = scale * (lo if side == LOWER else hi)
    else:
        mean, se = normal
        end = max(0.0, mean - Z95 * se) if side == LOWER else mean + Z95 * se
    if side != UPPER:
        return end, bool(end > limit)
    return end, bool(counts[0] == 0 if counts is not None and limit <= 0.0 else end < limit)
