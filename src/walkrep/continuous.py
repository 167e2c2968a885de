"""Closed-form continuous and locally finite cases.

Two desk-scale settings where every density is explicit:

* the real line, with the step law built from a symmetric compact interval
  (overlap densities, the domination constant, and the induced shift bound);
* the locally finite direct sum of Z/2, where the step law mixes normalized
  counting measures of the nested subgroups K_1 < K_2 < ... .
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import groups, measures
from .errors import DomainError
from .groups import GroupSpec
from .measures import SparseMeasure, WeightParams


@dataclass(frozen=True)
class IntervalMeasure:
    """Lebesgue measure restricted to the symmetric interval [-half, half]."""

    half: float

    def __post_init__(self):
        if self.half <= 0:
            raise DomainError("interval half-length must be positive")

    def indicator(self, x: float) -> float:
        return 1.0 if -self.half <= x <= self.half else 0.0

    @property
    def length(self) -> float:
        return 2.0 * self.half


def overlap_density(L: IntervalMeasure, t: float) -> float:
    """psi(t) = |L intersect (t - L)| = max(0, 2*half - |t|)."""
    return max(0.0, L.length - abs(t))


def overlap_density_quadrature(L: IntervalMeasure, t: float) -> float:
    """The same density by numeric integration of the indicator product."""
    from scipy import integrate

    lo, hi = -L.half - abs(t), L.half + abs(t)
    breaks = sorted(
        x for x in (-L.half, L.half, t - L.half, t + L.half) if lo < x < hi
    )
    val, _ = integrate.quad(
        lambda h: L.indicator(t - h) * L.indicator(h),
        lo,
        hi,
        points=breaks,
        limit=200,
    )
    return val


def domination_constant_real(
    k_half: float = 1.0,
    l_half: float = 2.0,
    grid_step: float = 1e-3,
    k_samples: tuple = (-1.0, 0.0, 1.0),
    ratio_bound_c: float = 2.0,
) -> dict:
    """u = min of the overlap density on the product window, D = 2/u.

    The pointwise check compares the density of rho * delta_k against
    D times the density of rho * rho on a grid over L (endpoints included),
    for sampled k in K; the induced shift bound sqrt(D*C) is reported.
    """
    if grid_step <= 0:
        raise DomainError("grid step must be positive")
    K = IntervalMeasure(k_half)
    L = IntervalMeasure(l_half)
    kl_half = k_half + l_half
    grid_u = np.arange(-kl_half, kl_half + grid_step / 2, grid_step)
    psi_vals = np.maximum(0.0, L.length - np.abs(grid_u))
    u = float(psi_vals.min())
    u_closed = max(0.0, L.length - kl_half)
    d_const = 2.0 / u
    # rho has density 1/|L| on L; rho*rho has density psi/|L|^2
    grid = np.arange(-l_half, l_half + grid_step / 2, grid_step)
    violations = 0
    worst = -math.inf
    for k in k_samples:
        if abs(k) > k_half:
            raise DomainError(f"sample {k} outside K")
        lhs = np.where(np.abs(grid - k) <= l_half, 1.0 / L.length, 0.0)
        rhs = d_const * np.maximum(0.0, L.length - np.abs(grid)) / L.length**2
        gap = lhs - rhs
        worst = max(worst, float(gap.max()))
        violations += int(np.sum(gap > 1e-12))
    return {
        "k_half": k_half,
        "l_half": l_half,
        "u": u,
        "u_closed_form": u_closed,
        "D": d_const,
        "shift_bound": math.sqrt(d_const * ratio_bound_c),
        "grid_step": grid_step,
        "domain": f"grid over L=[-{l_half},{l_half}]",
        "k_samples": list(k_samples),
        "violations": violations,
        "worst_gap": worst,
        "pass": violations == 0,
    }


Z2SUM = GroupSpec("z2sum", 0)


@dataclass(frozen=True)
class LocallyFiniteChain:
    """K_n = span of the first n coordinates of the direct sum of Z/2."""

    n_max: int = 10
    params: WeightParams = WeightParams(q=0.5, n_max=10)

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("chain needs n_max >= 1")
        if self.params.n_max != self.n_max:
            raise DomainError("weight depth must match the chain length")

    @property
    def spec(self) -> GroupSpec:
        return Z2SUM

    def subgroup(self, n: int) -> list:
        """All 2^n elements of K_n, canonically ordered."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"subgroup index {n} outside 1..{self.n_max}")
        out = []
        for r in range(n + 1):
            out.extend(itertools.combinations(range(1, n + 1), r))
        return sorted(out, key=lambda g: groups.sort_key(self.spec, g))

    def haar(self, n: int) -> SparseMeasure:
        """lambda_n, the normalized counting measure of K_n."""
        atoms = self.subgroup(n)
        mass = 1.0 / len(atoms)
        return SparseMeasure(self.spec, {g: mass for g in atoms}, symmetric=True)

    def first_containing(self, g) -> int:
        """m0 = the first n with g in K_n."""
        groups.check_element(self.spec, g)
        m0 = max(g) if g else 1
        if m0 > self.n_max:
            raise DomainError(f"{g} lies outside K_{self.n_max}")
        return m0


def locally_finite_rho(chain: LocallyFiniteChain) -> SparseMeasure:
    """rho = sum p_n lambda_n truncated at the chain end (tail q^n_max)."""
    lams = (chain.haar(n) for n in range(1, chain.n_max + 1))
    return SparseMeasure(chain.spec, measures.mixture(chain.params, lams), symmetric=True)


def haar_convolution_identity(chain: LocallyFiniteChain) -> dict:
    """Exhaustively verify lambda_i * lambda_j = lambda_{max(i,j)}."""
    worst = 0.0
    checked = 0
    for i in range(1, chain.n_max + 1):
        for j in range(i, chain.n_max + 1):
            conv = measures.convolve(chain.spec, chain.haar(i), chain.haar(j))
            lam = chain.haar(j)
            atoms = set(conv.masses) | set(lam.masses)
            for g in atoms:
                worst = max(worst, abs(conv.mass(g) - lam.mass(g)))
            checked += 1
    return {"pairs_checked": checked, "max_abs_error": worst, "pass": worst < 1e-12}


def chain_convolution(chain: LocallyFiniteChain) -> tuple:
    """(rho, rho*rho) for the chain, for sharing across many checks."""
    rho = locally_finite_rho(chain)
    return rho, measures.convolve(chain.spec, rho, rho)


def domination_check_locally_finite(
    chain: LocallyFiniteChain, g0, precomputed: tuple | None = None
) -> dict:
    """Pointwise check of rho * delta_{g0} <= C_{g0} (rho * rho) on K_n_max.

    ``C_{g0} = 1/p_1 + [K_{m0}:K_1]`` is the simple closed-form constant; the
    report also carries a corrected constant that keeps the subgroup-index
    factor (sum_{i<=m0} p_i) p_{m0} when comparing lambda_{m0} with rho*rho,
    which the exhaustive scan certifies in all cases.
    """
    spec = chain.spec
    m0 = chain.first_containing(g0)
    p = chain.params.p
    p1 = p(1)
    index = 2 ** (m0 - 1)  # [K_{m0} : K_1]
    c_simple = 1.0 / p1 + index
    head = sum(p(n) for n in range(1, m0))
    cum = sum(p(n) for n in range(1, m0 + 1))
    c_corrected = 1.0 / p1 + index * head / (cum * p(m0)) if m0 > 1 else 1.0 / p1
    rho, rho2 = precomputed if precomputed is not None else chain_convolution(chain)
    worst_ratio = 0.0
    worst_atom = None
    violations_simple = 0
    violations_corrected = 0
    for g in chain.subgroup(chain.n_max):
        lhs = rho.mass(groups.multiply(spec, g, g0))  # (rho*delta_{g0})(g) = rho(g g0^-1), g0 an involution
        rhs = rho2.mass(g)
        if lhs == 0.0:
            continue
        if rhs == 0.0:
            raise DomainError("rho*rho vanishes on the chain window")
        ratio = lhs / rhs
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_atom = g
        if lhs > c_simple * rhs * (1 + 1e-12):
            violations_simple += 1
        if lhs > c_corrected * rhs * (1 + 1e-12):
            violations_corrected += 1
    return {
        "g0": groups.element_str(spec, g0),
        "m0": m0,
        "index_km0_k1": index,
        "C_simple": c_simple,
        "C_corrected": c_corrected,
        "worst_ratio": worst_ratio,
        "worst_atom": groups.element_str(spec, worst_atom),
        "violations": violations_simple,
        "violations_corrected": violations_corrected,
        "domain": f"K_{chain.n_max} ({2 ** chain.n_max} elements)",
        "tail": chain.params.tail,
        "pass": violations_simple == 0,
        "pass_corrected": violations_corrected == 0,
    }


def lower_bound_chain_check(
    chain: LocallyFiniteChain, precomputed: tuple | None = None
) -> dict:
    """Pointwise check of rho*rho >= p_1 * sum_k p_k lambda_k on K_n_max."""
    spec = chain.spec
    rho, rho2 = precomputed if precomputed is not None else chain_convolution(chain)
    p1 = chain.params.p(1)
    worst = math.inf
    violations = 0
    for g in chain.subgroup(chain.n_max):
        rhs = p1 * rho.mass(g)
        lhs = rho2.mass(g)
        worst = min(worst, lhs - rhs)
        if lhs < rhs * (1 - 1e-12):
            violations += 1
    return {"violations": violations, "min_slack": worst, "pass": violations == 0}
