"""Closed-form continuous and locally finite cases.

Two desk-scale settings where every density is explicit:

* the real line, with the step law built from a symmetric compact interval
  (overlap densities, the domination constant, and the induced shift bound);
* the locally finite direct sum of Z/2, where the step law mixes normalized
  counting measures of the nested subgroups K_1 < K_2 < ... .  K_n is the
  vector space F_2^n, so its measures are lists indexed by bitmask and
  convolution is pointwise multiplication after a Walsh-Hadamard transform.

The module runs on Python floats and loads no numpy; its grids reproduce
``np.arange`` and ``np.linspace`` entry for entry, and every reduction it
makes (min, max, counts, the first argmax) is exact.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

from . import groups
from .config import MAX_CHAIN_N, WeightConfig
from .errors import DomainError
from .groups import GroupSpec

# The real-line domination check: K = [-K_HALF, K_HALF], L = [-L_HALF,
# L_HALF], a grid of GRID_STEP over L, the k in K it samples, and the weight
# ratio bound C of the induced shift bound
K_HALF, L_HALF = 1.0, 2.0
GRID_STEP = 1e-3
K_SAMPLES = (-1.0, 0.0, 1.0)
RATIO_BOUND_C = 2.0


class IntervalMeasure:
    """Lebesgue measure restricted to the symmetric interval [-half, half]."""

    def __init__(self, half: float):
        self.half = half
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
    """The same density by integrating the indicator product piece by piece.

    The integrand h -> 1_L(t - h) 1_L(h) is constant between consecutive
    breakpoints, so its value at each piece's midpoint times the piece's
    length integrates it exactly.
    """
    lo, hi = -L.half - abs(t), L.half + abs(t)
    cuts = [lo] + sorted(
        x for x in (-L.half, L.half, t - L.half, t + L.half) if lo < x < hi
    ) + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        total += L.indicator(t - mid) * L.indicator(mid) * (b - a)
    return total


def arange(start: float, stop: float, step: float) -> list:
    """``np.arange(start, stop, step)`` on floats, entry for entry: it has
    ceil((stop - start) / step) entries, entry 1 is start + step and entry
    i > 1 is start + i * ((start + step) - start)."""
    n = max(math.ceil((stop - start) / step), 0)
    delta = (start + step) - start
    return [start, start + step][:n] + [start + i * delta for i in range(2, n)]


def linspace(start: float, stop: float, num: int) -> list:
    """``np.linspace(start, stop, num)`` for num >= 2 and start != stop, entry
    for entry: entry i is i * ((stop - start) / (num - 1)) + start, and the
    last entry is stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def domination_constant_real() -> dict:
    """u = min of the overlap density on the product window, D = 2/u.

    psi falls as |t| grows, and so does its rounding, so u is read at the
    ends of the window's grid.  The pointwise check compares the density of
    rho * delta_k against D times the density of rho * rho on a grid over L
    (endpoints included), for sampled k in K, in one scan; the induced
    shift bound sqrt(D*C) is reported.
    """
    L = IntervalMeasure(L_HALF)
    length = L.length
    kl_half = K_HALF + L_HALF
    window = arange(-kl_half, kl_half + GRID_STEP / 2, GRID_STEP)
    u = min(overlap_density(L, t) for t in (window[0], window[-1]))
    u_closed = max(0.0, length - kl_half)
    d_const = 2.0 / u
    # rho has density 1/|L| on L; rho*rho has density psi/|L|^2
    density, square = 1.0 / length, length**2
    grid = arange(-L_HALF, L_HALF + GRID_STEP / 2, GRID_STEP)
    rhs = [d_const * max(0.0, length - abs(t)) / square for t in grid]
    gaps = [(density if abs(t - k) <= L_HALF else 0.0) - r for k in K_SAMPLES for t, r in zip(grid, rhs)]
    violations = len([x for x in gaps if x > 1e-12])
    worst = max(gaps)
    return {
        "k_half": K_HALF,
        "l_half": L_HALF,
        "u": u,
        "u_closed_form": u_closed,
        "D": d_const,
        "shift_bound": math.sqrt(d_const * RATIO_BOUND_C),
        "grid_step": GRID_STEP,
        "domain": f"grid over L=[-{L_HALF},{L_HALF}]",
        "k_samples": list(K_SAMPLES),
        "violations": violations,
        "worst_gap": worst,
        "pass": violations == 0,
    }


Z2SUM = GroupSpec("z2sum", 0)


def fwht(a) -> list:
    """The unnormalized Walsh-Hadamard transform of a length-2^n sequence, by
    n passes of Good's (1958) constant-geometry factorization: each pass puts
    the sums of adjacent pairs in the first half and their differences in
    the second.  These are the butterflies of the in-place Fino-Algazi (1976)
    transform in the same order, so the floats are the same.  Applying it
    twice multiplies by 2^n."""
    for _ in range(len(a).bit_length() - 1):
        even, odd = a[0::2], a[1::2]
        a = [x + y for x, y in zip(even, odd)] + [x - y for x, y in zip(even, odd)]
    return list(a)


def xor_convolve(mu, nu) -> list:
    """(mu*nu)(g) = sum_h mu(g ^ h) nu(h) for measures stored by bitmask.

    Each output of ``fwht`` is a +-1 sum of its inputs over an addition tree
    of depth n, so it is off by at most about n 2^-53 times the inputs' l1
    norm.
    For measures of total mass at most 1, each atom of mu*nu is therefore
    within (3n + 2) 2^-53 of the exact convolution of the stored inputs.  The
    bound is absolute, not relative: the smallest atoms carry the largest
    relative error (about 1e-12 on K_7 at q = 0.3).  Inputs whose
    intermediates are dyadic and fit in 53 bits give the exact convolution:
    the chain's rho at q = 0.5 has masses in 2^-2n Z and transforms bounded
    by 2^n, so its rho*rho is exact for n <= 17.
    """
    size = len(mu)
    return [x / size for x in fwht([x * y for x, y in zip(fwht(mu), fwht(nu))])]


class LocallyFiniteChain:
    """K_n = span of the first n coordinates of the direct sum of Z/2.

    Measures on K_n_max are lists of 2^n_max floats indexed by bitmask:
    coordinate i is bit i-1, so K_n is the indices below 2^n and the group
    product is XOR.  The step law mixes the K_n with the geometric
    weights of ratio ``q``, truncated at the chain end.  Chains with equal
    ``n_max`` and ``q`` are equal, and share ``chain_convolution``'s entry.
    """

    def __init__(self, n_max: int = 10, q: float = 0.5):
        self.n_max, self.q = n_max, q
        if not 1 <= self.n_max <= MAX_CHAIN_N:
            raise DomainError(f"chain needs 1 <= n_max <= {MAX_CHAIN_N}")
        self.params = WeightConfig(q, n_max).checked()  # the mixing weights p_n of the step law

    def __eq__(self, other):
        return type(other) is LocallyFiniteChain and (self.n_max, self.q) == (other.n_max, other.q)

    def __hash__(self):
        return hash((self.n_max, self.q))

    @property
    def spec(self) -> GroupSpec:
        return Z2SUM

    def subgroup(self, n: int) -> list:
        """All 2^n elements of K_n in canonical order: by size, then
        lexicographically, which is the order ``combinations`` yields."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"subgroup index {n} outside 1..{self.n_max}")
        out = []
        for r in range(n + 1):
            out.extend(itertools.combinations(range(1, n + 1), r))
        return out

    @cached_property
    def canonical_masks(self) -> tuple:
        """The bitmasks of ``subgroup(n_max)``, in its canonical order."""
        return tuple(mask(g) for g in self.subgroup(self.n_max))

    def haar(self, n: int) -> list:
        """lambda_n, the normalized counting measure of K_n, on K_n."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"subgroup index {n} outside 1..{self.n_max}")
        return [2.0**-n] * 2**n

    def first_containing(self, g) -> int:
        """m0 = the first n with g in K_n."""
        groups.check_element(self.spec, g)
        m0 = max(g) if g else 1
        if m0 > self.n_max:
            raise DomainError(f"{g} lies outside K_{self.n_max}")
        return m0


def mask(g) -> int:
    """The bitmask of a z2sum element: coordinate i is bit i-1."""
    return sum(1 << (i - 1) for i in g)


def element(m: int) -> tuple:
    """The z2sum element of a bitmask."""
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def locally_finite_rho(chain: LocallyFiniteChain) -> list:
    """rho = sum p_n lambda_n truncated at the chain end (tail q^n_max).

    Each atom adds its terms in increasing n, as ``measures.build_weight``
    does, so rho is bit-equal to that sum for every q.
    """
    rho = [0.0] * 2**chain.n_max
    for n in range(1, chain.n_max + 1):
        v = chain.params.p(n) * 2.0**-n
        rho[: 2**n] = [x + v for x in rho[: 2**n]]
    return rho


def haar_convolution_identity(chain: LocallyFiniteChain) -> dict:
    """Exhaustively verify lambda_i * lambda_j = lambda_{max(i,j)}: every
    pair i <= j is convolved through the Walsh-Hadamard transform on the
    2^j cells of K_j, where the product lives.  On K_n_max its spectrum
    repeats with period 2^j, and its inverse there is 2^(n_max - j) times
    the one on K_j, then +0: the later butterflies only double or cancel,
    exactly, so the floats are those of the transforms on K_n_max.  A
    product equal to the last one transformed for the same j has that one's
    error, so only the products that differ are transformed back."""
    spectra = [fwht(chain.haar(n)) for n in range(1, chain.n_max + 1)]
    last = {}  # j -> (the last product transformed for j, its error)
    worst = 0.0
    checked = 0
    for i in range(1, chain.n_max + 1):
        for j in range(i, chain.n_max + 1):
            prod = [x * y for x, y in zip(spectra[i - 1] * 2 ** (j - i), spectra[j - 1])]
            if j not in last or last[j][0] != prod:
                err = max(abs(x / 2**j - 2.0**-j) for x in fwht(prod))
                last[j] = prod, err
            worst = max(worst, last[j][1])
            checked += 1
    return {"pairs_checked": checked, "max_abs_error": worst, "pass": worst < 1e-12}


@cache
def chain_convolution(chain: LocallyFiniteChain) -> tuple:
    """(rho, rho*rho) as tuples by bitmask, computed once per chain and
    shared by every check on it; see ``xor_convolve`` for the rounding of
    rho*rho."""
    rho = locally_finite_rho(chain)
    return tuple(rho), tuple(xor_convolve(rho, rho))


@cache
def _canonical_rho2(chain: LocallyFiniteChain) -> tuple:
    """rho*rho in canonical order, and the canonical positions where it
    vanishes: the half of the domination check that no g0 changes."""
    rho2 = chain_convolution(chain)[1]
    rhs = [rho2[m] for m in chain.canonical_masks]
    return rhs, [k for k, r in enumerate(rhs) if r == 0.0]


def domination_check_locally_finite(chain: LocallyFiniteChain, g0) -> dict:
    """Pointwise check of rho * delta_{g0} <= C_{g0} (rho * rho) on K_n_max.

    ``C_{g0} = 1/p_1 + [K_{m0}:K_1]`` is the simple closed-form constant; the
    report also carries a corrected constant that keeps the subgroup-index
    factor (sum_{i<=m0} p_i) p_{m0} when comparing lambda_{m0} with rho*rho,
    which the exhaustive scan certifies in all cases.  The worst atom is the
    first of the largest ratios in canonical order.
    """
    m0 = chain.first_containing(g0)
    p = chain.params.p
    p1 = p(1)
    index = 2 ** (m0 - 1)  # [K_{m0} : K_1]
    c_simple = 1.0 / p1 + index
    head = sum(p(n) for n in range(1, m0))
    cum = sum(p(n) for n in range(1, m0 + 1))
    c_corrected = 1.0 / p1 + index * head / (cum * p(m0)) if m0 > 1 else 1.0 / p1
    rho = chain_convolution(chain)[0]
    rhs, zeros = _canonical_rho2(chain)
    # (rho*delta_{g0})(g) = rho(g g0^-1) = rho(g ^ g0), in canonical order
    g0_mask = mask(g0)
    lhs = [rho[m ^ g0_mask] for m in chain.canonical_masks]
    if any(lhs[k] != 0.0 for k in zeros):
        raise DomainError("rho*rho vanishes on the chain window")
    ratio = [x / r if x != 0.0 else 0.0 for x, r in zip(lhs, rhs)]
    k = ratio.index(max(ratio))
    worst_ratio = ratio[k]
    worst_atom = element(chain.canonical_masks[k]) if worst_ratio > 0.0 else None
    violations_simple = len([x for x, r in zip(lhs, rhs) if x > c_simple * r * (1 + 1e-12)])
    violations_corrected = len([x for x, r in zip(lhs, rhs) if x > c_corrected * r * (1 + 1e-12)])
    return {
        "g0": groups.element_str(chain.spec, g0),
        "m0": m0,
        "index_km0_k1": index,
        "C_simple": c_simple,
        "C_corrected": c_corrected,
        "worst_ratio": worst_ratio,
        "worst_atom": groups.element_str(chain.spec, worst_atom),
        "violations": violations_simple,
        "violations_corrected": violations_corrected,
        "domain": f"K_{chain.n_max} ({2 ** chain.n_max} elements)",
        "tail": chain.params.tail,
        "pass": violations_simple == 0,
        "pass_corrected": violations_corrected == 0,
    }


def lower_bound_chain_check(chain: LocallyFiniteChain) -> dict:
    """Pointwise check of rho*rho >= p_1 * sum_k p_k lambda_k on K_n_max."""
    rho, rho2 = chain_convolution(chain)
    rhs = [chain.params.p(1) * x for x in rho]
    violations = len([x for x, r in zip(rho2, rhs) if x < r * (1 - 1e-12)])
    return {
        "violations": violations,
        "min_slack": min(x - r for x, r in zip(rho2, rhs)),
        "pass": violations == 0,
    }
