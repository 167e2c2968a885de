"""Step distributions, sparse convolution, and truncated walk weights.

The weight in force is w(g) = sum_{n>=1} p_n rho^{*n}(g) with p_n geometric,
truncated at depth ``n_max`` and carrying the exact tail mass q^n_max.
Tables retain every convolution power so that certificates can compare
values at matched truncation depths (see ``weight_ratio``): the truncated
one-step comparison

    sum_{n<=M} p_n rho^{*n}(g a)  <=  (2d+1) C  sum_{n<=M+1} p_n rho^{*n}(g)

is an exact inequality for every g, while the naive ratio of a single table
against itself fails near the support edge, where the deeper side of the
translation loses more truncated mass than the shallow side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import groups
from .errors import CapacityError, DegenerateRestrictionError, DomainError
from .groups import GroupSpec

DEFAULT_SUPPORT_CAP = 10**6


@dataclass
class SparseMeasure:
    """A finitely supported nonnegative measure; zero masses are dropped."""

    spec: GroupSpec
    masses: dict
    symmetric: bool = False

    def __post_init__(self):
        self.masses = {g: m for g, m in self.masses.items() if m != 0.0}
        for g, m in self.masses.items():
            if m < 0:
                raise DomainError(f"negative mass {m} at {g}")

    def mass(self, g) -> float:
        return self.masses.get(g, 0.0)

    def total(self) -> float:
        return sum(self.masses[g] for g in self.support())

    def support(self) -> list:
        return sorted(self.masses, key=lambda g: groups.sort_key(self.spec, g))

    def check_symmetry(self) -> bool:
        inv = groups.inverse
        return all(
            self.masses.get(inv(self.spec, g)) == m for g, m in self.masses.items()
        )


def step_distribution(spec: GroupSpec) -> SparseMeasure:
    """Uniform mass 1/(2d+1) on the identity and the symmetric generators."""
    gens = groups.generators(spec)
    mass = 1.0 / (2 * spec.d + 1)
    table = {groups.identity(spec): mass}
    for a in gens:
        table[a] = mass
    return SparseMeasure(spec, table, symmetric=True)


def convolve(
    spec: GroupSpec,
    mu: SparseMeasure,
    nu: SparseMeasure,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> SparseMeasure:
    """(mu*nu)(g) = sum_h mu(g h^-1) nu(h), accumulated in canonical order."""
    if mu.spec != spec or nu.spec != spec:
        raise DomainError("measure specs do not match")
    acc: dict = {}
    mu_support = mu.support()
    nu_support = nu.support()
    multiply = groups.multiply
    for x in mu_support:
        mx = mu.masses[x]
        for y in nu_support:
            g = multiply(spec, x, y)
            acc[g] = acc.get(g, 0.0) + mx * nu.masses[y]
        if len(acc) > cap:
            raise CapacityError(f"convolution support exceeds cap {cap}")
    return SparseMeasure(spec, acc)


def _mirror(spec: GroupSpec, measure: SparseMeasure) -> SparseMeasure:
    """Force exact symmetry by copying each value from the canonical side.

    Used for powers of a symmetric measure, whose symmetry is exact in exact
    arithmetic but can drift by an ulp under floating-point summation order.
    """
    fixed: dict = {}
    for g in measure.support():
        gi = groups.inverse(spec, g)
        rep = min(g, gi, key=lambda h: groups.sort_key(spec, h))
        fixed[g] = measure.masses[rep]
    return SparseMeasure(spec, fixed, symmetric=True)


def convolution_powers(
    spec: GroupSpec,
    rho: SparseMeasure,
    n: int,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> list[SparseMeasure]:
    """[rho, rho^{*2}, ..., rho^{*n}]."""
    if n < 1:
        raise DomainError("need n >= 1")
    out = [rho]
    for _ in range(n - 1):
        nxt = convolve(spec, out[-1], rho, cap=cap)
        if rho.symmetric:
            nxt = _mirror(spec, nxt)
        out.append(nxt)
    return out


@dataclass(frozen=True)
class WeightParams:
    """Geometric step-mixing weights p_n = (1-q) q^(n-1); ratio C = 1/q."""

    q: float = 0.5
    n_max: int = 12

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must be in (0,1), got {self.q}")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")

    def p(self, n: int) -> float:
        return (1.0 - self.q) * self.q ** (n - 1)

    @property
    def ratio_bound(self) -> float:
        """C with p_n / p_{n+1} = C for every n."""
        return 1.0 / self.q

    @property
    def tail(self) -> float:
        return self.q**self.n_max


@dataclass
class WeightTable:
    """Truncated weight w(g) = sum_{n<=n_max} p_n rho^{*n}(g).

    ``powers`` retains every convolution power so depth-limited partial
    weights are available; ``tail_bound`` = q^n_max is the exact mass of the
    dropped terms.
    """

    spec: GroupSpec
    params: WeightParams
    powers: tuple
    table: dict
    tail_bound: float
    _partials: dict = field(default_factory=dict, repr=False)
    _ball_masses: dict = field(default_factory=dict, repr=False)

    def weight(self, g) -> float:
        return self.table.get(g, 0.0)

    def support(self) -> list:
        return sorted(self.table, key=lambda g: groups.sort_key(self.spec, g))

    def stored_mass(self) -> float:
        return sum(self.table[g] for g in self.support())

    def partial_table(self, depth: int) -> dict:
        """Weights truncated at ``depth`` <= n_max, cached per depth."""
        if not 0 <= depth <= self.params.n_max:
            raise DomainError(f"depth {depth} outside 0..{self.params.n_max}")
        if depth == self.params.n_max:
            return self.table
        if depth not in self._partials:
            self._partials[depth] = mixture(self.params, self.powers[:depth])
        return self._partials[depth]

    def partial_weight(self, g, depth: int) -> float:
        return self.partial_table(depth).get(g, 0.0)

    def mass_in_ball(self, n: int) -> float:
        """Stored mass on B_n, summed in support order; cached per radius."""
        if n not in self._ball_masses:
            inside = set(groups.ball(self.spec, n))
            self._ball_masses[n] = sum(self.table[g] for g in self.support() if g in inside)
        return self._ball_masses[n]

    def tail_mass_outside_ball(self, n: int) -> float:
        """Conservative bound on the true w-mass outside B_n."""
        return max(0.0, 1.0 - self.mass_in_ball(n)) + self.tail_bound


def mixture(params: WeightParams, terms) -> dict:
    """sum_n p_n mu_n over the measures mu_1, mu_2, ... of ``terms``.

    Terms are added in order, each over its support in canonical order; every
    weight table is summed this way, so equal inputs give bit-equal tables.
    """
    acc: dict = {}
    for n, mu in enumerate(terms, start=1):
        pn = params.p(n)
        for g in mu.support():
            acc[g] = acc.get(g, 0.0) + pn * mu.masses[g]
    return acc


@dataclass
class RadialWeightTable:
    """The lazy uniform walk's truncated weight on a free group, by word length.

    ``profiles[depth][k]`` is the weight truncated at ``depth`` of every word
    of length k <= depth (longer words carry none).  Lookups read ``len(g)``;
    the atom dict ``table`` is built only when a caller asks for it.
    """

    spec: GroupSpec
    params: WeightParams
    profiles: tuple
    tail_bound: float

    def partial_weight(self, g, depth: int) -> float:
        if not 0 <= depth <= self.params.n_max:
            raise DomainError(f"depth {depth} outside 0..{self.params.n_max}")
        row = self.profiles[depth]
        return row[len(g)] if len(g) < len(row) else 0.0

    def weight(self, g) -> float:
        return self.partial_weight(g, self.params.n_max)

    def support(self) -> list:
        return groups.ball(self.spec, self.params.n_max)

    @cached_property
    def table(self) -> dict:
        row = self.profiles[-1]
        return {g: row[len(g)] for g in self.support()}

    def mass_in_ball(self, n: int) -> float:
        """Stored mass on B_n: sphere sizes times the profile, by length."""
        row = self.profiles[-1][: n + 1]
        return sum(groups.free_sphere_size(self.spec.d, k) * wk for k, wk in enumerate(row))

    def stored_mass(self) -> float:
        return self.mass_in_ball(self.params.n_max)

    def tail_mass_outside_ball(self, n: int) -> float:
        """Conservative bound on the true w-mass outside B_n."""
        return max(0.0, 1.0 - self.mass_in_ball(n)) + self.tail_bound


def _radial_profiles(d: int, params: WeightParams) -> tuple:
    """Partial weights by word length of the lazy uniform walk on F_d.

    The walk's length is a birth-death chain: from 0 it moves up along 2d of
    its 2d+1 steps, from k >= 1 it stays along 1, moves down along 1 and up
    along 2d-1.  ``paths[k]`` counts the n-step walks ending at length k
    exactly (integers), so ``rho^{*n}(g) = paths[|g|] / (S_|g| (2d+1)^n)``
    is one correctly rounded division, with S_k = 2d (2d-1)^(k-1) the sphere
    size.  Each depth adds ``p_n rho^{*n}`` in increasing n, as ``mixture``.
    """
    steps = 2 * d + 1
    sizes = [groups.free_sphere_size(d, k) for k in range(params.n_max + 1)]
    paths = [1]
    acc = [0.0] * (params.n_max + 1)
    profiles = [(0.0,)]
    for n in range(1, params.n_max + 1):
        nxt = paths + [0]
        nxt[1] += 2 * d * paths[0]
        for k in range(1, n):
            nxt[k - 1] += paths[k]
            nxt[k + 1] += (2 * d - 1) * paths[k]
        paths = nxt
        pn = params.p(n)
        walks = steps**n
        for k in range(n + 1):
            acc[k] += pn * (paths[k] / (sizes[k] * walks))
        profiles.append(tuple(acc[: n + 1]))
    return tuple(profiles)


def build_weight(
    spec: GroupSpec,
    params: WeightParams,
    cap: int = DEFAULT_SUPPORT_CAP,
    rho: SparseMeasure | None = None,
) -> WeightTable | RadialWeightTable:
    """The truncated weight of the step law ``rho`` (by default the lazy
    uniform step on the generators).

    On a free group with the default step the weight depends only on word
    length, and the table is radial (``RadialWeightTable``): each atom of
    ``rho^{*n}`` is one correctly rounded division of exact path counts, so
    every weight is within ``(n_max + 1) u`` relative of the exact truncated
    sum (u = 2^-53, the unit roundoff).  Convolving dicts instead loses up to
    ``(2d + 3) n_max u``, so the two tables agree within
    ``(2d + 4)(n_max + 1) u`` relative atom by atom; the dict convolution is
    the test oracle there.  Every other group, and any other step law, goes
    through ``convolution_powers`` and ``mixture``.
    """
    if spec.kind == "free" and rho is None:
        return RadialWeightTable(
            spec=spec,
            params=params,
            profiles=_radial_profiles(spec.d, params),
            tail_bound=params.tail,
        )
    if rho is None:
        rho = step_distribution(spec)
    powers = convolution_powers(spec, rho, params.n_max, cap=cap)
    return WeightTable(
        spec=spec,
        params=params,
        powers=tuple(powers),
        table=mixture(params, powers),
        tail_bound=params.tail,
    )


def translation_bound(spec: GroupSpec, params: WeightParams, length: int) -> float:
    """M_b = ((2d+1) C)^|b| for a translation of word length |b|."""
    return ((2 * spec.d + 1) * params.ratio_bound) ** length


def weight_ratio(spec: GroupSpec, w: WeightTable | RadialWeightTable, b) -> dict:
    """Certified two-sided translation bounds for w(g b) against w(g).

    Scans every g in the interior domain B(n_max - |b|).  The certified upper
    ratio compares the numerator truncated at depth n_max - |b| with the full
    denominator, which is the exact truncated form of the one-step translation bound;
    the report also carries the uncertified single-table ratio for reference.
    A radial table takes the same values on each class of
    ``groups.free_translation_classes``, so it scans one representative per
    class, counted with the class size.
    """
    groups.check_element(spec, b)
    length = groups.word_length(spec, b)
    n_max = w.params.n_max
    if length > n_max - 1 and length > 0:
        raise DomainError(f"|b|={length} leaves no interior domain (n_max={n_max})")
    bound = translation_bound(spec, params=w.params, length=length)
    depth = n_max - length
    if isinstance(w, RadialWeightTable):
        domain = groups.free_translation_classes(spec, b, depth)
    else:
        domain = ((g, 1) for g in groups.ball(spec, depth))
    upper_max = 0.0
    lower_min = math.inf
    plain_max = 0.0
    evaluated = 0
    for g, count in domain:
        gb = groups.multiply(spec, g, b)
        den = w.weight(g)
        full_gb = w.weight(gb)
        if den > 0.0:
            evaluated += count
            upper_max = max(upper_max, w.partial_weight(gb, depth) / den)
            if full_gb > 0.0:
                plain_max = max(plain_max, full_gb / den)
        num_g = w.partial_weight(g, depth)
        if full_gb > 0.0 and num_g > 0.0:
            lower_min = min(lower_min, full_gb / num_g)
    if evaluated == 0:
        raise DomainError("empty evaluation domain for weight ratio")
    lower_ok = lower_min is math.inf or lower_min >= 1.0 / bound / (1 + 1e-12)
    return {
        "b": groups.element_str(spec, b),
        "word_length": length,
        "bound": bound,
        "lower_bound": 1.0 / bound,
        "observed_max": upper_max,
        "observed_min": None if lower_min is math.inf else lower_min,
        "plain_table_max": plain_max,
        "numerator_depth": depth,
        "denominator_depth": n_max,
        "domain": f"ball({depth})",
        "n_evaluated": evaluated,
        "pass": bool(upper_max <= bound * (1 + 1e-12) and lower_ok),
    }


def restrict_renormalize(
    w_amb: WeightTable | RadialWeightTable, emb: groups.Embedding
) -> SparseMeasure:
    """Pull the ambient weight back along an embedding and renormalize.

    The result is a probability measure on the subgroup, supported on the
    window of subgroup elements whose images carry stored ambient weight.
    """
    sub = emb.spec_sub
    window = groups.ball(sub, w_amb.params.n_max)
    table: dict = {}
    for h in window:
        val = w_amb.weight(emb.map(h))
        if val > 0.0:
            table[h] = val
    total = sum(table[h] for h in sorted(table, key=lambda g: groups.sort_key(sub, g)))
    if total <= 0.0:
        raise DegenerateRestrictionError("restricted weight has zero mass")
    out = SparseMeasure(sub, {h: v / total for h, v in table.items()})
    out.symmetric = out.check_symmetry()
    return out


def restricted_ratio_certificate(
    w_amb: WeightTable | RadialWeightTable, emb: groups.Embedding, b_sub
) -> dict:
    """Two-sided translation bounds for the restricted measure.

    Checked at the ambient level at matched truncation depths (the common
    normalizer cancels), over the window where both points are stored.
    """
    sub, amb = emb.spec_sub, emb.spec_amb
    groups.check_element(sub, b_sub)
    b_amb = emb.map(b_sub)
    length = groups.word_length(amb, b_amb)
    n_max = w_amb.params.n_max
    depth = n_max - length
    if depth < 0:
        raise DomainError("translation image longer than stored depth")
    bound = translation_bound(amb, w_amb.params, length)
    window = groups.ball(sub, depth)
    upper_max = 0.0
    lower_min = float("inf")
    count = 0
    for h in window:
        img = emb.map(h)
        img_b = groups.multiply(amb, img, b_amb)
        den = w_amb.weight(img)
        if den <= 0.0:
            continue
        count += 1
        upper_max = max(upper_max, w_amb.partial_weight(img_b, depth) / den)
        full_b = w_amb.weight(img_b)
        part_h = w_amb.partial_weight(img, depth)
        if full_b > 0.0 and part_h > 0.0:
            lower_min = min(lower_min, full_b / part_h)
    if count == 0:
        raise DomainError("empty evaluation window for restricted ratios")
    return {
        "b": groups.element_str(sub, b_sub),
        "bound": bound,
        "lower_bound": 1.0 / bound,
        "observed_max": upper_max,
        "observed_min": lower_min,
        "n_evaluated": count,
        "domain": f"subgroup ball({depth})",
        "pass": bool(
            upper_max <= bound * (1 + 1e-12) and lower_min >= 1.0 / bound / (1 + 1e-12)
        ),
    }
