"""Walk weights from exact walk counts, and their translation certificates.

The weight in force is w(g) = sum_{n>=1} p_n rho^{*n}(g) with p_n geometric,
truncated at depth ``n_max`` and carrying the exact tail mass q^n_max.
Tables retain the weight truncated at every depth so that certificates can
compare values at matched truncation depths (see ``weight_ratio``): the
truncated one-step comparison

    sum_{n<=M} p_n rho^{*n}(g a)  <=  (2d+1) C  sum_{n<=M+1} p_n rho^{*n}(g)

is an exact inequality for every g, while the naive ratio of a single table
against itself fails near the support edge, where the deeper side of the
translation loses more truncated mass than the shallow side.

Every table is a float64 array over a cell index.  On a free group the cell
of g is its word length |g| (the weight is radial); on the integers, the
lattices and the Heisenberg group it is g itself, in a box that holds the
ball B_n (see ``cell_box``).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import groups
from .config import WeightConfig
from .errors import CapacityError, DegenerateRestrictionError, DomainError
from .groups import GroupSpec

DEFAULT_SUPPORT_CAP = 10**6


def cell_box(spec: GroupSpec, radius: int) -> tuple[tuple, tuple]:
    """``(offset, shape)`` of the cells that hold B_radius; ``offset`` is the
    identity's cell.

    A free group's cells are the word lengths 0..radius.  On the integers and
    the lattices the box is [-radius, radius]^d.  On the Heisenberg group it
    is [-radius, radius]^2 x [-m, m] with m = floor(radius^2 / 4): z gains
    x v on each y-step, so |z| <= (#x-steps)(#y-steps) <= m.
    """
    if spec.kind == "free":
        return (0,), (radius + 1,)
    if spec.kind == "heisenberg":
        radii = (radius, radius, radius * radius // 4)
    else:
        radii = (radius,) * spec.d
    return radii, tuple(2 * r + 1 for r in radii)


def _allocate(shape: tuple, dtype) -> np.ndarray:
    size = math.prod(shape)
    if size > DEFAULT_SUPPORT_CAP:
        raise CapacityError(f"weight box of {size} cells exceeds cap {DEFAULT_SUPPORT_CAP}")
    return np.zeros(shape, dtype=dtype)


def _shift(shape: tuple, s) -> tuple | None:
    """The ``(source, destination)`` slices of the moves u -> u + s that stay
    in a box of ``shape``, or None if none does."""
    if any(abs(k) >= n for k, n in zip(s, shape)):
        return None
    return (
        tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(s, shape)),
        tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(s, shape)),
    )


def _moves(spec: GroupSpec, offset: tuple, shape: tuple, steps) -> list:
    """For each step s, the ``(source, destination)`` slice pairs of the
    moves g -> g s that stay in the box.  On Z^d that is one shift by s.  On
    the Heisenberg group, (x, y, z)(a, b, c) = (x + a, y + b, z + c + x b),
    so a step with b != 0 shears: one pair per x-slice, each with its own
    z-shift."""
    out = []
    for s in groups.coords(spec, steps).tolist():
        if spec.kind == "heisenberg" and s[1]:
            a, b, c = s
            xs = range(max(0, -a), shape[0] - max(0, a))
            shears = [(i, _shift(shape[1:], (b, c + (i - offset[0]) * b))) for i in xs]
            out.append([((i, *yz[0]), (i + a, *yz[1])) for i, yz in shears if yz])
        else:
            pair = _shift(shape, s)
            out.append([pair] if pair else [])
    return out


class _Cells:
    """Arrays over the cells of ``cell_box``, read by element."""

    def __init__(self, spec: GroupSpec, offset: tuple):
        self.spec, self.offset = spec, offset

    def cells(self, elements) -> np.ndarray:
        """The (N, k) cell coordinates of ``elements``: word lengths on a
        free group, the group coordinates on the other kinds."""
        if self.spec.kind == "free":
            return np.array([len(g) for g in elements], dtype=np.int64).reshape(-1, 1)
        return groups.coords(self.spec, elements)

    def _gather(self, array: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """``array`` at ``cells``; zero at cells outside the box."""
        idx = cells + self.offset
        inside = ((idx >= 0) & (idx < array.shape)).all(axis=1)
        out = np.zeros(len(idx), dtype=array.dtype)
        out[inside] = array[tuple(idx[inside].T)]
        return out


class LazyWalk(_Cells):
    """Exact walk counts of the lazy uniform step, which puts mass 1/(2d+1)
    on the identity and on each symmetric generator.

    ``counts[n]`` holds, in every cell, the number of n-step walks from e to
    each element of the cell.  Every count is at most (2d+1)^depth, so the
    counts are int64 when (2d+1)^depth <= 2^53, where each converts to
    float64 exactly, and Python ints otherwise (3^40 > 2^63 on Z at depth
    40).  So ``rho^{*n}(g) = counts[n][g] / (2d+1)^n`` is one correctly
    rounded division, and it is exactly symmetric, since the counts are.
    """

    def __init__(self, spec: GroupSpec, offset: tuple, counts: tuple):
        super().__init__(spec, offset)
        self.counts = counts

    @property
    def steps(self) -> int:
        return 2 * self.spec.d + 1

    def rho(self, n: int) -> np.ndarray:
        """rho^{*n} over the cells, each atom correctly rounded."""
        return (self.counts[n] / self.steps**n).astype(np.float64)

    def masses(self, n: int, cells: np.ndarray) -> np.ndarray:
        """rho^{*n} at ``cells``, as ``cells(elements)`` gives them, each
        atom correctly rounded."""
        return (self._gather(self.counts[n], cells) / self.steps**n).astype(np.float64)

    def return_probability(self, n: int) -> float:
        """rho^{*2n}(e) = sum_g rho^{*n}(g)^2 for the symmetric step, from
        the integer sum of squared counts, squared as Python ints (a count
        near 2^53 squares past 2^63): one correctly rounded division."""
        squares = self.counts[n].astype(object) ** 2
        if self.spec.kind == "free":
            sizes = [groups.free_sphere_size(self.spec.d, k) for k in range(len(squares))]
            squares = squares * np.array(sizes, dtype=object)
        return int(squares.sum()) / self.steps ** (2 * n)


def lazy_walk(spec: GroupSpec, depth: int) -> LazyWalk:
    """Walk counts of the lazy uniform step for n = 0..depth, over
    ``cell_box(spec, depth)``.

    A free group runs the word-length chain on the count of one word of
    each length k: its neighbours are itself, its parent and 2d-1 children
    (2d children for e).  The other kinds add, to the identity step's
    counts, the counts moved by each generator: on the Heisenberg group the
    y-steps shear each x-slice, (x, y, z)(0, v, 0) = (x, y+v, z+xv).  Every
    move that would leave the box starts from a cell of zero count.  The
    counts are int64 where (2d+1)^depth <= 2^53 and Python ints past it.
    """
    if not spec.finitely_generated:
        raise DomainError(f"{spec.kind} has no lazy uniform step")
    offset, shape = cell_box(spec, depth)
    count = _allocate(shape, np.int64 if (2 * spec.d + 1) ** depth <= 2**53 else object)
    count[offset] = 1
    counts = [count]
    steps = [groups.identity(spec)] + groups.generators(spec)
    moves = [] if spec.kind == "free" else _moves(spec, offset, shape, steps)
    for _ in range(depth):
        if spec.kind == "free":
            nxt = count.copy()
            nxt[1:] += count[:-1]
            nxt[1:-1] += (2 * spec.d - 1) * count[2:]
            nxt[0] += 2 * spec.d * count[1]
        else:
            nxt = _step(count, moves, [1] * len(steps))
        count = nxt
        counts.append(count)
    return LazyWalk(spec, offset, tuple(counts))


def _step(power: np.ndarray, moves: list, weights: list) -> np.ndarray:
    """One more step of a walk: the sum, over the atoms of its law, of
    ``weight * power`` moved by the atom's ``(source, destination)`` slice
    pairs (see ``_moves``), added in the order of ``moves``.  Each cell
    receives at most one term per atom, so its additions keep that order.
    A unit weight adds without the product, which is exact and spares the
    walk counts one pass of integer products per move."""
    nxt = np.zeros_like(power)
    for weight, pairs in zip(weights, moves):
        for src, dst in pairs:
            nxt[dst] += power[src] if weight == 1 else weight * power[src]
    return nxt


def _law_powers(spec: GroupSpec, law: dict, depth: int) -> tuple[tuple, list]:
    """``(offset, [rho, rho^{*2}, ..., rho^{*depth}])`` for a finitely
    supported step law on the integers or a lattice, adding in floats the
    moves by each atom in ``sort_key`` order.  A symmetric law's powers are
    averaged with their reflection g -> -g, which makes them exactly
    symmetric."""
    if spec.kind not in ("integers", "lattice"):
        raise DomainError(f"a custom step law needs an integer or lattice group, not {spec.kind}")
    atoms = sorted(law, key=lambda g: groups.sort_key(spec, g))
    reach = max(groups.word_length(spec, g) for g in atoms)
    offset, shape = cell_box(spec, reach * depth)
    symmetric = all(law.get(groups.inverse(spec, g)) == law[g] for g in atoms)
    moves = _moves(spec, offset, shape, atoms)
    power = _allocate(shape, np.float64)
    power[offset] = 1.0
    powers = []
    for _ in range(depth):
        nxt = _step(power, moves, [law[g] for g in atoms])
        power = 0.5 * (nxt + np.flip(nxt)) if symmetric else nxt
        powers.append(power)
    return offset, powers


class WeightTable(_Cells):
    """Truncated weight w(g) = sum_{n<=n_max} p_n rho^{*n}(g).

    ``partials[depth]`` is the weight truncated at ``depth``, a float64
    array over the cells; ``tail_bound`` = q^n_max is the exact mass of the
    dropped terms.  Elements outside the box carry no stored weight.
    """

    def __init__(self, spec: GroupSpec, offset: tuple, params: WeightConfig, partials: tuple):
        super().__init__(spec, offset)
        self.params, self.partials = params, partials
        self._ball_masses: dict = {}
        self._balls: dict = {}

    @property
    def tail_bound(self) -> float:
        return self.params.tail

    def _depth(self, depth: int) -> np.ndarray:
        if not 0 <= depth <= self.params.n_max:
            raise DomainError(f"depth {depth} outside 0..{self.params.n_max}")
        return self.partials[depth]

    def read(self, cells: np.ndarray, depth: int | None = None) -> np.ndarray:
        """The weight truncated at ``depth`` (by default n_max) at ``cells``."""
        return self._gather(self._depth(self.params.n_max if depth is None else depth), cells)

    def ball(self, radius: int) -> tuple[list, np.ndarray]:
        """``groups.ball(spec, radius)`` and its cells, cached per radius."""
        if radius not in self._balls:
            elements = groups.ball(self.spec, radius)
            self._balls[radius] = elements, self.cells(elements)
        return self._balls[radius]

    def sorted_ball(self, radius: int) -> tuple[list, np.ndarray]:
        """``ball(radius)`` in ``sort_key`` order.  That is ``ball``'s own
        order on every kind but the integers, whose -n..n is reordered to
        0, -1, 1, ..., -n, n."""
        elements, cells = self.ball(radius)
        if self.spec.kind != "integers":
            return elements, cells
        elements = sorted(elements, key=lambda g: groups.sort_key(self.spec, g))
        return elements, self.cells(elements)

    def support(self) -> list:
        """The elements of positive stored weight, in ``sort_key`` order.
        No command calls it or ``table``; the benchmark's tracer counts
        ``len(table)`` per weight build, and the tests read both."""
        if self.spec.kind == "free":
            return groups.ball(self.spec, self.params.n_max)
        coords = (np.argwhere(self.partials[-1] > 0.0) - self.offset).tolist()
        elements = [c[0] for c in coords] if self.spec.kind == "integers" else map(tuple, coords)
        return sorted(elements, key=lambda g: groups.sort_key(self.spec, g))

    @cached_property
    def table(self) -> dict:
        """The stored atoms as a dict, in ``support`` order."""
        support = self.support()
        return dict(zip(support, self.read(self.cells(support)).tolist()))

    def mass_in_ball(self, n: int) -> float:
        """Stored mass on B_n, cached per radius: on a free group the sphere
        sizes times the radial weight; elsewhere summed in ``sort_key`` order."""
        if n not in self._ball_masses:
            if self.spec.kind == "free":
                row = self.partials[-1][: n + 1].tolist()
                mass = sum(groups.free_sphere_size(self.spec.d, k) * wk for k, wk in enumerate(row))
            else:
                mass = sum(self.read(self.sorted_ball(n)[1]).tolist())
            self._ball_masses[n] = mass
        return self._ball_masses[n]

    def stored_mass(self) -> float:
        """The stored mass, all of it on B_n_max."""
        return self.mass_in_ball(self.params.n_max)

    def tail_mass_outside_ball(self, n: int) -> float:
        """Conservative bound on the true w-mass outside B_n."""
        return max(0.0, 1.0 - self.mass_in_ball(n)) + self.tail_bound


def build_weight(spec: GroupSpec, params: WeightConfig, rho: dict | None = None) -> WeightTable:
    """The truncated weight of the step law ``rho`` (by default the lazy
    uniform step on the generators), as a ``WeightTable``.

    For the lazy step each atom of ``rho^{*n}`` is one correctly rounded
    division of exact walk counts (``lazy_walk``), and each depth adds
    ``p_n rho^{*n}`` in increasing n, so every weight, on every group kind,
    is within ``(n_max + 1) u`` relative of the exact truncated sum (u =
    2^-53, the unit roundoff), and w(g) = w(g^-1) exactly.  Convolving
    dicts loses up to ``(2d + 3) n_max u``, so the two agree within
    ``(2d + 4)(n_max + 1) u`` relative atom by atom; the dict convolution
    is the test oracle.  Any other step law ``rho`` (a dict of element ->
    mass, on the integers or a lattice) is convolved in floats over its
    atoms; see ``_law_powers``.
    """
    params.checked()
    if rho is None:
        walk = lazy_walk(spec, params.n_max)
        offset = walk.offset
        powers = [walk.rho(n) for n in range(1, params.n_max + 1)]
    else:
        offset, powers = _law_powers(spec, rho, params.n_max)
    acc = np.zeros_like(powers[0])
    partials = [acc]
    for n, rho_n in enumerate(powers, start=1):
        acc = acc + params.p(n) * rho_n
        partials.append(acc)
    return WeightTable(spec=spec, offset=offset, params=params, partials=tuple(partials))


def translation_bound(w: WeightTable, length: int) -> float:
    """M_b = ((2d+1) C)^|b| for a translation of word length |b|."""
    return ((2 * w.spec.d + 1) * w.params.ratio_bound) ** length


def translated_cells(w: WeightTable, elements: list, cells: np.ndarray, b) -> np.ndarray:
    """The cells of g b for the g of ``elements`` (with ``cells`` their cells):
    array arithmetic on a box kind, one product per element on a free group."""
    if w.spec.kind == "free":
        return w.cells([groups.multiply(w.spec, g, b) for g in elements])
    return groups.translate(w.spec, cells, b)


def weight_ratio(w: WeightTable, b) -> dict:
    """Certified two-sided translation bounds for w(g b) against w(g).

    Scans every g in the interior domain B(n_max - |b|).  The certified upper
    ratio compares the numerator truncated at depth n_max - |b| with the full
    denominator, which is the exact truncated form of the one-step translation bound;
    the report also carries the uncertified single-table ratio for reference.
    A free group's table takes the same values on each class of
    ``groups.free_translation_classes``, so it scans one representative per
    class, counted with the class size.
    """
    spec = w.spec
    groups.check_element(spec, b)
    length = groups.word_length(spec, b)
    n_max = w.params.n_max
    if length > n_max - 1 and length > 0:
        raise DomainError(f"|b|={length} leaves no interior domain (n_max={n_max})")
    bound = translation_bound(w, length)
    depth = n_max - length
    if spec.kind == "free":
        classes = groups.free_translation_classes(spec, b, depth)
        domain = [g for g, _ in classes]
        sizes = np.array([size for _, size in classes], dtype=object)
        cells = w.cells(domain)
    else:
        domain, cells = w.ball(depth)
        sizes = np.ones(len(domain), dtype=np.int64)
    moved = translated_cells(w, domain, cells, b)
    den, num_g = w.read(cells), w.read(cells, depth)
    full_gb, part_gb = w.read(moved), w.read(moved, depth)
    counted = den > 0.0
    evaluated = int(sizes[counted].sum())
    if evaluated == 0:
        raise DomainError("empty evaluation domain for weight ratio")
    upper_max = float((part_gb[counted] / den[counted]).max())
    plain = counted & (full_gb > 0.0)
    plain_max = float((full_gb[plain] / den[plain]).max(initial=0.0))
    lower = (full_gb > 0.0) & (num_g > 0.0)
    lower_min = float((full_gb[lower] / num_g[lower]).min(initial=math.inf))
    lower_ok = lower_min == math.inf or lower_min >= 1.0 / bound / (1 + 1e-12)
    return {
        "b": groups.element_str(spec, b),
        "word_length": length,
        "bound": bound,
        "lower_bound": 1.0 / bound,
        "observed_max": upper_max,
        "observed_min": None if lower_min == math.inf else lower_min,
        "plain_table_max": plain_max,
        "numerator_depth": depth,
        "denominator_depth": n_max,
        "domain": f"ball({depth})",
        "n_evaluated": evaluated,
        "pass": bool(upper_max <= bound * (1 + 1e-12) and lower_ok),
    }


def restrict_renormalize(w_amb: WeightTable, emb: groups.Embedding) -> dict:
    """Pull the ambient weight back along an embedding and renormalize.

    The result is a probability law on the subgroup, as a dict of element ->
    mass in ``groups.ball`` order, supported on the window of subgroup
    elements whose images carry stored ambient weight.
    """
    sub = emb.spec_sub
    window = groups.ball(sub, w_amb.params.n_max)
    values = w_amb.read(w_amb.cells([emb.map(h) for h in window])).tolist()
    table = {h: v for h, v in zip(window, values) if v > 0.0}
    total = sum(table[h] for h in sorted(table, key=lambda g: groups.sort_key(sub, g)))
    if total <= 0.0:
        raise DegenerateRestrictionError("restricted weight has zero mass")
    return {h: v / total for h, v in table.items()}


def restricted_ratio_certificate(w_amb: WeightTable, emb: groups.Embedding, b_sub) -> dict:
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
    bound = translation_bound(w_amb, length)
    images = [emb.map(h) for h in groups.ball(sub, depth)]
    cells = w_amb.cells(images)
    moved = translated_cells(w_amb, images, cells, b_amb)
    den, part_h = w_amb.read(cells), w_amb.read(cells, depth)
    full_b, part_b = w_amb.read(moved), w_amb.read(moved, depth)
    counted = den > 0.0
    count = int(counted.sum())
    if count == 0:
        raise DomainError("empty evaluation window for restricted ratios")
    upper_max = float((part_b[counted] / den[counted]).max())
    lower = counted & (full_b > 0.0) & (part_h > 0.0)
    lower_min = float((full_b[lower] / part_h[lower]).min(initial=math.inf))
    return {
        "b": groups.element_str(sub, b_sub),
        "bound": bound,
        "lower_bound": 1.0 / bound,
        "observed_max": upper_max,
        "observed_min": None if lower_min == math.inf else lower_min,
        "n_evaluated": count,
        "domain": f"subgroup ball({depth})",
        "pass": bool(
            upper_max <= bound * (1 + 1e-12) and lower_min >= 1.0 / bound / (1 + 1e-12)
        ),
    }
