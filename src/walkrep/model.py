"""Staged construction of a finite-valued function whose orbit map embeds a
Bernoulli system into the weighted sequence space, plus its verification
battery.

A model is a list of stages.  Stage j carries a tower patch (erase on
B_N E_j, write the ball center on B_{N0} E_j, zero on the annulus) followed
by a value split (every constancy value u becomes u -+ s, routed by
membership in the j-th enumerated cylinder).  Evaluating the function at a
point walks the stages in order, so a point's value depends on finitely
many coordinates, all of them read at absolute positions from the point's
Philox counters.

Bookkeeping per stage records the two value sets per level, their interval
covers, the separation / exception / hitting / cover-width budgets, and the
per-stage checks.  Conventions chosen where the construction leaves a free
hand (and enforced by the recorded checks):

* stage-1 split offset is ``EPS1``, making the first-level separation
  exactly twice ``EPS1``;
* later split offsets are an eighth of the previous cover width;
* the recorded separation budget of a new level is the observed minimal
  gap deflated by the stage's (1 + 1/n) factor, so the level-n separation
  condition holds at creation by construction;
* exception budgets halve per level; hitting budgets come from the exact
  marker measure of the stage tower, deflated by (1 + 1/n) and a safety
  factor so the Monte-Carlo lower confidence bound can clear them.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import dynamics, groups, stats, trace
from .config import ExperimentConfig
from .dynamics import CylinderSet, DynamicalSystem, PointBatch, TowerSpec
from .errors import CapacityError, DomainError, StageError
from .groups import GroupSpec
from .measures import WeightTable


# ---------------------------------------------------------------------------
# basis balls


class BallSpec(NamedTuple):
    """An open ball with a dyadic finite-support center.

    ``level`` is the dyadic scale m: the support lies in B_m and every
    coefficient is j / 2^m with |j| <= 2^(2m).
    """

    index: int
    level: int
    center: tuple  # sorted tuple of (element, coefficient)
    radius: float

    def center_dict(self) -> dict:
        return dict(self.center)

    def max_abs(self) -> float:
        return max((abs(c) for _, c in self.center), default=0.0)

    def to_dict(self, spec: GroupSpec) -> dict:
        return {
            "index": self.index,
            "level": self.level,
            "radius": self.radius,
            "center": [[_elem_to_json(spec, g), c] for g, c in self.center],
        }


def _zigzag(t: int) -> int:
    """0, 1, -1, 2, -2, ..."""
    if t == 0:
        return 0
    half, odd = divmod(t + 1, 2)
    return half if odd == 0 else -half


def _center_count(spec: GroupSpec, m: int) -> int:
    radix = 2 * 4**m + 1
    return radix ** len(groups.ball(spec, m))


def _decode_center(spec: GroupSpec, m: int, c: int) -> tuple:
    ball_m = groups.ball(spec, m)
    radix = 2 * 4**m + 1
    coeffs = []
    for g in ball_m:
        c, digit = divmod(c, radix)
        j = _zigzag(digit)
        if j:
            coeffs.append((g, j / 2**m))
    return tuple(coeffs)


def _ball_descriptors(spec: GroupSpec):
    """Diagonal stream of (level m, radius exponent mp, center index c)."""
    for s in itertools.count(0):
        for m in range(s + 1):
            c_cap = min(_center_count(spec, m), s + 1)
            for mp in range(s + 1):
                for c in range(c_cap):
                    if max(m, mp, c) == s:
                        yield (m, mp, c)


def basis_balls(k: int, spec: GroupSpec) -> BallSpec:
    """The k-th ball of the dyadic basis enumeration (k = 0 is (0, radius 1))."""
    if k < 0:
        raise DomainError("ball index must be >= 0")
    for i, (m, mp, c) in enumerate(_ball_descriptors(spec)):
        if i == k:
            return BallSpec(
                index=k,
                level=m,
                center=_decode_center(spec, m, c),
                radius=2.0**-mp,
            )
    raise DomainError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# model stages


class StageSplit(NamedTuple):
    """u -> (u - s, u + s) for every parent value u, s the ``offset``; the
    minus side is taken on the routing set."""

    a_index: int
    offset: float
    parents: tuple  # sorted

    def children(self, values) -> tuple:
        """u - s and u + s of every u of ``values``, in turn."""
        return tuple(v for u in values for v in (u - self.offset, u + self.offset))


class ModelStage:
    """One stage: a tower patch (erase on B_n E, n the tower height, write
    the center ``xi``, a dict on B_{n0}, on B_{n0} E, zero on the annulus),
    then the value ``split``.  ``hit_ball`` makes a stage without its split,
    and ``build_model`` puts the split stage in its place.

    The array form is built here, once: ``ball`` holds the coordinates of
    the locate ball B_n in ``groups.ball`` order and ``ball_xi`` the values
    of ``xi`` aligned with it; ``cylinder`` is the arrays of the routing
    cylinder ``dynamics.routing_cylinder(spec, split.a_index)`` (empty
    before the split), and the split as its sorted parent
    ``keys`` with their ``minus`` and ``plus`` images (None before it).
    ``reach`` is the (lo, hi) corner offsets of every bit the stage's events
    read around a cell: the tower's ``box`` (B_n and the marker) joined with
    the cylinder's span.
    """

    def __init__(self, tower: TowerSpec, xi: dict, n0: int, split: StageSplit | None = None):
        self.tower, self.xi, self.n0, self.split = tower, xi, n0, split
        spec = tower.spec
        ball_n = groups.ball(spec, tower.n)
        self.ball = groups.coords(spec, ball_n)
        self.ball_xi = np.array([xi.get(g, 0.0) for g in ball_n], dtype=np.float64)
        cylinder = CylinderSet(()) if split is None else dynamics.routing_cylinder(spec, split.a_index)
        self.cylinder = cylinder.arrays(spec)
        corners = np.vstack((*tower.box, self.cylinder[0]))
        self.reach = corners.min(axis=0), corners.max(axis=0)
        self.keys = self.minus = self.plus = None
        if split is not None:
            self.keys = np.array(split.parents, dtype=np.float64)
            self.minus, self.plus = self.keys - split.offset, self.keys + split.offset


class StageState:
    """Snapshot recorded after stage n completes; ``checks`` collects the
    stage's check records.  ``value_sets`` maps each level to its sorted
    (minus-side, plus-side) values; the range (the level-n values) and the
    ``covers`` (width ``beta`` around each value) follow from them."""

    def __init__(
        self, n: int, ball: BallSpec, eta: float, beta: float, eps: dict, gamma: dict, delta: dict,
        value_sets: dict,
    ):
        self.n, self.ball, self.eta, self.beta = n, ball, eta, beta
        self.eps, self.gamma, self.delta = eps, gamma, delta
        self.value_sets = value_sets
        self.range_values = tuple(sorted(value_sets[n][0] + value_sets[n][1]))
        self.covers = {
            i: tuple(tuple((u - beta / 2.0, u + beta / 2.0) for u in side) for side in sides)
            for i, sides in value_sets.items()
        }
        self.checks: dict = {}

    def to_dict(self, spec: GroupSpec) -> dict:
        return {
            "n": self.n,
            "ball": self.ball.to_dict(spec),
            "eta": self.eta,
            "beta": self.beta,
            "eps": {str(i): v for i, v in self.eps.items()},
            "gamma": {str(i): v for i, v in self.gamma.items()},
            "delta": {str(i): v for i, v in self.delta.items()},
            "range_values": list(self.range_values),
            "value_sets": {
                str(i): [list(v0), list(v1)] for i, (v0, v1) in self.value_sets.items()
            },
            "covers": {
                str(i): [[list(iv) for iv in c0], [list(iv) for iv in c1]]
                for i, (c0, c1) in self.covers.items()
            },
            "checks": self.checks,
        }


class ModelFunction:
    """The staged finite-valued function, evaluable at sampled points, with
    the weight table ``w`` of the space it maps into and ``history``, the
    ``StageState`` of each stage ``build_model`` completed."""

    def __init__(self, system: DynamicalSystem, stages: list, w: WeightTable):
        if w.spec != system.group:
            raise DomainError(f"the weight table is on {w.spec}, the system on {system.group}")
        self.system, self.stages, self.w = system, stages, w
        self.history: list[StageState] = []

    @property
    def spec(self) -> GroupSpec:
        return self.system.group

    def range_values(self) -> tuple:
        """Analytic range after the last stage (values the evaluator can emit)."""
        values = {0.0}
        for st in self.stages:
            values |= set(st.xi.values()) | {0.0}
            if st.split is not None:
                values = set(st.split.children(values))
        return tuple(sorted(values))

    def max_abs(self) -> float:
        return max((abs(v) for v in self.range_values()), default=0.0)

    def tail(self, radius: int) -> float:
        """max|f| * sqrt(w-mass outside B_radius): the bound on the norm of
        an orbit vector outside the window B_radius, with the mass bounded by
        the stored complement plus the truncation tail."""
        return self.max_abs() * math.sqrt(self.w.tail_mass_outside_ball(radius))

    def to_dict(self) -> dict:
        spec = self.spec

        def pairs(d: dict) -> list:
            """``[element, value]`` of every item of ``d``, in ``sort_key`` order."""
            ordered = sorted(d.items(), key=lambda kv: groups.sort_key(spec, kv[0]))
            return [[_elem_to_json(spec, g), v] for g, v in ordered]

        out = {"system": self.system.to_dict(), "stages": []}
        for st in self.stages:
            d = {
                "tower": st.tower.to_dict(),
                "tower_pattern": [[_elem_to_json(spec, g), b] for g, b in st.tower.pattern.bits],
                "xi": pairs(st.xi),
                "n0": st.n0,
                "n": st.tower.n,
                "split": None
                if st.split is None
                else {
                    "a_index": st.split.a_index,
                    "offset": st.split.offset,
                    "map": [
                        [u.hex(), [v.hex() for v in st.split.children((u,))]]
                        for u in st.split.parents
                    ],
                },
            }
            out["stages"].append(d)
        return out


def _elem_to_json(spec: GroupSpec, g):
    if spec.kind == "integers":
        return g
    return list(g)


# ---------------------------------------------------------------------------
# evaluation

# Cells of the points x window bit matrix filled at once.  Batches of points
# and long orbit windows are split into chunks under it, so the evaluator's
# memory stays bounded on Z^3.
WINDOW_CELL_BUDGET = 1 << 20


def _span(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The corners of the box around ``cells``, a (C, d) coordinate array,
    reduced column by column (several times faster than along axis 0)."""
    return np.array([c.min() for c in cells.T]), np.array([c.max() for c in cells.T])


def _shape(lo: np.ndarray, hi: np.ndarray) -> tuple:
    return tuple((hi - lo + 1).tolist())


class OrbitWindow:
    """Stage events and values of a batch of Bernoulli points at ``cells``,
    a (C, d) coordinate array, all decided on one ``dynamics.BitBox``.

    The cells are relative to each point's offset, so the cell u of the
    point x stands for T_u x.  The window works on the box [lo, hi] around
    them: the bit box holds the same Philox and forced bits at absolute
    positions as every other read, and each stage event is an array mask on
    it.  The base (the marker cylinder) and routing (the stage's cylinder)
    are ``meets`` of the bit box, and ``locate`` takes the first g in
    ``groups.ball`` order whose shift lands in the base.  So every value
    equals the one cell-by-cell reads of each point give.  ``locate``,
    ``routing`` and ``step`` are laid out on the box; ``values`` picks the
    cells from it.  Each window adds its bit cells to ``trace.COUNTERS``.
    """

    def __init__(self, stages: list, points: PointBatch, cells: np.ndarray, span: tuple):
        self.spec = points.system.group
        self.stages = stages
        self.cells = cells
        self.lo, self.hi = span
        self.shape = _shape(self.lo, self.hi)
        self.n_points = len(points)
        self.bits = dynamics.BitBox.read(points, *self.bit_box(stages, span))
        trace.COUNTERS["window_cells"] += self.bits.array.size
        self._base: dict = {}
        self._route: dict = {}

    @staticmethod
    def bit_box(stages: list, span: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The corners of the box of every coordinate that the stage events
        read on the box ``span``: the span grown by each stage's reach."""
        lo, hi = span
        for st in stages:
            lo, hi = np.minimum(lo, span[0] + st.reach[0]), np.maximum(hi, span[1] + st.reach[1])
        return lo, hi

    def base(self, j: int) -> dynamics.BitBox:
        """The stage-(j+1) base on the window's box grown by the locate
        ball B_n: [lo, hi] - B_n, which is [lo - n, hi + n]."""
        if j not in self._base:
            n = self.stages[j].tower.n
            self._base[j] = self.bits.meets(self.stages[j].tower.marker, self.lo - n, _shape(self.lo - n, self.hi + n))
        return self._base[j]

    def in_base(self, j: int, u: np.ndarray | int = 0) -> np.ndarray:
        """Per point: does T_u x lie in the stage-(j+1) base?  ``u``, in
        coordinates, defaults to the origin."""
        return self.base(j).take(u, (1,) * len(self.lo)).reshape(-1)

    def locate(self, j: int) -> np.ndarray:
        """Per point and cell u of the box: the index in the locate ball of
        the first g with T_{g^-1} T_u x in the stage-(j+1) base, or -1.

        Each base hit v marks the cells v + g of the box; the smallest ball
        index that lands on a cell wins.
        """
        ball, base = self.stages[j].ball, self.base(j)
        point, *hit = np.nonzero(base.array)
        cells = (np.stack(hit, axis=-1) + (base.lo - self.lo))[:, None] + ball
        inside = ((cells >= 0) & (cells < self.shape)).all(axis=2)
        at, gi = np.nonzero(inside)
        flat = np.ravel_multi_index((point[at], *cells[at, gi].T), (self.n_points,) + self.shape)
        first = np.full(self.n_points * math.prod(self.shape), len(ball), dtype=np.int64)
        np.minimum.at(first, flat, gi)
        first[first == len(ball)] = -1
        return first.reshape((self.n_points,) + self.shape)

    def routing(self, j: int) -> np.ndarray:
        """Per point and cell u of the box: is T_u x in the stage-(j+1)
        routing cylinder?"""
        if j not in self._route:
            self._route[j] = self.bits.meets(self.stages[j].cylinder, self.lo, self.shape).array
        return self._route[j]

    def step(self, j: int, v: np.ndarray) -> np.ndarray:
        """f_{j+1} on every cell of the box from f_j there (``v``, updated in
        place and returned): the stage-(j+1) patch, then its split.  A value
        with no key in the split map raises KeyError."""
        st = self.stages[j]
        first = self.locate(j)
        located = first >= 0
        v[located] = st.ball_xi[first[located]]
        if st.split is None:
            return v
        pos = np.searchsorted(st.keys, v)
        np.minimum(pos, len(st.keys) - 1, out=pos)
        missing = st.keys[pos] != v
        if missing.any():
            raise KeyError(float(v[missing][0]))
        route = self.routing(j)
        np.take(st.plus, pos, out=v)
        v[route] = st.minus[pos[route]]
        return v

    def values(self) -> np.ndarray:
        """The points x cells matrix of f: each stage applied once, in
        order, on the box, then read at the cells."""
        v = np.zeros((self.n_points,) + self.shape, dtype=np.float64)
        for j in range(len(self.stages)):
            v = self.step(j, v)
        flat = np.ravel_multi_index(tuple((self.cells - self.lo).T), self.shape)
        return v.reshape(self.n_points, -1)[:, flat]

    def in_hit_event(self, i: int, n: int) -> np.ndarray:
        """Per point: membership in E^{(n)}_i, the stage-i base trimmed of
        the B_{N_i + N_j} neighborhoods of all later patch regions j <= n.
        The cells must span B_{N_i}."""
        hit = self.in_base(i - 1).copy()
        n_i = self.stages[i - 1].tower.n
        for j in range(i + 1, n + 1):
            for k in groups.coords(self.spec, groups.ball(self.spec, n_i + self.stages[j - 1].tower.n)):
                hit &= ~self.in_base(j - 1, -k)
        return hit


def orbit_windows(model: ModelFunction, points: PointBatch, cells: np.ndarray):
    """``OrbitWindow`` at ``cells``, a (C, d) coordinate array, and at
    their span, taken once, for consecutive chunks of the Bernoulli batch
    ``points``, each under ``WINDOW_CELL_BUDGET`` bit cells.  CapacityError
    if one point's bit box alone is over the budget."""
    span = _span(cells)
    lo, hi = OrbitWindow.bit_box(model.stages, span)
    per_point = math.prod(_shape(lo, hi))
    if per_point > WINDOW_CELL_BUDGET:
        raise CapacityError(
            f"the bit box {tuple(lo.tolist())}..{tuple(hi.tolist())} of one point holds {per_point} cells, "
            f"over the window budget of {WINDOW_CELL_BUDGET}"
        )
    step = WINDOW_CELL_BUDGET // per_point
    for start in range(0, len(points), step):
        yield OrbitWindow(model.stages, points[start:start + step], cells, span)


def phi(model: ModelFunction, points, n_trunc: int) -> tuple[list, np.ndarray, float]:
    """Truncated orbit vectors {f(T_g x)}_{g in B_n_trunc} of ``points``:
    ``(ball, values, tail)`` with ``values[i, k]`` = f(T_{ball[k]} x_i) and
    ``tail`` = ``model.tail(n_trunc)``, shared by every row.
    """
    ball, cells = model.w.ball(n_trunc)
    tail = model.tail(n_trunc)
    blocks = [win.values() for win in orbit_windows(model, points, cells)]
    values = np.concatenate(blocks) if blocks else np.zeros((0, len(ball)))
    return ball, values, tail


def distances(window: list, values: np.ndarray, ball: BallSpec, w: WeightTable) -> np.ndarray:
    """Per row of ``values`` (a vector on ``window``), its distance to the
    center of ``ball``, bit-equal to the dict norm of the difference.

    The atoms of ``window`` and of the center are put once in ``sort_key``
    order, and each distance is sqrt of the running sum of
    ``diff * diff * w(g)`` over the atoms of positive weight: ``np.cumsum``
    adds left to right as the scalar loop does, and the exact zeros it also
    adds do not change a sum of non-negative terms.  Atoms of zero stored
    weight add the tail allowance ``max |diff|^2 * tail_bound``.
    """
    spec = w.spec
    coeffs = ball.center_dict()
    atoms = sorted(set(window) | set(coeffs), key=lambda g: groups.sort_key(spec, g))
    index = {g: k for k, g in enumerate(atoms)}
    diff = np.zeros((len(values), len(atoms)))
    diff[:, [index[g] for g in window]] = values
    diff[:, [index[g] for g in coeffs]] -= list(coeffs.values())
    weight = w.read(w.cells(atoms))
    stored = weight != 0.0
    terms = diff[:, stored]  # squared, weighted and summed in this one buffer
    terms *= terms
    terms *= weight[stored]
    inside = np.cumsum(terms, axis=1, out=terms)[:, -1] if terms.shape[1] else np.zeros(len(values))
    outside = np.abs(diff[:, ~stored]).max(axis=1, initial=0.0)
    return np.sqrt(inside + outside * outside * w.tail_bound)


def point_values(
    model: ModelFunction, points
) -> tuple[np.ndarray, np.ndarray]:
    """(values, routing) at the points themselves: ``values[k - 1]`` holds
    f_k for every stage prefix k, ``routing[j]`` the membership in the
    stage-(j+1) routing cylinder."""
    n = len(model.stages)
    values = np.empty((n, len(points)))
    routing = np.empty((n, len(points)), dtype=bool)
    start = 0
    for win in orbit_windows(model, points, model.w.ball(0)[1]):
        stop = start + win.n_points
        v = np.zeros((win.n_points,) + win.shape)
        for j in range(n):
            v = win.step(j, v)
            values[j, start:stop] = v.reshape(-1)
            routing[j, start:stop] = win.routing(j).reshape(-1)
        start = stop
    return values, routing


# ---------------------------------------------------------------------------
# stage construction


# Fixed constants of the staged construction.
INITIAL_ETA = 0.5  # tower-mass target before any stage exists
EPS1 = 0.1  # stage-1 split offset
GAMMA1 = 0.05  # level-1 exception budget, halved per level
DELTA_CAP = 0.01  # ceiling on a level's hitting budget
BETA_INIT = 0.02  # ceiling on the cover width
MAX_TOWER_HEIGHT = 24
DELTA_SAFETY = 0.9  # room for the Monte-Carlo bound under the hitting budget


def compute_eta(history: list[StageState]) -> float:
    """min over i <= n of the four stage budgets, scaled by 1/(2n(n+1))."""
    if not history:
        raise DomainError("eta needs at least one completed stage")
    state = history[-1]
    n = state.n
    worst = math.inf
    for i in range(1, n + 1):
        worst = min(
            worst, state.eps[i], state.gamma[i], state.delta[i], history[i - 1].beta
        )
    return worst / (2 * n * (n + 1))


def _tail_height(w: WeightTable, max_abs: float, ball: BallSpec) -> int:
    """Smallest tower height N with max|f| sqrt(tail outside B_N) < radius/2,
    found by doubling from just above the center support B_level."""
    radius = ball.radius
    n = max(2 * ball.level, 2)
    while n <= MAX_TOWER_HEIGHT:
        tail = w.tail_mass_outside_ball(n)
        if max_abs * math.sqrt(tail) < radius / 2.0:
            return n
        n *= 2
    raise StageError(
        f"tail criterion unsatisfiable: need height > {MAX_TOWER_HEIGHT} "
        f"for radius {radius} and sup |f| = {max_abs}"
    )


def hit_ball(model: ModelFunction, ball: BallSpec, quartic_budget: float) -> tuple[ModelStage, float]:
    """Patch the model so the next ball is hit with positive probability.

    Returns the new (patch-only) stage and the eta in force.
    The marker is lengthened until both the tower mass target eta/2 and the
    remaining quartic-norm budget hold.
    """
    sys = model.system
    spec = model.spec
    eta = INITIAL_ETA if not model.history else compute_eta(model.history)
    xi = ball.center_dict()
    max_abs = max(model.max_abs(), ball.max_abs())
    n = _tail_height(model.w, max(max_abs, 1e-9), ball)
    prev_heights = [st.tower.n for st in model.stages]
    blow = max(
        [len(groups.ball(spec, n_i + n)) for n_i in prev_heights]
        + [len(groups.ball(spec, n))]
    )
    rarity = blow / len(groups.ball(spec, n))
    # shrink the base until the quartic budget survives the patch
    patch_sup = max(ball.max_abs(), 0.0)
    factor = 1.0
    while True:
        tower = dynamics.rokhlin_tower(
            sys, n, eta, rarity_factor=rarity * factor
        )
        patch_quartic = tower.mu_bn_upper() * patch_sup**4
        if quartic_budget + patch_quartic < 0.5:
            break
        factor *= 4.0
        if factor > 2**80:
            raise StageError("cannot keep the quartic norm below 1")
    return ModelStage(tower, xi, ball.level), eta


def verify_patch(model: ModelFunction, ball: BallSpec, cfg: ExperimentConfig) -> dict:
    """On conditional draws from E of the stage just added: the window
    matches the center exactly and the full truncated distance stays below
    half the radius."""
    stage_index = len(model.stages) - 1
    stage = model.stages[stage_index]
    points = dynamics.conditional_base_sampler(
        stage.tower, cfg.seed + stage_index, cfg.samples.base_samples
    )
    window, cells = model.w.ball(stage.tower.n)
    weights = model.w.read(cells)
    tail = model.tail(stage.tower.n)
    center = ball.center_dict()
    center_row = np.array([center.get(g, 0.0) for g in window])
    mismatches = 0
    worst = 0.0
    n_eval = 0
    for win in orbit_windows(model, points, cells):
        inside = win.in_base(stage_index)
        diff = win.values()[inside] - center_row
        n_eval += len(diff)
        mismatches += int((diff != 0.0).sum())
        # each row's squares added left to right in window order
        dist2 = np.cumsum(diff * diff * weights, axis=1)[:, -1]
        worst = max(worst, float((np.sqrt(dist2) + tail).max(initial=0.0)))
    return {
        "draws": n_eval,
        "window_mismatches": mismatches,
        "worst_distance": worst,
        "radius": ball.radius,
        "pass": bool(mismatches == 0 and worst < ball.radius / 2.0 and n_eval > 0),
    }


def split_values(model: ModelFunction) -> StageSplit:
    """Split every current value u into u -+ s routed by the cylinder of the
    stage just added.

    s is an eighth of the previous cover width (``EPS1`` at stage 1), keeping the offspring inside the interiors of the previous
    covers; all new points must be distinct or the stage fails.
    """
    n_new = len(model.stages)
    s = EPS1 if n_new == 1 else model.history[n_new - 2].beta / 8.0
    values = model.range_values()  # range of the patched model f-hat
    split = StageSplit(a_index=n_new, offset=s, parents=values)
    offspring = split.children(values)
    if len(set(offspring)) != len(offspring):
        raise StageError(f"value split collides at offset {s}: values {list(values)}")
    return split


def _update_bookkeeping(history: list[StageState], stage: ModelStage, ball: BallSpec, eta: float) -> StageState:
    """Derive the stage-(n+1) value sets, covers, and budgets of the split
    ``stage``, whose parents are the values of the patched model; verify the
    exact separation and nesting conditions on the recorded finite sets."""
    split, tower = stage.split, stage.tower
    n_new = len(history) + 1
    value_sets: dict = {}
    eps: dict = {}
    gamma: dict = {}
    delta: dict = {}
    prev = history[-1] if history else None
    if prev is not None:
        for i, sides in prev.value_sets.items():
            value_sets[i] = tuple(tuple(sorted(split.children(side))) for side in sides)
            eps[i] = prev.eps[i]
            gamma[i] = prev.gamma[i]
            delta[i] = prev.delta[i]
    children = split.children(split.parents)
    new0, new1 = tuple(sorted(children[0::2])), tuple(sorted(children[1::2]))
    value_sets[n_new] = (new0, new1)
    gap_new = _set_distance(new0, new1)
    if gap_new <= 0:
        raise StageError("new level separation vanished")
    eps[n_new] = gap_new / (1.0 + 1.0 / n_new)
    gamma[n_new] = GAMMA1 * 0.5 ** (n_new - 1)
    delta[n_new] = min(
        DELTA_CAP,
        DELTA_SAFETY * tower.mu_pattern / (1.0 + 1.0 / n_new),
    )
    # covers: width beta_new around every point, constrained by separation
    # (condition 2), shrinkage (nesting), and the ceiling BETA_INIT
    slack = math.inf
    for i, (v0, v1) in value_sets.items():
        d = _set_distance(v0, v1)
        if d - eps[i] * (1.0 + 1.0 / (n_new + 1)) < 0:
            raise StageError(f"separation at level {i} broken: {d}")
        slack = min(slack, d - eps[i] * (1.0 + 1.0 / (n_new + 1)))
    beta = min(BETA_INIT, slack / 2.0)
    if prev is not None:
        beta = min(beta, 0.75 * prev.beta)
    if beta <= 0:
        raise StageError("no positive cover width remains")
    state = StageState(n_new, ball, eta, beta, eps, gamma, delta, value_sets)
    state.checks["separation"] = _check_separation(state)
    state.checks["nesting"] = _check_nesting(prev, state, split)
    return state


def _set_distance(a, b) -> float:
    return min(abs(x - y) for x in a for y in b)


def _interval_sets_distance(a, b) -> float:
    d = math.inf
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            if hi1 < lo2:
                d = min(d, lo2 - hi1)
            elif hi2 < lo1:
                d = min(d, lo1 - hi2)
            else:
                return 0.0
    return d


def _check_separation(state: StageState) -> dict:
    """Conditions 1_n and 2_n on the recorded finite sets, plus disjointness
    of the two interval systems at every level."""
    n = state.n
    ok = True
    detail = {}
    for i, (v0, v1) in state.value_sets.items():
        d_vals = _set_distance(v0, v1)
        d_cov = _interval_sets_distance(*state.covers[i])
        lvl_ok = (
            d_vals >= state.eps[i] * (1.0 + 1.0 / n)
            and d_cov >= state.eps[i] * (1.0 + 1.0 / (n + 1))
            and d_cov > 0.0
        )
        detail[str(i)] = {
            "value_gap": d_vals,
            "cover_gap": d_cov,
            "required_values": state.eps[i] * (1.0 + 1.0 / n),
            "required_covers": state.eps[i] * (1.0 + 1.0 / (n + 1)),
            "pass": bool(lvl_ok),
        }
        ok = ok and lvl_ok
    return {"levels": detail, "pass": bool(ok)}


def _check_nesting(prev: StageState | None, state: StageState, split: StageSplit) -> dict:
    """Both children's new cover intervals sit inside their parent's
    previous cover, for every parent of every earlier level and side."""
    if prev is None:
        return {"pass": True, "checked": 0}
    checked = 0
    ok = True
    for i, sides in prev.value_sets.items():
        for side, parents in enumerate(sides):
            cover = dict(zip(state.value_sets[i][side], state.covers[i][side]))
            for u, (plo, phi_) in zip(parents, prev.covers[i][side]):
                for lo, hi in (cover[v] for v in split.children((u,))):
                    checked += 1
                    ok = ok and plo <= lo and hi <= phi_
    return {"pass": bool(ok), "checked": checked}


def build_model(sys: DynamicalSystem, w: WeightTable, cfg: ExperimentConfig) -> ModelFunction:
    """Alternate ball patches and value splits for the ``cfg.stages`` stages.

    Every stage records its exact checks and its patch verification in its
    ``StageState``, and a failed one aborts.  The Monte-Carlo checks of the
    finished model are ``run_stage_checks``.
    """
    if cfg.stages < 1:
        raise DomainError("need at least one stage")
    model = ModelFunction(system=sys, stages=[], w=w)
    quartic = 0.0
    drift = 0.0
    for idx in range(cfg.stages):
        ball = basis_balls(idx, sys.group)
        stage, eta = hit_ball(model, ball, quartic)
        model.stages.append(stage)
        patch_report = verify_patch(model, ball, cfg)
        if not patch_report["pass"]:
            raise StageError(f"patch verification failed at stage {idx + 1}: {patch_report}")
        split = split_values(model)
        stage = model.stages[-1] = ModelStage(stage.tower, stage.xi, stage.n0, split)
        drift += split.offset
        quartic += stage.tower.mu_bn_upper() * (ball.max_abs() + drift) ** 4
        state = _update_bookkeeping(model.history, stage, ball, eta)
        state.checks["patch"] = patch_report
        if not state.checks["separation"]["pass"]:
            raise StageError(f"separation check failed at stage {idx + 1}")
        if not state.checks["nesting"]["pass"]:
            raise StageError(f"nesting check failed at stage {idx + 1}")
        model.history.append(state)
    return model


def run_stage_checks(model: ModelFunction, cfg: ExperimentConfig) -> None:
    """Monte-Carlo checks 3_n, 4_n, 5_n recorded into the final stage state."""
    history = model.history
    n = len(history)
    state = history[-1]
    probe = dynamics.probe_system(model.system, "checks", cfg.seed)
    samples = cfg.samples.check_samples
    points = dynamics.sample_points(probe, np.arange(samples))
    prefix_values, routing = point_values(model, points)
    values = prefix_values[-1]
    # 1_n range containment on samples (exact float membership)
    in_range = np.isin(values, state.range_values).all()
    state.checks["range"] = {"samples": samples, "pass": bool(in_range)}
    # 3_n exceptions per level
    exc_detail = {}
    ok3 = True
    for i in range(1, n + 1):
        v0, v1 = state.value_sets[i]
        budget = state.gamma[i] * (1.0 - 1.0 / n)
        expected = np.where(routing[i - 1], np.isin(values, v0), np.isin(values, v1))
        exceptions = int((~expected).sum())
        ci_upper, lvl_ok = stats.certify(stats.UPPER, budget, counts=(exceptions, samples))
        exc_detail[str(i)] = {"exceptions": exceptions, "budget": budget, "ci_upper": ci_upper, "pass": lvl_ok}
        ok3 = ok3 and lvl_ok
    state.checks["exceptions"] = {"levels": exc_detail, "pass": bool(ok3)}
    # 4_n hitting events, via conditional draws from each tower base
    hit_detail = {}
    ok4 = True
    draws = cfg.samples.base_samples
    for i in range(1, n + 1):
        required = state.delta[i] * (1.0 + 1.0 / n)
        survive, in_ball, mass_lower, lvl_ok = conditional_hits(model, i, cfg, cfg.seed + 1000 + i, required)
        hit_detail[str(i)] = {
            "draws": draws,
            "survived": survive,
            "in_ball": in_ball,
            "mass_lower": mass_lower,
            "required": required,
            "pass": lvl_ok,
        }
        ok4 = ok4 and lvl_ok
    state.checks["hitting"] = {"levels": hit_detail, "pass": bool(ok4)}
    # 5_n quartic norm, estimated for every stage prefix
    drift = sum(st.split.offset for st in model.stages if st.split is not None)
    analytic = drift**4
    for st, hs in zip(model.stages, history):
        analytic += st.tower.mu_bn_upper() * (hs.ball.max_abs() + drift) ** 4
    per_stage = {}
    ok5 = analytic < 1.0
    for k in range(1, n + 1):
        fourth = prefix_values[k - 1] ** 4
        est = float(fourth.mean())
        se = float(fourth.std(ddof=1) / math.sqrt(samples))
        upper, below = stats.certify(stats.UPPER, 1.0, normal=(est, se))  # ||f||_4 < 1 iff E f^4 < 1
        per_stage[str(k)] = {"estimate": est**0.25, "ci_upper": upper**0.25}
        ok5 = ok5 and below
    state.checks["quartic"] = {
        "per_stage": per_stage,
        "estimate": per_stage[str(n)]["estimate"],
        "ci_upper": per_stage[str(n)]["ci_upper"],
        "analytic_bound": analytic**0.25,
        "pass": bool(ok5),
    }


# ---------------------------------------------------------------------------
# verification battery


def equivariance_check(model: ModelFunction, samples: int, hs: list, n_trunc: int, seed: int = 0) -> list:
    """Per h of ``hs``: exact coefficient equality of phi(T_h x) and
    S_h phi(x) on the common truncation ball.  The right side phi(x) is
    evaluated once; each left side in its own window, read at T_h x, one h
    at a time."""
    spec = model.spec
    for h in hs:
        groups.check_element(spec, h)
    probe = dynamics.probe_system(model.system, "equiv", seed)
    points = dynamics.sample_points(probe, np.arange(samples))
    ball, right, _ = phi(model, points, n_trunc)
    index = {g: k for k, g in enumerate(ball)}
    reports = []
    for h in hs:
        common_ball = n_trunc - groups.word_length(spec, h)
        common, left, _ = phi(model, points.moved(h), common_ball)
        # (S_h v)(g) = v(g h)
        shifted = right[:, [index[groups.multiply(spec, g, h)] for g in common]]
        mismatches = int((left != shifted).sum())
        reports.append({
            "h": groups.element_str(spec, h),
            "samples": samples,
            "common_ball": common_ball,
            "compared": left.size,
            "mismatches": mismatches,
            "pass": mismatches == 0,
        })
    return reports


def support_and_iso_check(model: ModelFunction, cfg: ExperimentConfig) -> dict:
    """Frequencies of hitting each stage ball, the symmetric-difference
    budgets for the cover preimages, and disjointness of the recorded
    interval systems, over ``cfg.samples.check_samples`` probe points.

    A hitting budget too rare for crude sampling is certified instead by
    stratified draws from the stage tower base: the exact base measure times
    the conditional hit rate lower-bounds the hit frequency.
    """
    history = model.history
    n = len(history)
    state = history[-1]
    samples, seed = cfg.samples.check_samples, cfg.seed
    points, phis = probe_orbit_vectors(model, samples, cfg.n_trunc, seed)
    prefix_values, routing = point_values(model, points)
    values = prefix_values[-1]
    detail = {}
    overall = True
    for i in range(1, n + 1):
        hits, indeterminate = ball_hits(phis, history[i - 1].ball, model.w)
        hit_lower, hit_ok = stats.certify(stats.LOWER, state.delta[i], counts=(hits, samples))
        hit_method = "direct"
        conditional_lower = None
        if not hit_ok:
            *_, conditional_lower, hit_ok = conditional_hits(model, i, cfg, seed + 5000 + i, state.delta[i])
            hit_method = "stratified"
        # symmetric difference of the minus-side cover preimage against A_i
        in_cover = np.zeros(samples, dtype=bool)
        for lo, hi in state.covers[i][0]:
            in_cover |= (lo <= values) & (values <= hi)
        sym = int((in_cover != routing[i - 1]).sum())
        sym_upper, sym_ok = stats.certify(stats.UPPER, state.gamma[i], counts=(sym, samples))
        disjoint = _interval_sets_distance(*state.covers[i]) > 0.0
        detail[str(i)] = {
            "hit_freq": hits / samples,
            "hit_ci_lower": hit_lower,
            "hit_method": hit_method,
            "stratified_lower": conditional_lower,
            "delta": state.delta[i],
            "indeterminate": indeterminate,
            "hit_pass": hit_ok,
            "symdiff_freq": sym / samples,
            "symdiff_ci_upper": sym_upper,
            "gamma": state.gamma[i],
            "symdiff_pass": sym_ok,
            "covers_disjoint": bool(disjoint),
        }
        overall = overall and hit_ok and sym_ok and disjoint
    return {"samples": samples, "levels": detail, "pass": bool(overall)}


def probe_orbit_vectors(model: ModelFunction, samples: int, n_trunc: int, seed: int) -> tuple[PointBatch, tuple]:
    """The first ``samples`` points of the seeded "iso" probe system, and
    their orbit vectors as ``phi`` returns them."""
    probe = dynamics.probe_system(model.system, "iso", seed)
    points = dynamics.sample_points(probe, np.arange(samples))
    return points, phi(model, points, n_trunc)


def _membership(dist: np.ndarray, tail: float, ball: BallSpec) -> tuple[np.ndarray, np.ndarray]:
    """(hit, indeterminate) per distance: certainly inside ``ball`` given the
    tail bound, and inside only if the tail is ignored."""
    hit = dist + tail < ball.radius
    return hit, ~hit & (dist <= ball.radius)


def ball_hits(phis: tuple, ball: BallSpec, w: WeightTable) -> tuple[int, int]:
    """(hits, indeterminate) among the orbit vectors ``phis`` (as ``phi``
    returns them): those certainly inside ``ball`` given their tail bound,
    and those inside only if the tail is ignored."""
    window, values, tail = phis
    hit, indeterminate = _membership(distances(window, values, ball, w), tail, ball)
    return int(hit.sum()), int(indeterminate.sum())


def conditional_hits(
    model: ModelFunction, i: int, cfg: ExperimentConfig, seed: int, required: float
) -> tuple[int, int, float, bool]:
    """(survived, in_ball, lower, pass) over ``cfg.samples.base_samples``
    draws from the stage-i tower base, sampled with ``seed``: draws in the
    trimmed hit event E^{(n)}_i, and those whose orbit vector lies certainly
    in the stage-i ball.  The exact base measure times the Clopper-Pearson
    lower end of the conditional hit rate is ``lower``, a lower bound on
    mu(phi in U_i); it passes above ``required``."""
    tower = model.stages[i - 1].tower
    n = len(model.history)
    draws = cfg.samples.base_samples
    points = dynamics.conditional_base_sampler(tower, seed, draws)
    hit = [win.in_hit_event(i, n) for win in orbit_windows(model, points, model.w.ball(tower.n)[1])]
    survivors = points[np.concatenate(hit) if hit else np.zeros(0, dtype=bool)]
    in_ball = ball_hits(phi(model, survivors, cfg.n_trunc), model.history[i - 1].ball, model.w)[0]
    lower, ok = stats.certify(stats.LOWER, required, counts=(in_ball, draws), scale=tower.mu_pattern)
    return len(survivors), in_ball, lower, ok


def orbit_frequency(model: ModelFunction, x: PointBatch, a, ball: BallSpec, n_steps: int, n_trunc: int) -> dict:
    """Visit frequency of the orbit x, T_a x, T_a^2 x, ... to the ball, for
    the one-row batch ``x``.

    The orbit vectors of a stretch of steps are read from one window along
    a, holding the truncation ball of every step in it; stretches are cut so
    a window stays under ``WINDOW_CELL_BUDGET`` bit cells.  A step whose
    window distance is inside the radius but whose tail bound leaves
    membership open is flagged indeterminate.
    """
    spec = model.spec
    window, offsets = model.w.ball(n_trunc)
    tail = model.tail(n_trunc)
    a_c = groups.coords(spec, [a])[0]

    ball_lo, ball_hi = _span(offsets)
    stretch = n_steps
    while stretch > 1:
        # a stretch's span is the window ball's, shifted by each a^t up to a^(stretch-1)
        end = (stretch - 1) * a_c
        lo, hi = OrbitWindow.bit_box(model.stages, (ball_lo + np.minimum(end, 0), ball_hi + np.maximum(end, 0)))
        if math.prod(_shape(lo, hi)) <= WINDOW_CELL_BUDGET:
            break
        stretch = (stretch + 1) // 2
    hit = []
    indeterminate = 0
    for first in range(0, n_steps, stretch):
        steps = np.arange(first, min(n_steps, first + stretch))
        cells = (steps[:, None, None] * a_c + offsets).reshape(-1, len(a_c))
        (win,) = orbit_windows(model, x, cells)
        values = win.values().reshape(len(steps), len(window))
        step_hit, step_open = _membership(distances(window, values, ball, model.w), tail, ball)
        hit += step_hit.tolist()
        indeterminate += int(step_open.sum())
    series = [1.0 if h else 0.0 for h in hit]
    hits = sum(hit)
    freq = hits / n_steps
    se = stats.batch_means_se(series)
    ci_lower, visits = stats.certify(stats.LOWER, 0.0, normal=(freq, se))
    return {
        "a": groups.element_str(spec, a),
        "n_steps": n_steps,
        "frequency": freq,
        "hits": hits,
        "indeterminate": indeterminate,
        "se_batch": se,
        "ci_lower": ci_lower,
        "ci_upper": min(1.0, stats.certify(stats.UPPER, 1.0, normal=(freq, se))[0]),
        "pass": visits,
        "series": series,
    }


def orbit_consistency(model: ModelFunction, rep: dict, cfg: ExperimentConfig) -> dict:
    """The visit frequency ``rep`` of ``orbit_frequency`` to the first
    stage ball, against that ball's hit frequency measured on the first
    min(check_samples, 1000) "iso" probe points at seed + 7.  It passes when
    the orbit visits the ball (``rep``'s lower end above 0) and the gap lies
    within 1e-6 plus the 95% normal quantile times the sum of both
    standard errors."""
    samples = min(cfg.samples.check_samples, 1000)
    _, phis = probe_orbit_vectors(model, samples, cfg.n_trunc, cfg.seed + 7)
    mu = ball_hits(phis, model.history[0].ball, model.w)[0] / samples
    se_mu = math.sqrt(max(mu * (1 - mu), 1e-12) / samples)
    gap = abs(rep["frequency"] - mu)
    tolerance, ok = stats.certify(stats.COVERS, gap, normal=(1e-6, rep["se_batch"] + se_mu))
    return {"measured_mu": mu, "gap": gap, "tolerance": tolerance, "pass": rep["pass"] and ok}
