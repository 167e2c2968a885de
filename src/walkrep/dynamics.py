"""Measure-preserving systems, lazy sample points, cylinder families, and
marker towers.

Two system kinds:

* ``bernoulli`` -- the two-sided fair-coin shift indexed by any finitely
  generated roster group.  A sampled point realizes its coordinates lazily
  from a keyed hash, so reads are deterministic, i.i.d. fair bits, and
  exactly equivariant: acting by ``h`` only composes the stored offset.
* ``rotation`` -- products of circle rotations for the integer/lattice
  kinds, with an irrational frequency vector.

Towers are marker events: the base E is the cylinder "the marker pattern
occurs at the origin".  The marker is self-avoiding: every shift by a
nonzero m with |m| <= 2n contradicts it, so no two marker occurrences lie
within 2n of each other.  Hence the B_n translates of E are disjoint, the
base measure is the exact cylinder measure, and a point conditioned on E is
the point with the marker bits forced; Monte Carlo re-checks the first two.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import groups, stats
from .errors import DomainError, TowerConstructionError
from .groups import GroupSpec

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
# Draws the tower Monte Carlo holds at once.  Each carries a keyed-hash
# state and a bit cache, so chunks keep its memory flat at any sample count.
SIEVE_CHUNK = 512


@dataclass(frozen=True)
class DynamicalSystem:
    """A Bernoulli shift or an irrational rotation product over a group."""

    kind: str
    group: GroupSpec
    seed: int
    alpha: tuple = ()

    def __post_init__(self):
        if self.kind not in ("bernoulli", "rotation"):
            raise DomainError(f"unknown system kind {self.kind!r}")
        if not self.group.finitely_generated:
            raise DomainError("systems act through finitely generated kinds")
        if self.kind == "rotation":
            if self.group.kind not in ("integers", "lattice"):
                raise DomainError("rotation systems need integer/lattice groups")
            if len(self.alpha) != self.group.d:
                raise DomainError("frequency vector length must equal the rank")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "group": self.group.to_dict(),
            "seed": self.seed,
            "alpha": list(self.alpha),
        }


def bernoulli_system(group: GroupSpec, seed: int) -> DynamicalSystem:
    return DynamicalSystem("bernoulli", group, seed)


def probe_system(sys: DynamicalSystem, *tag) -> DynamicalSystem:
    """``sys`` with its seed replaced by one derived from the seed and ``tag``,
    so each Monte-Carlo harness draws points independent of the others."""
    return replace(sys, seed=_derived_seed(sys.seed, *tag))


def rotation_system(group: GroupSpec, seed: int, alpha=None) -> DynamicalSystem:
    if alpha is None:
        alpha = (SQRT2_MINUS_1,) * group.d
    return DynamicalSystem("rotation", group, seed, tuple(alpha))


# keyed-hash digests made in this process, one per Bernoulli bit realized,
# and the points the conditional base sampler drew; commands report the
# change of each over their run (see ``counters``)
_digests = 0
_sampler_draws = 0


def counters() -> dict:
    """The process-wide counts so far, by the name commands report them."""
    return {"bits_hashed": _digests, "sampler_draws": _sampler_draws}


def cell_messages(spec: GroupSpec, positions) -> list[bytes]:
    """The hashed encoding of each position: its canonical string."""
    return [groups.element_str(spec, p).encode() for p in positions]


def _keyed_bit(state, message: bytes) -> int:
    """The fair bit at an encoded position: the low bit of the one-byte
    blake2b digest of ``message`` under the root's key, with ``state`` the
    blake2b object already keyed (a copy skips re-keying)."""
    global _digests
    _digests += 1
    h = state.copy()
    h.update(message)
    return h.digest()[0] & 1


class _BernoulliRoot:
    """Shared coordinate source for one sampled point and all its translates."""

    __slots__ = ("spec", "state", "bits", "forced")

    def __init__(self, spec: GroupSpec, key: bytes, forced: dict | None = None):
        self.spec = spec
        self.state = hashlib.blake2b(key=key, digest_size=1)
        self.bits: dict = {}
        self.forced = forced or {}

    def bit(self, position) -> int:
        cached = self.bits.get(position)
        if cached is not None:
            return cached
        value = self.forced.get(position)
        if value is None:
            value = _keyed_bit(self.state, cell_messages(self.spec, (position,))[0])
        self.bits[position] = value
        return value


def read_bits(roots, positions, messages) -> list[int]:
    """``[r.bit(p) for r in roots for p in positions]``, the batched form of
    ``_BernoulliRoot.bit``; ``messages`` are the ``cell_messages`` of
    ``positions``, so roots read at the same absolute positions share one
    encoding per cell.  Cached and forced bits are honoured and new bits
    cached exactly as ``bit`` does."""
    cells = list(zip(positions, messages))
    out = []
    append = out.append
    for root in roots:
        known = root.bits
        for p, msg in cells:
            value = known.get(p)
            if value is None:
                value = root.forced.get(p)
                if value is None:
                    value = _keyed_bit(root.state, msg)
                known[p] = value
            append(value)
    return out


@dataclass
class PointHandle:
    """A sampled point together with a group offset.

    Bernoulli reads obey ``read(act(h, x), g) == read(x, g h)`` exactly, since
    both sides hash the same absolute position.
    """

    system: DynamicalSystem
    root: object
    offset: object

    def read(self, g) -> int:
        """Coordinate of the point at position g (Bernoulli only)."""
        if self.system.kind != "bernoulli":
            raise DomainError("coordinate reads are for Bernoulli points")
        pos = groups.multiply(self.system.group, g, self.offset)
        return self.root.bit(pos)

    def position(self) -> tuple:
        """Current torus position (rotation only)."""
        if self.system.kind != "rotation":
            raise DomainError("positions are for rotation points")
        base = self.root
        if self.system.group.kind == "integers":
            off = (self.offset,)
        else:
            off = self.offset
        return tuple(
            (u + n * a) % 1.0 for u, n, a in zip(base, off, self.system.alpha)
        )


def _root_key(sys_seed: int, draw: int) -> bytes:
    return hashlib.blake2b(
        struct.pack("<Qq", sys_seed & (2**64 - 1), draw), digest_size=16
    ).digest()


def sample_point(sys: DynamicalSystem, draw: int) -> PointHandle:
    """The ``draw``-th i.i.d. sample; coordinates realize lazily."""
    if sys.kind == "bernoulli":
        root = _BernoulliRoot(sys.group, _root_key(sys.seed, draw))
        return PointHandle(sys, root, groups.identity(sys.group))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=sys.seed, spawn_key=(draw,))
    )
    u = tuple(float(x) for x in rng.random(sys.group.d))
    zero = 0 if sys.group.kind == "integers" else groups.identity(sys.group)
    return PointHandle(sys, u, zero)


def act(sys: DynamicalSystem, g, x: PointHandle) -> PointHandle:
    """T_g x; exact composition law act(g, act(h, x)) == act(gh, x)."""
    return PointHandle(sys, x.root, groups.multiply(sys.group, g, x.offset))


@dataclass(frozen=True)
class CylinderSet:
    """Finite coordinate constraints: position -> required bit."""

    bits: tuple  # sorted tuple of (position, bit)

    @staticmethod
    def from_dict(spec: GroupSpec, constraints: dict) -> "CylinderSet":
        items = sorted(
            constraints.items(), key=lambda kv: groups.sort_key(spec, kv[0])
        )
        return CylinderSet(tuple((g, int(b)) for g, b in items))

    def measure(self) -> float:
        return 0.5 ** len(self.bits)

    def contains(self, x: PointHandle) -> bool:
        return all(x.read(g) == b for g, b in self.bits)

    def constraints(self) -> dict:
        return dict(self.bits)


class SetFamily:
    """Dense-in-spirit enumeration of cylinders with infinite repetition.

    Distinct descriptors are all partial bit assignments on the balls B_k,
    enumerated by increasing k (an assignment appears at the first k whose
    ball contains its support).  Index i >= 1 maps to the descriptor at the
    ruler position r(i) = number of trailing zero bits of i, so every
    descriptor recurs infinitely often.
    """

    def __init__(self, spec: GroupSpec):
        if not spec.finitely_generated:
            raise DomainError("cylinder families need word balls")
        self.spec = spec
        self._descriptors: list[CylinderSet] = []
        self._gen = self._generate()

    def _generate(self):
        spec = self.spec
        for k in itertools.count(0):
            ball_k = groups.ball(spec, k)
            prev = set(groups.ball(spec, k - 1)) if k > 0 else set()
            # base-3 digit per coordinate: unset / 0 / 1
            for digits in itertools.product((None, 0, 1), repeat=len(ball_k)):
                support = {
                    g: b for g, b in zip(ball_k, digits) if b is not None
                }
                if k > 0 and set(support) <= prev:
                    continue  # already enumerated at a smaller k
                yield CylinderSet.from_dict(spec, support)

    def descriptor(self, j: int) -> CylinderSet:
        while len(self._descriptors) <= j:
            self._descriptors.append(next(self._gen))
        return self._descriptors[j]

    @staticmethod
    def ruler(i: int) -> int:
        """Position of the lowest set bit of i (i >= 1)."""
        if i < 1:
            raise DomainError("family indices start at 1")
        return (i & -i).bit_length() - 1

    def set_at(self, i: int) -> CylinderSet:
        return self.descriptor(self.ruler(i))


def _marker_pattern(spec: GroupSpec, length: int) -> dict:
    """A self-avoiding marker: every shift by m with 0 < |m| <= length
    contradicts it.

    integers: ``1^length 0``, ones on 0..length-1 and a 0 at ``length``.
    lattice d: ones on the block [0, length)^d and zeros on its d negative
    faces {x_i = -1, other coordinates in [0, length)}.  For m != 0 with
    |m|_1 <= length, pick i with m_i != 0: if m_i > 0 the shifted face
    x_i = m_i - 1 meets the block of ones, and if m_i < 0 the face x_i = -1
    meets the shifted block, since every |m_j| < length.
    """
    if spec.kind == "integers":
        pattern = {i: 1 for i in range(length)}
        pattern[length] = 0
        return pattern
    if spec.kind == "lattice":
        block = list(itertools.product(range(length), repeat=spec.d))
        pattern = {c: 1 for c in block}
        for i in range(spec.d):
            for c in block:
                if c[i] == 0:
                    pattern[c[:i] + (-1,) + c[i + 1:]] = 0
        return pattern
    raise DomainError("towers are built for integer/lattice Bernoulli shifts")


@dataclass
class TowerSpec:
    """The tower base E: the cylinder of a marker ``pattern`` at the origin.

    ``rokhlin_tower`` builds only self-avoiding markers, so E is exactly
    the cylinder, mu(E) is ``mu_pattern``, and the B_n translates of E are
    disjoint.  The Monte-Carlo fields record the check of mu(B_n E) and of
    that disjointness.
    """

    system: DynamicalSystem
    n: int
    eta: float
    pattern: dict
    mu_pattern: float
    mc_samples: int = 0
    mc_hits_bn: int = 0
    mc_ci_upper: float = 1.0
    collisions: int = 0

    @property
    def spec(self) -> GroupSpec:
        return self.system.group

    def mu_bn_upper(self) -> float:
        return len(groups.ball(self.spec, self.n)) * self.mu_pattern

    def in_base(self, x: PointHandle) -> bool:
        """x in E: the marker at the origin."""
        return all(x.read(p) == b for p, b in self.pattern.items())

    def locate(self, x: PointHandle):
        """The first g in B_n (``groups.ball`` order) with T_{g^-1} x in E,
        or None."""
        sys = self.system
        for g in groups.ball(self.spec, self.n):
            if self.in_base(act(sys, groups.inverse(self.spec, g), x)):
                return g
        return None

    def to_dict(self) -> dict:
        spec = self.spec
        return {
            "n": self.n,
            "eta": self.eta,
            "pattern": [[groups.element_str(spec, p), b] for p, b in sorted(
                self.pattern.items(), key=lambda kv: groups.sort_key(spec, kv[0])
            )],
            "mu_pattern": self.mu_pattern,
            # E is the marker cylinder, so both bounds on mu(E) are exact
            "mu_e_lower": self.mu_pattern,
            "mu_e_upper": self.mu_pattern,
            "mu_bn_upper": self.mu_bn_upper(),
            "mc": {
                "samples": self.mc_samples,
                "hits_bn": self.mc_hits_bn,
                "ci_upper": self.mc_ci_upper,
                "collisions": self.collisions,
            },
        }


def _compatible_with_shift(spec: GroupSpec, pattern: dict, m) -> bool:
    """Whether ``pattern`` agrees with its translate by m, which holds
    pattern[q] at q m: each cell p is checked against pattern[p m^-1], and
    the scan stops at the first contradiction."""
    m_inv = groups.inverse(spec, m)
    return all(pattern.get(groups.multiply(spec, p, m_inv), v) == v for p, v in pattern.items())


def rokhlin_tower(
    sys: DynamicalSystem,
    n: int,
    eta: float,
    seed: int = 0,
    mc_samples: int = 0,
    rarity_factor: float = 1.0,
    base_within: CylinderSet | None = None,
    max_marker: int = 220,
) -> TowerSpec:
    """A base event E whose B_n translates are disjoint, with mu(B_n E) < eta/2.

    The marker length grows from 2n until ``|B_n| * mu(pattern) *
    rarity_factor`` drops below eta/2 (rarity_factor > 1 reserves room for
    later trimming of E).  The pattern must contradict each of its shifts by
    m in B_2n minus e, or ``TowerConstructionError`` is raised.  Monte-Carlo
    estimation of mu(B_n E) and a translate-collision scan run when
    ``mc_samples`` > 0.
    """
    if sys.kind != "bernoulli":
        raise DomainError("towers are built on Bernoulli systems")
    spec = sys.group
    if spec.kind not in ("integers", "lattice"):
        raise DomainError("towers are built for integer/lattice shifts")
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must be in (0,1)")
    ball_n = groups.ball(spec, n)
    target = eta / 2.0 / max(rarity_factor, 1.0)

    length = max(2 * n, 2)
    while True:
        pattern = _marker_pattern(spec, length)
        if base_within is not None:
            merged = dict(base_within.constraints())
            for p, b in pattern.items():
                if merged.get(p, b) != b:
                    raise TowerConstructionError(
                        "marker contradicts the prescribed base cylinder"
                    )
                merged[p] = b
            pattern = merged
        mu_pattern = 0.5 ** len(pattern)
        if len(ball_n) * mu_pattern < target:
            break
        length += 1
        if length > max_marker:
            raise TowerConstructionError(
                f"no marker of length <= {max_marker} reaches "
                f"mu(B_n E) < {target:.3g}; lengthen the cap or relax eta"
            )

    for m in groups.ball(spec, 2 * n):
        if m != groups.identity(spec) and _compatible_with_shift(spec, pattern, m):
            raise TowerConstructionError(
                f"the marker is compatible with its shift by "
                f"{groups.element_str(spec, m)}, so translates of the base can meet"
            )
    tower = TowerSpec(system=sys, n=n, eta=eta, pattern=pattern, mu_pattern=mu_pattern)
    if mc_samples > 0:
        _tower_monte_carlo(tower, mc_samples, seed)
    return tower


def _tower_monte_carlo(tower: TowerSpec, samples: int, seed: int) -> None:
    """Estimate mu(B_n E) and count points in two translates of E.

    A marker sieve over chunks of ``SIEVE_CHUNK`` draws: for each g in B_n
    and each pattern cell p in turn, only the draws whose bit at p g^-1
    matches stay, so the survivors are the draws with T_{g^-1} x in E.
    Each draw reads the bits that ``in_base(T_{g^-1} x)`` over the ball
    reads, so hits and collisions are exact.
    """
    spec = tower.spec
    probe = probe_system(tower.system, "tower", seed)
    wanted = list(tower.pattern.values())
    sieves = []  # per g in B_n: the cells p g^-1 and their encodings
    for g in groups.ball(spec, tower.n):
        g_inv = groups.inverse(spec, g)
        cells = [groups.multiply(spec, p, g_inv) for p in tower.pattern]
        sieves.append((cells, cell_messages(spec, cells)))
    hits = 0
    collisions = 0
    for start in range(0, samples, SIEVE_CHUNK):
        points = [
            sample_point(probe, draw)
            for draw in range(start, min(samples, start + SIEVE_CHUNK))
        ]
        located = [0] * len(points)
        for cells, messages in sieves:
            alive = range(len(points))
            for cell, msg, b in zip(cells, messages, wanted):
                bits = read_bits([points[i].root for i in alive], (cell,), (msg,))
                alive = [i for i, v in zip(alive, bits) if v == b]
            for i in alive:
                located[i] += 1
        hits += sum(1 for count in located if count)
        collisions += sum(1 for count in located if count > 1)
    tower.mc_samples = samples
    tower.mc_hits_bn = hits
    tower.collisions = collisions
    tower.mc_ci_upper = stats.clopper_pearson(hits, samples)[1]


def _derived_seed(*parts) -> int:
    msg = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def conditional_base_sampler(tower: TowerSpec, seed: int):
    """Yield points distributed as mu( . | E ).

    E is the marker cylinder, so its conditional law forces the marker bits
    and leaves every other coordinate fair: each draw is a fresh root with
    the pattern forced.
    """
    global _sampler_draws
    sys = tower.system
    counter = 0
    draw = 0
    while True:
        root = _BernoulliRoot(
            sys.group,
            _root_key(_derived_seed(sys.seed, "cond", seed, counter), draw),
            forced=dict(tower.pattern),
        )
        draw += 1
        if draw % 997 == 0:
            counter += 1
        _sampler_draws += 1
        yield PointHandle(sys, root, groups.identity(sys.group))
