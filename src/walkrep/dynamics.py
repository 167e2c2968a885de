"""Measure-preserving systems, sampled points, cylinders and their routing
family, and marker towers.

Every sampled point is a row of a ``PointBatch``: an array of draw numbers
sharing the system, the stream, the offset and the forced overlay.  A
single point is the one-row batch ``sample_points(sys, [draw])``, and T_h
of a batch is ``batch.moved(h)``, which only composes the stored offset.

Two system kinds:

* ``bernoulli`` -- the two-sided fair-coin shift indexed by any finitely
  generated roster group.  A point's coordinates are output bits of the
  counter-based generator Philox4x64-10, keyed by the system seed and
  counted by the cell's block, the point's draw and its stream, so reads are
  deterministic, i.i.d. fair bits, and exactly equivariant.  Every read goes
  through ``read_cells``, one vectorized points x cells read of a batch.
* ``rotation`` -- products of circle rotations for the integer/lattice
  kinds, with an irrational frequency vector; ``PointBatch.torus`` gives
  the rows' coordinates on one axis.

Cylinder events on Z^d have one reader, ``BitBox``: a batch's bits on a box,
read once, whose ``meets`` decides a cylinder at every cell of a sub-box.
The tower Monte Carlo and the model's orbit windows both read through it.

Towers are marker events: the base E is the cylinder "the marker pattern
occurs at the origin".  The marker is self-avoiding: every shift by a
nonzero m with |m| <= 2n contradicts it, so no two marker occurrences lie
within 2n of each other.  Hence the B_n translates of E are disjoint, the
base measure is the exact cylinder measure, and a point conditioned on E is
the point with the marker bits forced; Monte Carlo re-checks the first two.
"""

from __future__ import annotations

import _blake2 as hashlib  # CPython's own blake2b (hashlib's too), which loads no OpenSSL
import functools
import itertools
import struct
from typing import NamedTuple

import numpy as np

from . import groups, trace
from .config import SQRT2_MINUS_1
from .errors import DomainError, EncodingError, TowerConstructionError
from .groups import GroupSpec

# The longest marker ``rokhlin_tower`` tries before it gives up.
MAX_MARKER = 220
# The Philox blocks one chunk of the tower Monte Carlo reads.  A chunk reads
# a draws x box bit array; sized in blocks, not draws, it keeps memory flat
# at any sample count and box, and Philox calls few where a box is small.
SIEVE_BLOCKS = 1 << 12
# Cylinder cells that ``BitBox.meets`` ANDs over its whole box; about 2^-8 of
# the box survives them on fair bits, and later cells are read there only
DENSE_CELLS = 8


class DynamicalSystem:
    """A Bernoulli shift or an irrational rotation product over a group."""

    def __init__(self, kind: str, group: GroupSpec, seed: int, alpha: tuple = ()):
        self.kind, self.group, self.seed, self.alpha = kind, group, seed, alpha
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

    @functools.cached_property
    def key(self) -> tuple[int, int]:
        """The Philox key of the system's Bernoulli points: two words of a
        blake2b digest of the seed, derived once per system."""
        digest = hashlib.blake2b(f"philox|{self.seed}".encode(), digest_size=16).digest()
        return struct.unpack("<QQ", digest)


def bernoulli_system(group: GroupSpec, seed: int) -> DynamicalSystem:
    return DynamicalSystem("bernoulli", group, seed)


def probe_system(sys: DynamicalSystem, *tag) -> DynamicalSystem:
    """``sys`` with its seed replaced by one derived from the seed and ``tag``,
    so each Monte-Carlo harness draws points independent of the others."""
    return DynamicalSystem(sys.kind, sys.group, _derived_seed(sys.seed, *tag), sys.alpha)


def rotation_system(group: GroupSpec, seed: int, alpha=None) -> DynamicalSystem:
    if alpha is None:
        alpha = (SQRT2_MINUS_1,) * group.d
    return DynamicalSystem("rotation", group, seed, tuple(alpha))


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC 2011): the round multipliers, each with its 32-bit
# halves, and the Weyl increments of the key
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MULT = [(np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in PHILOX_M]
_WEYL = [np.uint64(w) for w in PHILOX_W]
_LO32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
BLOCK_CELLS = 256  # the 4 x 64 output bits of one counter
# log2 of the tile sides on Z^d: 256 cells on Z, 16 x 16 on Z^2, 8 x 8 x 4 on Z^3
_TILE_BITS = {1: (8,), 2: (4, 4), 3: (3, 3, 2)}


def _mulhilo(a: np.ndarray, m: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products a * m, the high word
    summed from the products of 32-bit halves."""
    m, m_lo, m_hi = m
    a_lo, a_hi = a & _LO32, a >> _U32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _U32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * m_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), a * m


def philox(counter: tuple, key: tuple) -> tuple:
    """Philox4x64-10: the four output words of each counter.  ``counter``
    holds four uint64 arrays and ``key`` two, broadcast together; the key
    moves by ``PHILOX_W`` between the 10 rounds."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = k0 + _WEYL[0], k1 + _WEYL[1]
        hi0, lo0 = _mulhilo(c0, _MULT[0])
        hi1, lo1 = _mulhilo(c2, _MULT[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _cell_blocks(spec: GroupSpec, positions) -> tuple[np.ndarray, np.ndarray]:
    """(block, lane) of each absolute position: the counter word of its block
    of ``BLOCK_CELLS`` cells, and its place in the block.

    Z^d is tiled by boxes: the block packs the tile's coordinates into equal
    fields of the word, and the lane is the cell's row-major place in its
    tile.  The Heisenberg group (zigzag coordinates, 24 bits each) and the
    free groups (reduced words in bijective base 2d) number their elements
    by an injective code, and a block holds 256 consecutive codes.  A
    position past the range of the block word raises EncodingError.
    """
    if spec.kind == "free":
        codes = []
        for word in positions:
            code = 0
            for c in word:
                code = code * 2 * spec.d + (c if c > 0 else spec.d - c)
            codes.append(code)
        if max(codes) >> 72:
            raise EncodingError("a free word past the 72-bit cell code has no Philox block")
        codes = np.array(codes, dtype=object)
        return (codes >> 8).astype(np.uint64), (codes & 255).astype(np.int64)
    if spec.kind == "heisenberg":
        zig = (positions << 1) ^ (positions >> 63)
        if (zig >> 24).any():
            raise EncodingError("a Heisenberg coordinate past 2^23 has no Philox block")
        zig = zig.astype(np.uint64)
        block = (zig[:, 0] << np.uint64(40)) | (zig[:, 1] << np.uint64(16)) | (zig[:, 2] >> np.uint64(8))
        return block, (zig[:, 2] & np.uint64(255)).astype(np.int64)
    sides = _TILE_BITS[positions.shape[1]]
    field = 64 // len(sides)
    block, lane = np.uint64(0), 0
    for axis, side in enumerate(sides):
        tile = positions[:, axis] >> side
        if field < 64 and ((tile >> (field - 1)) - (tile >> 63)).any():
            raise EncodingError(f"a coordinate past the {field}-bit tile field of Z^{len(sides)} has no Philox block")
        block = (block << np.uint64(field % 64)) | (tile.astype(np.uint64) & np.uint64(2**field - 1))
        lane = (lane << side) | (positions[:, axis] & ((1 << side) - 1))
    return block, lane


class PointBatch:
    """Sampled points as arrays: row i is T_offset of the ``draws[i]``-th
    sample of ``system``.  A Bernoulli row reads the Philox counters of its
    draw and ``stream`` under the system key, with the ``forced`` cells
    overlaid.  ``sample_points`` and ``conditional_base_sampler`` make one
    over a range of draws."""

    def __init__(self, system: DynamicalSystem, draws: np.ndarray, stream: int, forced: tuple | None, offset):
        self.system = system
        self.draws = draws  # uint64 draw numbers
        self.stream = stream
        self.forced = forced  # (block, lane, bit) arrays of the forced cells
        self.offset = offset

    def __len__(self) -> int:
        return len(self.draws)

    def __getitem__(self, rows) -> "PointBatch":
        """The rows ``rows``: a slice, an index array or a boolean mask."""
        return PointBatch(self.system, self.draws[rows], self.stream, self.forced, self.offset)

    def moved(self, h) -> "PointBatch":
        """T_h of every row.  Reads obey ``read_cells(batch.moved(h), [g])
        == read_cells(batch, [g h])`` exactly, since both sides read the
        same absolute position; ``moved(g)`` of ``moved(h)`` is ``moved(gh)``."""
        offset = groups.multiply(self.system.group, h, self.offset)
        return PointBatch(self.system, self.draws, self.stream, self.forced, offset)

    def torus(self, axis: int) -> tuple[np.ndarray, int]:
        """Rotation points: per row, the draw's torus coordinate on ``axis``;
        and the offset's coordinate there, shared by the rows, so T_g of a
        row sits at ``(u + (g + shift) * alpha) % 1.0`` on that axis."""
        from . import pcg64

        u = pcg64.roots(self.system.seed, self.draws, self.system.group.d)[:, axis]
        return u, int(groups.coords(self.system.group, [self.offset])[0, axis])


def _overlay(words: np.ndarray, tiles: np.ndarray, forced: tuple) -> np.ndarray:
    """``words`` (rows x tiles x 4) with the forced cells that fall in
    ``tiles`` overlaid: one clear and one set mask per block word, built in
    one scatter over the forced lanes and applied to every row at once."""
    f_block, f_lane, f_bit = forced
    at = np.minimum(np.searchsorted(tiles, f_block), len(tiles) - 1)
    hit = tiles[at] == f_block
    lane = f_lane[hit]
    shift = (lane & 63).astype(np.uint64)
    masks = np.zeros((2, len(tiles), 4), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (np.arange(2)[:, None], at[hit], lane >> 6),
        np.stack((np.uint64(1) << shift, f_bit[hit].astype(np.uint64) << shift)),
    )
    return (words & ~masks[0]) | masks[1]


def read_cells(points: PointBatch, cells) -> np.ndarray:
    """The coordinates of the Bernoulli batch ``points`` at ``cells``, as a
    points x cells uint8 matrix: entry (i, j) is the bit of row i at the
    absolute position cells[j] offset.  ``cells`` are group elements or,
    except on the free groups, an (C, k) integer array of their coordinates.

    The rows read every block their cells meet in one Philox call, at
    counter (block, draw, stream, 0) under the system key.  Lane k of a
    block is bit k % 64 of output word k // 64.  Forced cells overlay the
    drawn bits.
    """
    if points.system.kind != "bernoulli":
        raise DomainError("coordinate reads are for Bernoulli points")
    out = np.empty((len(points), len(cells)), dtype=np.uint8)
    if out.size == 0:
        return out
    spec = points.system.group
    if spec.kind == "free":
        block, lane = _cell_blocks(spec, [groups.multiply(spec, c, points.offset) for c in cells])
    else:
        block, lane = _cell_blocks(spec, groups.translate(spec, groups.coords(spec, cells), points.offset))
    tiles, where = np.unique(block, return_inverse=True)
    # key and stream as arrays: numpy warns on overflow of uint64 scalars
    key = np.array(points.system.key, dtype=np.uint64)
    words = np.stack(philox(
        (tiles, points.draws[:, None], np.array([points.stream], dtype=np.uint64), np.uint64(0)),
        (key[:1], key[1:]),
    ), axis=-1)
    if points.forced is not None:
        words = _overlay(words, tiles, points.forced)
    # one word per cell, shifted in place and masked into ``out``: memory
    # stays at points x cells words, however sparse the cells lie in blocks
    cell_words = words.reshape(len(points), -1)[:, where * 4 + (lane >> 6)]
    cell_words >>= (lane & 63).astype(np.uint64)
    np.bitwise_and(cell_words, np.uint64(1), out=out, casting="unsafe")
    trace.COUNTERS["philox_blocks"] += words.shape[0] * words.shape[1]
    trace.COUNTERS["bits_drawn"] += out.size
    return out


class BitBox(NamedTuple):
    """A points x box boolean array on Z^d, laid out from the corner ``lo``
    with the points first: the bits of a batch on a box (``read``), or a
    cylinder event decided on them (``meets``)."""

    array: np.ndarray
    lo: np.ndarray

    @staticmethod
    def read(points: PointBatch, lo: np.ndarray, hi: np.ndarray) -> "BitBox":
        """The bits of ``points`` on the box [lo, hi] of coordinates relative
        to the batch offset, in one ``read_cells`` call."""
        shape = tuple((hi - lo + 1).tolist())
        cells = np.indices(shape).reshape(len(shape), -1).T + lo
        return BitBox(read_cells(points, cells).reshape((len(points),) + shape).astype(bool), lo)

    def take(self, lo: np.ndarray, shape: tuple) -> np.ndarray:
        """The part on the box of ``shape`` at ``lo``, as a view."""
        idx = [slice(None)]
        for a, s, size in zip(np.subtract(lo, self.lo).tolist(), shape, self.array.shape[1:]):
            if not 0 <= a <= size - s:
                raise DomainError("read outside the bit box")
            idx.append(slice(a, a + s))
        return self.array[tuple(idx)]

    def meets(self, cylinder: tuple, lo: np.ndarray, shape: tuple) -> "BitBox":
        """Per point and cell u of the box of ``shape`` at ``lo``: is the bit
        at u + c equal to b for every (c, b) of ``cylinder``, a (coordinates,
        bits) pair of arrays?  The first ``DENSE_CELLS`` cells are ANDed over
        the whole box, and each later one is read only where all before it
        matched."""
        at, bits = lo + cylinder[0], cylinder[1]
        event = np.ones((len(self.array),) + shape, dtype=bool)
        for p, b in zip(at[:DENSE_CELLS], bits[:DENSE_CELLS]):
            one = self.take(p, shape)
            event &= one if b else ~one
        if len(bits) > DENSE_CELLS:
            live = np.nonzero(event)
            for p, b in zip(at[DENSE_CELLS:], bits[DENSE_CELLS:]):
                if not live[0].size:
                    break
                keep = self.take(p, shape)[live] == b
                live = tuple(i[keep] for i in live)
            event.fill(False)
            event[live] = True
        return BitBox(event, lo)


def sample_points(sys: DynamicalSystem, draws) -> PointBatch:
    """The i.i.d. samples numbered ``draws`` (an integer array) as one
    batch; a single point is ``sample_points(sys, [draw])``."""
    return PointBatch(sys, np.asarray(draws, dtype=np.uint64), 0, None, groups.identity(sys.group))


class CylinderSet(NamedTuple):
    """Finite coordinate constraints: position -> required bit."""

    bits: tuple  # (position, bit) pairs in ``groups.sort_key`` order

    @staticmethod
    def from_dict(spec: GroupSpec, constraints: dict) -> "CylinderSet":
        items = sorted(constraints.items(), key=lambda kv: groups.sort_key(spec, kv[0]))
        return CylinderSet(tuple((g, int(b)) for g, b in items))

    def measure(self) -> float:
        return 0.5 ** len(self.bits)

    def arrays(self, spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
        """The constraints as a (coordinates, bits) pair of arrays, in
        ``bits`` order."""
        return groups.coords(spec, [g for g, _ in self.bits]), np.array([b for _, b in self.bits], dtype=np.uint8)


def cylinders(spec: GroupSpec):
    """Every cylinder once: the partial bit assignments on the balls B_k,
    by increasing k, each at the first k whose ball holds its support."""
    if not spec.finitely_generated:
        raise DomainError("cylinder families need word balls")
    for k in itertools.count(0):
        ball_k = groups.ball(spec, k)
        prev = set(groups.ball(spec, k - 1)) if k > 0 else set()
        # base-3 digit per coordinate: unset / 0 / 1
        for digits in itertools.product((None, 0, 1), repeat=len(ball_k)):
            support = {g: b for g, b in zip(ball_k, digits) if b is not None}
            if k > 0 and set(support) <= prev:
                continue  # already enumerated at a smaller k
            yield CylinderSet.from_dict(spec, support)


def routing_cylinder(spec: GroupSpec, i: int) -> CylinderSet:
    """The routing set of index i >= 1: the cylinder of ``cylinders`` at
    the ruler position r(i), the number of trailing zero bits of i, so every
    cylinder recurs infinitely often."""
    if i < 1:
        raise DomainError("family indices start at 1")
    return next(itertools.islice(cylinders(spec), (i & -i).bit_length() - 1, None))


def _marker_pattern(spec: GroupSpec, length: int) -> CylinderSet:
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
        return CylinderSet.from_dict(spec, {**dict.fromkeys(range(length), 1), length: 0})
    block = list(itertools.product(range(length), repeat=spec.d))
    pattern = {c: 1 for c in block}
    for i in range(spec.d):
        for c in block:
            if c[i] == 0:
                pattern[c[:i] + (-1,) + c[i + 1:]] = 0
    return CylinderSet.from_dict(spec, pattern)


class TowerSpec:
    """The tower base E: the cylinder of a marker ``pattern`` at the origin.

    ``rokhlin_tower`` builds only self-avoiding markers, so E is exactly
    the cylinder, mu(E) is ``mu_pattern``, and the B_n translates of E are
    disjoint; ``tower_check`` re-checks mu(B_n E) and that disjointness by
    Monte Carlo.
    """

    def __init__(self, system: DynamicalSystem, n: int, eta: float, pattern: CylinderSet):
        self.system, self.n, self.eta, self.pattern = system, n, eta, pattern

    @property
    def spec(self) -> GroupSpec:
        return self.system.group

    @property
    def mu_pattern(self) -> float:
        return self.pattern.measure()

    @functools.cached_property
    def marker(self) -> tuple[np.ndarray, np.ndarray]:
        """The pattern as a (coordinates, bits) pair of arrays."""
        return self.pattern.arrays(self.spec)

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The corners of the box whose bits ``located`` reads: the marker's
        cells shifted by every g^-1 in [-n, n]^d."""
        return self.marker[0].min(axis=0) - self.n, self.marker[0].max(axis=0) + self.n

    def mu_bn_upper(self) -> float:
        return len(groups.ball(self.spec, self.n)) * self.mu_pattern

    def located(self, points: PointBatch) -> np.ndarray:
        """Per point and g in B_n (``groups.ball`` order): is T_{g^-1} x in E?

        The base is decided once on the box [-n, n]^d, which holds every
        g^-1, and read there at each g^-1.
        """
        ball = groups.coords(self.spec, groups.ball(self.spec, self.n))
        n = np.full(ball.shape[1], self.n)
        bits = BitBox.read(points, *self.box)
        base = bits.meets(self.marker, -n, tuple((2 * n + 1).tolist()))
        return base.array[(slice(None), *(n - ball).T)]

    def to_dict(self) -> dict:
        """The tower, with an ``mc`` block of zero samples (``tower_check``
        fills it)."""
        spec = self.spec
        return {
            "n": self.n,
            "eta": self.eta,
            "pattern": [[groups.element_str(spec, p), b] for p, b in self.pattern.bits],
            "mu_pattern": self.mu_pattern,
            # E is the marker cylinder, so both bounds on mu(E) are exact
            "mu_e_lower": self.mu_pattern,
            "mu_e_upper": self.mu_pattern,
            "mu_bn_upper": self.mu_bn_upper(),
            "mc": {"samples": 0, "hits_bn": 0, "ci_upper": 1.0, "collisions": 0},
        }


def _compatible_with_shift(spec: GroupSpec, pattern: dict, m) -> bool:
    """Whether ``pattern``, a dict of position -> bit, agrees with its
    translate by m, which holds pattern[q] at q m: each cell p is checked
    against pattern[p m^-1], and the scan stops at the first contradiction."""
    m_inv = groups.inverse(spec, m)
    return all(pattern.get(groups.multiply(spec, p, m_inv), v) == v for p, v in pattern.items())


def rokhlin_tower(
    sys: DynamicalSystem,
    n: int,
    eta: float,
    rarity_factor: float = 1.0,
) -> TowerSpec:
    """A base event E whose B_n translates are disjoint, with mu(B_n E) < eta/2.

    The marker length grows from 2n until ``|B_n| * mu(pattern) *
    rarity_factor`` drops below eta/2 (rarity_factor > 1 reserves room for
    later trimming of E).  The pattern must contradict each of its shifts by
    m in B_2n minus e, or ``TowerConstructionError`` is raised.
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
        if len(ball_n) * pattern.measure() < target:
            break
        length += 1
        if length > MAX_MARKER:
            raise TowerConstructionError(
                f"no marker of length <= {MAX_MARKER} reaches "
                f"mu(B_n E) < {target:.3g}; lengthen the cap or relax eta"
            )

    lookup = dict(pattern.bits)
    for m in groups.ball(spec, 2 * n):
        if m != groups.identity(spec) and _compatible_with_shift(spec, lookup, m):
            raise TowerConstructionError(
                f"the marker is compatible with its shift by "
                f"{groups.element_str(spec, m)}, so translates of the base can meet"
            )
    return TowerSpec(system=sys, n=n, eta=eta, pattern=pattern)


def tower_check(tower: TowerSpec, samples: int, seed: int) -> dict:
    """The Monte-Carlo check of ``tower``: ``to_dict`` with the ``mc``
    block, and ``pass``.  It passes when no draw lies in two translates of
    E, the Clopper-Pearson upper end of mu(B_n E) lies below eta/2, and
    mu(E) > 0.

    Chunks of draws, each under ``SIEVE_BLOCKS`` Philox blocks, read their
    draws x box bit array and test T_{g^-1} x in E for every g in B_n at
    once (``TowerSpec.located``), so hits and collisions are exact.
    """
    from . import stats  # here, so processes that run no tower check do not compile it

    probe = probe_system(tower.system, "tower", seed)
    lo, hi = tower.box
    tiles = np.array(_TILE_BITS[len(lo)])
    chunk = max(1, SIEVE_BLOCKS // int(np.prod((hi >> tiles) - (lo >> tiles) + 1)))
    hits = collisions = 0
    for start in range(0, samples, chunk):
        points = sample_points(probe, np.arange(start, min(samples, start + chunk)))
        located = tower.located(points).sum(axis=1)
        hits += int((located > 0).sum())
        collisions += int((located > 1).sum())
    ci_upper, ok = stats.certify(stats.UPPER, tower.eta / 2.0, counts=(hits, samples))
    mc = {"samples": samples, "hits_bn": hits, "ci_upper": ci_upper, "collisions": collisions}
    return {**tower.to_dict(), "mc": mc, "pass": ok and collisions == 0 and tower.mu_pattern > 0.0}


def _derived_seed(*parts) -> int:
    msg = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def conditional_base_sampler(tower: TowerSpec, seed: int, draws: int) -> PointBatch:
    """The first ``draws`` points of mu( . | E ) for the sampler ``seed``.

    E is the marker cylinder, so its conditional law forces the marker bits
    and leaves every other coordinate fair: each draw is a fresh point of
    the sampler's own Philox stream with the pattern forced, one overlay
    shared by the whole batch.
    """
    sys = tower.system
    stream = _derived_seed("cond", seed) | 1 << 63  # never 0, the stream of sample_points
    forced = (*_cell_blocks(sys.group, tower.marker[0]), tower.marker[1])
    trace.COUNTERS["sampler_draws"] += draws
    return PointBatch(sys, np.arange(draws, dtype=np.uint64), stream, forced, groups.identity(sys.group))
