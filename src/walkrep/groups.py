"""Concrete groups: canonical encodings, arithmetic, and word-metric balls.

Supported kinds and their element encodings:

* ``integers``    -- int
* ``lattice``     -- tuple of d ints (l1 word metric)
* ``free``        -- reduced word as tuple of nonzero ints in {-d..-1,1..d},
                     letter k > 0 is the k-th generator, -k its inverse
* ``heisenberg``  -- integer triple (x, y, z), the upper-triangular model
* ``z2sum``       -- sorted tuple of distinct positive ints (bit support);
                     locally finite, not finitely generated

All operations are pure functions of immutable values, so they are safe to
call from any number of workers.

``coords`` turns integer, lattice and Heisenberg elements into int64
coordinate arrays, and ``translate`` multiplies such an array on the right.
They are the module's only numpy users and import it themselves, so the
config layer, the command line and the Z/2-chain load no numpy.

Arithmetic trusts its inputs to be canonical and does not re-check them:
``check_element`` runs once where an encoding enters walkrep: on ``Embedding``
images, and on the element argument of each public certificate and check
(``weight_ratio``, ``restricted_ratio_certificate``,
``subgroup_norm_certificate``, ``equivariance_check`` and
``LocallyFiniteChain.first_containing``).  Canonical inputs give canonical
outputs.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable

from .errors import CapacityError, DomainError, EmbeddingError, EncodingError

if TYPE_CHECKING:
    import numpy as np

BALL_CAP = 10**6  # the most elements a ball or a word-length search holds
EMBED_CHECK_RADIUS = 3

FG_KINDS = ("integers", "lattice", "free", "heisenberg")
KINDS = FG_KINDS + ("z2sum",)

# Roster caps: the lattice and free kinds are only exercised at small rank.
MAX_LATTICE_D = 3
MAX_FREE_D = 2

_FREE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupSpec:
    """A concrete group from the fixed roster, with generator rank ``d``;
    equal specs are equal dict keys."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: str, d: int = 1):
        self.kind, self.d = kind, d
        if self.kind not in KINDS:
            raise EncodingError(f"unknown group kind {self.kind!r}")
        if self.kind == "integers" and self.d != 1:
            raise EncodingError("integers has d=1")
        if self.kind == "lattice" and not 1 <= self.d <= MAX_LATTICE_D:
            raise EncodingError(f"lattice rank must be in 1..{MAX_LATTICE_D}")
        if self.kind == "free" and not 1 <= self.d <= MAX_FREE_D:
            raise EncodingError(f"free rank must be in 1..{MAX_FREE_D}")
        if self.kind == "heisenberg" and self.d != 2:
            raise EncodingError("heisenberg has generator rank 2")
        if self.kind == "z2sum" and self.d != 0:
            raise EncodingError("z2sum carries no generator rank (use d=0)")

    def __eq__(self, other):
        return type(other) is GroupSpec and (self.kind, self.d) == (other.kind, other.d)

    def __hash__(self):
        return hash((self.kind, self.d))

    def __repr__(self):
        return f"GroupSpec(kind={self.kind!r}, d={self.d!r})"

    @property
    def finitely_generated(self) -> bool:
        return self.kind in FG_KINDS

    def to_dict(self) -> dict:
        return {"kind": self.kind, "d": self.d}


def identity(spec: GroupSpec):
    if spec.kind == "integers":
        return 0
    if spec.kind == "lattice":
        return (0,) * spec.d
    if spec.kind == "free":
        return ()
    if spec.kind == "heisenberg":
        return (0, 0, 0)
    return ()


def check_element(spec: GroupSpec, g) -> None:
    """Raise EncodingError unless ``g`` is a canonical encoding for ``spec``."""
    if spec.kind == "integers":
        if not isinstance(g, int) or isinstance(g, bool):
            raise EncodingError(f"integers element must be int, got {g!r}")
        return
    if spec.kind == "lattice":
        if (
            not isinstance(g, tuple)
            or len(g) != spec.d
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in g)
        ):
            raise EncodingError(f"lattice element must be a {spec.d}-tuple of ints")
        return
    if spec.kind == "free":
        if not isinstance(g, tuple):
            raise EncodingError("free element must be a tuple of letters")
        for c in g:
            if not isinstance(c, int) or c == 0 or abs(c) > spec.d:
                raise EncodingError(f"letter {c!r} outside rank-{spec.d} alphabet")
        for a, b in zip(g, g[1:]):
            if a == -b:
                raise EncodingError(f"word {g!r} is not reduced")
        return
    if spec.kind == "heisenberg":
        if (
            not isinstance(g, tuple)
            or len(g) != 3
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in g)
        ):
            raise EncodingError("heisenberg element must be an integer triple")
        return
    # z2sum
    if not isinstance(g, tuple) or not all(
        isinstance(c, int) and c >= 1 for c in g
    ):
        raise EncodingError("z2sum element must be a tuple of positive bit indices")
    if list(g) != sorted(set(g)):
        raise EncodingError(f"z2sum support {g!r} must be sorted and distinct")


def multiply(spec: GroupSpec, a, b):
    """Product ``ab`` in canonical encoding."""
    if spec.kind == "integers":
        return a + b
    if spec.kind == "lattice":
        return tuple(x + y for x, y in zip(a, b))
    if spec.kind == "free":
        word = list(a)
        for c in b:
            if word and word[-1] == -c:
                word.pop()
            else:
                word.append(c)
        return tuple(word)
    if spec.kind == "heisenberg":
        x, y, z = a
        u, v, w = b
        return (x + u, y + v, z + w + x * v)
    # z2sum: symmetric difference of bit supports
    return tuple(sorted(set(a) ^ set(b)))


def coords(spec: GroupSpec, elements) -> np.ndarray:
    """The (N, k) int64 coordinates of N integer (k = 1), lattice (k = d) or
    Heisenberg (k = 3) elements.  EncodingError past 64 bits; DomainError on
    the free groups and z2sum, which have no coordinates."""
    if spec.kind in ("free", "z2sum"):
        raise DomainError(f"{spec.kind} elements have no integer coordinates")
    import numpy as np  # here, so the config layer and the chain load no numpy

    try:
        out = np.asarray(elements, dtype=np.int64)
    except OverflowError:
        raise EncodingError("an element past 64-bit coordinates has no int64 form") from None
    return out.reshape(len(elements), 3 if spec.kind == "heisenberg" else spec.d)


def translate(spec: GroupSpec, rows: np.ndarray, b) -> np.ndarray:
    """The coordinates of g b for each row g of an (N, k) coordinate array,
    on the integers, the lattices and the Heisenberg group."""
    import numpy as np

    out = rows + np.reshape(b, -1)
    if spec.kind == "heisenberg":
        out[:, 2] += rows[:, 0] * b[1]
    return out


def inverse(spec: GroupSpec, a):
    if spec.kind == "integers":
        return -a
    if spec.kind == "lattice":
        return tuple(-x for x in a)
    if spec.kind == "free":
        return tuple(-c for c in reversed(a))
    if spec.kind == "heisenberg":
        x, y, z = a
        return (-x, -y, x * y - z)
    return a  # every element of z2sum is an involution


def generators(spec: GroupSpec) -> list:
    """The symmetric generator set, listed a1, a1^-1, a2, a2^-1, ..."""
    if not spec.finitely_generated:
        raise EncodingError(f"{spec.kind} has no finite generator set")
    if spec.kind == "integers":
        return [1, -1]
    if spec.kind == "lattice":
        gens = []
        for i in range(spec.d):
            e = [0] * spec.d
            e[i] = 1
            gens.append(tuple(e))
            e2 = [0] * spec.d
            e2[i] = -1
            gens.append(tuple(e2))
        return gens
    if spec.kind == "free":
        gens = []
        for i in range(1, spec.d + 1):
            gens.append((i,))
            gens.append((-i,))
        return gens
    # heisenberg: x and y and their inverses
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]


def sort_key(spec: GroupSpec, g):
    """A total order on elements; used to make summations bit-stable."""
    if spec.kind == "integers":
        return (abs(g), g)
    if spec.kind == "lattice":
        return (sum(abs(c) for c in g), g)
    if spec.kind == "free":
        return (len(g), g)
    if spec.kind == "heisenberg":
        return (abs(g[0]) + abs(g[1]) + abs(g[2]), g)
    return (len(g), g)


def element_str(spec: GroupSpec, g) -> str:
    """Canonical printable form, injective per spec; used for CSV and hashing."""
    if spec.kind == "integers":
        return str(g)
    if spec.kind in ("lattice", "heisenberg"):
        return "(" + ",".join(str(c) for c in g) + ")"
    if spec.kind == "free":
        if not g:
            return "e"
        # lowercase letter = generator, uppercase = inverse
        return "".join(
            _FREE_LETTERS[abs(c) - 1].upper() if c < 0 else _FREE_LETTERS[c - 1]
            for c in g
        )
    if not g:
        return "e"
    return "{" + ",".join(str(c) for c in g) + "}"


def ball(spec: GroupSpec, n: int) -> list:
    """All elements of word length <= n.

    Integers come in increasing order, -n..n; every other kind comes in
    ``sort_key`` order.  ``OrbitWindow.locate`` takes the first base point
    in this order, so it is part of the model's values, and the columns of
    ``TowerSpec.located`` follow it.  Raises CapacityError if the ball
    would exceed ``BALL_CAP`` elements.
    """
    if n < 0:
        raise DomainError(f"ball radius must be >= 0, got {n}")
    if not spec.finitely_generated:
        raise EncodingError(f"{spec.kind} supports no word-metric balls")
    if spec.kind == "integers":
        _check_cap(2 * n + 1)
        return list(range(-n, n + 1))
    if spec.kind == "lattice":
        out = []
        for point in _l1_points(spec.d, n):
            out.append(point)
            _check_cap(len(out))
        out.sort(key=lambda g: sort_key(spec, g))
        return out
    if spec.kind == "free":
        # extending each level's words, in order, by the letters in
        # increasing order keeps every level in sort_key order
        _check_cap(free_ball_size(spec.d, n))
        letters = [c for c in range(-spec.d, spec.d + 1) if c]
        words = [()]
        level = [()]
        for _ in range(n):
            level = [w + (c,) for w in level for c in letters if not w or c != -w[-1]]
            words.extend(level)
        return words
    out = [g for sphere in itertools.islice(_heisenberg_spheres(spec), n + 1) for g in sphere]
    return sorted(out, key=lambda g: sort_key(spec, g))


def _heisenberg_spheres(spec: GroupSpec):
    """The spheres S_0, S_1, ... of the Heisenberg group, each made when it
    is asked for, by breadth-first search over the 4 generators.  Raises
    CapacityError while making S_k once B_k exceeds ``BALL_CAP``."""
    gens = generators(spec)
    seen = {identity(spec)}
    sphere = [identity(spec)]
    while True:
        yield sphere
        nxt = []
        for g in sphere:
            for a in gens:
                h = multiply(spec, g, a)
                if h not in seen:
                    seen.add(h)
                    _check_cap(len(seen))
                    nxt.append(h)
        sphere = nxt


def _check_cap(size: int) -> None:
    if size > BALL_CAP:
        raise CapacityError(f"ball/support size {size} exceeds cap {BALL_CAP}")


def _l1_points(d: int, n: int) -> Iterable[tuple]:
    if d == 1:
        for x in range(-n, n + 1):
            yield (x,)
        return
    for x in range(-n, n + 1):
        for rest in _l1_points(d - 1, n - abs(x)):
            yield (x,) + rest


def free_ball_size(d: int, n: int) -> int:
    return sum(free_sphere_size(d, k) for k in range(n + 1))


def free_sphere_size(d: int, k: int) -> int:
    """The number of reduced words of length k in F_d: 2d (2d-1)^(k-1)."""
    return 1 if k == 0 else 2 * d * (2 * d - 1) ** (k - 1)


def free_translation_classes(spec: GroupSpec, b, n: int) -> list:
    """B_n on a free group split by how each g meets ``b``.

    If the last k letters of g cancel against the first k of b, then
    |g b| = |g| + |b| - 2k.  The class of (|g|, k) is one word when k = |g|
    (g is the inverse of b's first k letters); for k < |g|, g is a reduced
    word h of length |g| - k followed by that inverse, and h's last letter
    must avoid b_k (g reduced) and b_{k+1}^-1 (cancellation stops at k), so
    the class holds (2d - #forbidden) (2d-1)^(|g|-k-1) words.  Returns
    ``[(representative, size)]`` over the non-empty classes; the sizes sum
    to |B_n|.
    """
    letters = [c for i in range(1, spec.d + 1) for c in (i, -i)]
    out = []
    for m in range(n + 1):
        for k in range(min(m, len(b)) + 1):
            tail = tuple(-c for c in reversed(b[:k]))
            if k == m:
                out.append((tail, 1))
                continue
            forbidden = {b[k - 1]} if k else set()
            if k < len(b):
                forbidden.add(-b[k])
            allowed = [c for c in letters if c not in forbidden]
            if allowed:
                size = len(allowed) * (2 * spec.d - 1) ** (m - k - 1)
                out.append(((allowed[0],) * (m - k) + tail, size))
    return out


def word_length(spec: GroupSpec, g) -> int:
    """Word length of ``g`` in the symmetric generators."""
    if spec.kind == "integers":
        return abs(g)
    if spec.kind == "lattice":
        return sum(abs(c) for c in g)
    if spec.kind == "free":
        return len(g)
    if spec.kind == "heisenberg":
        # the first sphere that holds g; fine at desk scale where |g| is small
        return next(r for r, sphere in enumerate(_heisenberg_spheres(spec)) if g in sphere)
    raise EncodingError("z2sum has no word metric here")


def power(spec: GroupSpec, g, n: int):
    """g**n by repeated squaring."""
    if n < 0:
        return power(spec, inverse(spec, g), -n)
    acc = identity(spec)
    base = g
    while n:
        if n & 1:
            acc = multiply(spec, acc, base)
        base = multiply(spec, base, base)
        n >>= 1
    return acc


class Embedding:
    """A homomorphism of one roster group into another, given on generators.

    Only kinds whose elements decompose canonically into generator words are
    accepted as the domain (integers, lattice, free).
    """

    def __init__(self, spec_sub: GroupSpec, spec_amb: GroupSpec, images: list):
        if spec_sub.kind not in ("integers", "lattice", "free"):
            raise EmbeddingError(f"cannot decompose {spec_sub.kind} elements")
        if len(images) != spec_sub.d and not (
            spec_sub.kind == "integers" and len(images) == 1
        ):
            raise EmbeddingError("need one image per generator")
        for im in images:
            check_element(spec_amb, im)
        self.spec_sub = spec_sub
        self.spec_amb = spec_amb
        self.images = list(images)

    def map(self, g):
        sub, amb = self.spec_sub, self.spec_amb
        if sub.kind == "integers":
            return power(amb, self.images[0], g)
        if sub.kind == "lattice":
            out = identity(amb)
            for i, c in enumerate(g):
                out = multiply(amb, out, power(amb, self.images[i], c))
            return out
        out = identity(amb)
        for letter in g:
            im = self.images[abs(letter) - 1]
            if letter < 0:
                im = inverse(amb, im)
            out = multiply(amb, out, im)
        return out


def subgroup_embed(spec_sub: GroupSpec, spec_amb: GroupSpec, images: list) -> Embedding:
    """Build an Embedding and check the homomorphism law on every pair of
    B_``EMBED_CHECK_RADIUS``, in ``ball`` order; the first pair that breaks
    it is named in the EmbeddingError."""
    emb = Embedding(spec_sub, spec_amb, images)
    pool = ball(spec_sub, EMBED_CHECK_RADIUS)
    mapped = [emb.map(g) for g in pool]
    for a, fa in zip(pool, mapped):
        for b, fb in zip(pool, mapped):
            if emb.map(multiply(spec_sub, a, b)) != multiply(spec_amb, fa, fb):
                raise EmbeddingError(
                    f"images are not homomorphic: f({a}*{b}) != f({a})f({b})"
                )
    return emb
