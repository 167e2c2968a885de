from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrep import groups
from walkrep.errors import CapacityError, DomainError, EmbeddingError, EncodingError

ALL_KINDS = [
    groups.GroupSpec("integers"),
    groups.GroupSpec("lattice", 2),
    groups.GroupSpec("lattice", 3),
    groups.GroupSpec("free", 2),
    groups.GroupSpec("heisenberg", 2),
    groups.GroupSpec("z2sum", 0),
]


def canonicalize(spec, g):
    """The canonical form of ``g``, the oracle the properties below build
    their inputs with: a free word is reduced letter by letter, a z2sum
    support is sorted, and any other encoding must already be canonical."""
    if spec.kind == "free" and isinstance(g, (tuple, list)):
        word: list[int] = []
        for c in g:
            if not isinstance(c, int) or c == 0 or abs(c) > spec.d:
                raise EncodingError(f"letter {c!r} outside rank-{spec.d} alphabet")
            if word and word[-1] == -c:
                word.pop()
            else:
                word.append(c)
        return tuple(word)
    if spec.kind == "z2sum" and isinstance(g, (tuple, list, frozenset, set)):
        return tuple(sorted(set(g)))
    groups.check_element(spec, g)
    return g


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.d))
def test_group_axioms_random_triples(spec):
    rng = np.random.default_rng(123)
    radius = 4
    if spec.kind == "z2sum":
        pool = [
            tuple(sorted({int(v) for v in rng.integers(1, 9, size=k)}))
            for k in range(5)
        ] + [(1,), (2, 5), (1, 3, 7)]
    else:
        pool = groups.ball(spec, radius)
    e = groups.identity(spec)
    for _ in range(10_000):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        c = pool[int(rng.integers(len(pool)))]
        left = groups.multiply(spec, groups.multiply(spec, a, b), c)
        right = groups.multiply(spec, a, groups.multiply(spec, b, c))
        assert left == right
        assert groups.multiply(spec, a, e) == a
        assert groups.multiply(spec, a, groups.inverse(spec, a)) == e


@pytest.mark.parametrize("spec", ALL_KINDS[:5], ids=lambda s: s.kind + str(s.d))
def test_ball_symmetric_and_nested(spec):
    b2 = set(groups.ball(spec, 2))
    b3 = set(groups.ball(spec, 3))
    assert b2 <= b3
    assert all(groups.inverse(spec, g) in b2 for g in b2)


def _ball_size(spec, n):
    """Closed-form |B_n| (integers, lattice d<=3, free)."""
    if spec.kind == "integers" or (spec.kind == "lattice" and spec.d == 1):
        return 2 * n + 1
    if spec.kind == "lattice" and spec.d == 2:
        return 2 * n * n + 2 * n + 1
    if spec.kind == "lattice" and spec.d == 3:
        return ((2 * n + 1) * (2 * n * n + 2 * n + 3)) // 3
    assert spec.kind == "free"
    return groups.free_ball_size(spec.d, n)


def test_ball_counts_closed_forms():
    z = groups.GroupSpec("integers")
    assert len(groups.ball(z, 3)) == 7 == _ball_size(z, 3)
    z2 = groups.GroupSpec("lattice", 2)
    assert len(groups.ball(z2, 2)) == 13 == _ball_size(z2, 2)
    z3 = groups.GroupSpec("lattice", 3)
    assert len(groups.ball(z3, 2)) == 25 == _ball_size(z3, 2)
    f2 = groups.GroupSpec("free", 2)
    assert len(groups.ball(f2, 2)) == 17 == _ball_size(f2, 2)
    assert len(groups.ball(f2, 0)) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_free_translation_classes_partition_the_ball(d):
    # each class is exactly the set of g in B_n with that (|g|, k), where k
    # letters cancel in g b; its representative lies in it
    spec = groups.GroupSpec("free", d)
    for b in groups.ball(spec, 3):
        for n in range(6):
            seen = Counter()
            for g in groups.ball(spec, n):
                gb = groups.multiply(spec, g, b)
                seen[len(g), (len(g) + len(b) - len(gb)) // 2] += 1
            classes = Counter()
            for g, size in groups.free_translation_classes(spec, b, n):
                groups.check_element(spec, g)
                gb = groups.multiply(spec, g, b)
                key = (len(g), (len(g) + len(b) - len(gb)) // 2)
                assert key not in classes
                classes[key] = size
            assert classes == seen


def test_ball_cap_is_an_error():
    f2 = groups.GroupSpec("free", 2)
    with pytest.raises(CapacityError):
        groups.ball(f2, 14)
    assert groups.free_ball_size(2, 14) > groups.BALL_CAP == 10**6


# each kind with coordinates, and its column count
COORD_KINDS = [
    (groups.GroupSpec("integers"), 1),
    (groups.GroupSpec("lattice", 2), 2),
    (groups.GroupSpec("lattice", 3), 3),
    (groups.GroupSpec("heisenberg", 2), 3),
]
COORD_IDS = ["Z", "Z2", "Z3", "H"]


@pytest.mark.parametrize("spec, k", COORD_KINDS, ids=COORD_IDS)
def test_coords_rows_are_the_element_coordinates(spec, k):
    ball = groups.ball(spec, 3)
    got = groups.coords(spec, ball)
    assert got.dtype == np.int64 and got.shape == (len(ball), k)
    assert got.tolist() == [[g] if spec.kind == "integers" else list(g) for g in ball]
    assert groups.coords(spec, []).shape == (0, k)


@pytest.mark.parametrize("spec", [spec for spec, _ in COORD_KINDS], ids=COORD_IDS)
def test_coords_past_64_bits_is_an_encoding_error(spec):
    e = groups.identity(spec)
    for big in (2**63, -(2**63) - 1):
        g = big if spec.kind == "integers" else (big,) + e[1:]
        with pytest.raises(EncodingError):
            groups.coords(spec, [e, g])
    edge = 2**63 - 1 if spec.kind == "integers" else (2**63 - 1,) + e[1:]
    assert groups.coords(spec, [edge])[0, 0] == 2**63 - 1


@pytest.mark.parametrize("spec", [groups.GroupSpec("free", 2), groups.GroupSpec("z2sum", 0)], ids=["F2", "z2sum"])
def test_coords_free_and_z2sum_are_a_domain_error(spec):
    with pytest.raises(DomainError):
        groups.coords(spec, [groups.identity(spec)])


def test_integer_examples():
    z = groups.GroupSpec("integers")
    assert groups.multiply(z, 3, -5) == -2
    assert groups.inverse(z, 4) == -4


def test_free_reduction_examples():
    f2 = groups.GroupSpec("free", 2)
    a, b = (1,), (2,)
    ab_inv = groups.multiply(f2, a, groups.inverse(f2, b))  # a b^-1
    ba = groups.multiply(f2, b, a)
    assert groups.multiply(f2, ab_inv, ba) == (1, 1)  # a^2
    word = (1, 2, -1)  # a b a^-1
    assert groups.inverse(f2, word) == (1, -2, -1)


def test_heisenberg_against_matrix_oracle():
    h = groups.GroupSpec("heisenberg", 2)

    def to_mat(g):
        x, y, z = g
        return np.array([[1, x, z], [0, 1, y], [0, 0, 1]], dtype=object)

    rng = np.random.default_rng(7)
    pool = groups.ball(h, 3)
    for _ in range(500):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        prod = groups.multiply(h, a, b)
        mat = to_mat(a) @ to_mat(b)
        assert to_mat(prod).tolist() == mat.tolist()


def test_z2sum_involution():
    s = groups.GroupSpec("z2sum", 0)
    g = (1, 4, 6)
    assert groups.inverse(s, g) == g
    assert groups.multiply(s, g, g) == ()


def test_canonicalize_idempotent():
    f2 = groups.GroupSpec("free", 2)
    w = canonicalize(f2, [1, 2, -2, -1, 1])
    assert w == (1,)
    assert canonicalize(f2, w) == w
    s = groups.GroupSpec("z2sum", 0)
    assert canonicalize(s, [4, 1]) == (1, 4)
    assert canonicalize(s, (1, 4)) == (1, 4)


def test_malformed_encodings_rejected():
    z = groups.GroupSpec("integers")
    with pytest.raises(EncodingError):
        canonicalize(z, 1.5)
    f2 = groups.GroupSpec("free", 2)
    with pytest.raises(EncodingError):
        groups.check_element(f2, (1, -1))
    with pytest.raises(EncodingError):
        groups.check_element(f2, (3,))


def test_word_length():
    f2 = groups.GroupSpec("free", 2)
    assert groups.word_length(f2, (1, 2, 1)) == 3
    h = groups.GroupSpec("heisenberg", 2)
    # the commutator [x, y] = (0, 0, 1) needs 4 letters
    assert groups.word_length(h, (0, 0, 1)) == 4
    z2 = groups.GroupSpec("lattice", 2)
    assert groups.word_length(z2, (2, -3)) == 5


def test_heisenberg_word_length_is_the_first_ball_radius():
    # ``ball`` and ``word_length`` share one breadth-first search
    h = groups.GroupSpec("heisenberg", 2)
    first = {}
    for r in range(7):
        for g in groups.ball(h, r):
            first.setdefault(g, r)
    assert len(first) == len(groups.ball(h, 6))
    assert all(groups.word_length(h, g) == r for g, r in first.items())


def test_heisenberg_ball_cap_is_the_ball_size(monkeypatch):
    # CapacityError exactly when B_n holds more than BALL_CAP elements
    h = groups.GroupSpec("heisenberg", 2)
    size = len(groups.ball(h, 4))
    monkeypatch.setattr(groups, "BALL_CAP", size)
    assert len(groups.ball(h, 4)) == size
    monkeypatch.setattr(groups, "BALL_CAP", size - 1)
    with pytest.raises(CapacityError):
        groups.ball(h, 4)
    assert len(groups.ball(h, 3)) < size


def test_embedding_z_into_f2():
    z = groups.GroupSpec("integers")
    f2 = groups.GroupSpec("free", 2)
    emb = groups.subgroup_embed(z, f2, [(1,)])
    assert emb.map(3) == (1, 1, 1)
    assert emb.map(-2) == (-1, -1)
    assert emb.map(2 + 5) == groups.multiply(f2, emb.map(2), emb.map(5))
    images = {emb.map(n) for n in range(-4, 5)}
    assert len(images) == 9


def test_embedding_rejects_non_homomorphic_images():
    z2 = groups.GroupSpec("lattice", 2)
    f2 = groups.GroupSpec("free", 2)
    # both lattice generators to the same free letter is a homomorphism,
    # but images that do not commute cannot come from an abelian group
    with pytest.raises(EmbeddingError):
        groups.subgroup_embed(z2, f2, [(1,), (2,)])


def test_embedding_check_is_exhaustive_and_deterministic():
    z2 = groups.GroupSpec("lattice", 2)
    h = groups.GroupSpec("heisenberg", 2)
    # x and the central z commute: a homomorphism of Z^2
    emb = groups.subgroup_embed(z2, h, [(1, 0, 0), (0, 0, 1)])
    assert emb.map((2, -3)) == (2, 0, -3)
    # x and y do not: f(g) = x^g1 y^g2, so the first pair of B_3 (in ball
    # order) that breaks the law puts a y before an x
    messages = set()
    for _ in range(2):
        with pytest.raises(EmbeddingError) as info:
            groups.subgroup_embed(z2, h, [(1, 0, 0), (0, 1, 0)])
        messages.add(str(info.value))
    assert messages == {"images are not homomorphic: f((0, -1)*(-1, 0)) != f((0, -1))f((-1, 0))"}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8),
    st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8),
)
def test_free_group_inverse_property(raw_a, raw_b):
    f2 = groups.GroupSpec("free", 2)
    a = canonicalize(f2, raw_a)
    b = canonicalize(f2, raw_b)
    ab = groups.multiply(f2, a, b)
    assert groups.inverse(f2, ab) == groups.multiply(
        f2, groups.inverse(f2, b), groups.inverse(f2, a)
    )


def _canonical(spec):
    """Canonical encodings of ``spec``, built through ``canonicalize``."""
    small = st.integers(min_value=-50, max_value=50)
    if spec.kind == "integers":
        raw = small
    elif spec.kind == "lattice":
        raw = st.tuples(*[small] * spec.d)
    elif spec.kind == "heisenberg":
        raw = st.tuples(small, small, small)
    elif spec.kind == "free":
        raw = st.lists(st.integers(-spec.d, spec.d).filter(bool), max_size=10)
    else:
        raw = st.lists(st.integers(min_value=1, max_value=12), max_size=8)
    return raw.map(lambda g: canonicalize(spec, g))


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.d))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arithmetic_keeps_encodings_canonical(spec, data):
    # multiply and inverse do not re-check their inputs; this is the oracle
    a = data.draw(_canonical(spec))
    b = data.draw(_canonical(spec))
    groups.check_element(spec, groups.multiply(spec, a, b))
    groups.check_element(spec, groups.inverse(spec, a))
