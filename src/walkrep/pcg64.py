"""numpy's ``default_rng`` draws, bit for bit: PCG64 (XSL-RR output, O'Neill
2014) seeded by a ``SeedSequence`` hash mix.  So no command loads
``numpy.random`` (nor, through it, ``secrets`` and OpenSSL's ``_hashlib``),
and no output depends on numpy's ``Generator``, which a release may change."""

import itertools

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _hasher(init: int, mult: int):
    """SeedSequence's hash of a uint32 array, by constants that move on with every call."""
    consts = itertools.pairwise(itertools.accumulate(itertools.repeat(mult), lambda c, m: c * m & _M32, initial=init))

    def h(v: np.ndarray) -> np.ndarray:
        a, b = next(consts)
        v = (v ^ np.uint32(a)) * np.uint32(b)
        return v ^ v >> 16

    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (r := np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y) ^ r >> 16


def _streams(seed: int, draws=None) -> list:
    """The 64-bit outputs of ``PCG64(SeedSequence(seed))``, or, given uint64
    ``draws``, one iterator per draw of ``SeedSequence(seed, spawn_key=(draw,))``.
    A spawn key pads the seed to four words; a draw past 32 bits has two."""
    words = [np.array([seed >> s & _M32], dtype=np.uint32) for s in range(0, max(seed.bit_length(), 1), 32)]
    if draws is not None:
        words += [np.zeros(1, np.uint32)] * (4 - len(words)) + [(draws & _M32).astype(np.uint32)]
    h = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [h(words[i] if i < len(words) else np.zeros(1, np.uint32)) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], h(pool[src]))
    for word in words[4:]:
        pool = [_mix(p, h(word)) for p in pool]
    if draws is not None:  # the high words, where the draws have them
        hi = (draws >> 32).astype(np.uint32)
        pool = [np.where(hi != 0, _mix(p, h(hi)), p) for p in pool]
    h = _hasher(0x8B51F9DD, 0x58F38DED)
    return [_outputs(s) for s in zip(*(h(pool[i % 4]).tolist() for i in range(8)))]


def _outputs(s: tuple):
    """PCG64 from eight state words: seed and increment, each two little-endian halves, high first."""
    inc = (s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 & _M128 | 1
    state = ((inc + (s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> r | x << (64 - r)) & _M64


def random(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)``: the top 53 bits of each output over 2^53."""
    return (np.array(list(itertools.islice(_streams(seed)[0], n)), dtype=np.uint64) >> 11) * 2.0**-53


def roots(seed: int, draws, k: int) -> np.ndarray:
    """Row i: ``default_rng(SeedSequence(seed, spawn_key=(draws[i],))).random(k)``."""
    draws = np.asarray(draws, dtype=np.uint64)
    rows = [list(itertools.islice(s, k)) for s in _streams(seed, draws)]
    return (np.array(rows, dtype=np.uint64).reshape(len(draws), k) >> 11) * 2.0**-53


def sample(seed: int, pop: int, size: int) -> list:
    """``np.random.default_rng(seed).choice(pop, size, replace=False)``, for ``size <= pop < 2^32``:
    Floyd's sample, shuffled, or for a large pool and sample, a partial shuffle's tail."""
    if not 0 <= size <= pop < 2**32:
        raise ValueError("sample needs 0 <= size <= pop < 2^32")
    # 32-bit draws, each output's low half first; ``below`` is Lemire's draw from 0..j
    words = itertools.chain.from_iterable((v & _M32, v >> 32) for v in _streams(seed)[0])

    def below(j: int) -> int:
        m = next(words) * (j + 1) if j else 0
        while m & _M32 < (_M32 - j) % (j + 1):
            m = next(words) * (j + 1)
        return m >> 32

    if pop > 10000 and size > pop // 50:
        data, first = list(range(pop)), max(pop - size, 1)
    else:
        data, seen, first = [], set(), 1
        for j in range(pop - size, pop):
            data.append(j if (v := below(j)) in seen else v)
            seen.add(data[-1])
    for i in range(len(data) - 1, first - 1, -1):
        j = below(i)
        data[i], data[j] = data[j], data[i]
    return data[len(data) - size:]
