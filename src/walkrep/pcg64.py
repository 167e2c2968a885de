"""numpy's ``default_rng`` draws, bit for bit: PCG64 (XSL-RR output, O'Neill
2014) seeded by a ``SeedSequence`` hash mix.  So no command loads
``numpy.random`` (nor, through it, ``secrets`` and OpenSSL's ``_hashlib``),
and no output depends on numpy's ``Generator``, which a release may change.

The hash mix runs on Python ints, or on uint64 arrays of 32-bit words
where ``roots`` seeds one stream per draw; each operation is reduced mod
2^32, so both give the same words.  ``sample`` runs on ints and loads no
numpy; ``random`` and ``roots`` return arrays and import it."""

import itertools

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _hasher(init: int, mult: int):
    """SeedSequence's hash of 32-bit words, by constants that move on with every call."""
    consts = itertools.pairwise(itertools.accumulate(itertools.repeat(mult), lambda c, m: c * m & _M32, initial=init))

    def h(v):
        a, b = next(consts)
        v = (v ^ a) * b & _M32
        return v ^ v >> 16

    return h


def _mix(x, y):
    return (r := (0xCA01F9DD * x - 0x4973F715 * y) & _M32) ^ r >> 16


def _streams(seed: int, draws=None):
    """The 64-bit outputs of ``PCG64(SeedSequence(seed))``, or, given a uint64
    array of ``draws``, a list of one iterator per draw of
    ``SeedSequence(seed, spawn_key=(draw,))``.  A spawn key pads the seed to
    four words; a draw past 32 bits has two."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    if draws is not None:
        words += [0] * (4 - len(words)) + [draws & _M32]
    h = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [h(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], h(pool[src]))
    for word in words[4:]:
        pool = [_mix(p, h(word)) for p in pool]
    if draws is not None:  # the high words, mixed in where the draws have them
        hi = draws >> 32
        pool = [p ^ (_mix(p, h(hi)) ^ p) * (hi != 0) for p in pool]
    h = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [h(pool[i % 4]) for i in range(8)]
    if draws is None:
        return _outputs(state)
    return [_outputs(s) for s in zip(*(w.tolist() for w in state))]


def _outputs(s):
    """PCG64 from eight state words: seed and increment, each two little-endian halves, high first."""
    inc = (s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 & _M128 | 1
    state = ((inc + (s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> r | x << (64 - r)) & _M64


def random(seed: int, n: int):
    """``np.random.default_rng(seed).random(n)``: the top 53 bits of each output over 2^53."""
    import numpy as np

    return (np.array(list(itertools.islice(_streams(seed), n)), dtype=np.uint64) >> 11) * 2.0**-53


def roots(seed: int, draws, k: int):
    """Row i: ``default_rng(SeedSequence(seed, spawn_key=(draws[i],))).random(k)``."""
    import numpy as np

    draws = np.asarray(draws, dtype=np.uint64)
    rows = [list(itertools.islice(s, k)) for s in _streams(seed, draws)]
    return (np.array(rows, dtype=np.uint64).reshape(len(draws), k) >> 11) * 2.0**-53


def sample(seed: int, pop: int, size: int) -> list:
    """``np.random.default_rng(seed).choice(pop, size, replace=False)``, for ``size <= pop < 2^32``:
    Floyd's sample, shuffled, or for a large pool and sample, a partial shuffle's tail."""
    if not 0 <= size <= pop < 2**32:
        raise ValueError("sample needs 0 <= size <= pop < 2^32")
    # 32-bit draws, each output's low half first; ``below`` is Lemire's draw from 0..j
    words = itertools.chain.from_iterable((v & _M32, v >> 32) for v in _streams(seed))

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
