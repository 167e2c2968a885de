"""The numpy generator port against ``numpy.random``, its oracle."""

import numpy as np
import pytest

from walkrep import continuous, pcg64

# up to one past 2^128: more 32-bit words than SeedSequence's pool of four
SEEDS = [0, 1, 20240, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1]
# a uint64 draw past 32 bits is a spawn key of two words
DRAWS = [0, 2**32 - 1, 2**32, 2**64 - 1]
POOLS = [1, 512, 10000, 10001, 2**16]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_is_default_rng_random(seed):
    assert np.array_equal(pcg64.random(seed, 40), np.random.default_rng(seed).random(40))


@pytest.mark.parametrize("seed", SEEDS)
def test_roots_are_spawned_default_rng_draws(seed):
    got = pcg64.roots(seed, np.array(DRAWS, dtype=np.uint64), 3)
    want = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d,))).random(3) for d in DRAWS
    ]
    assert np.array_equal(got, np.array(want))
    assert pcg64.roots(seed, np.array([], dtype=np.uint64), 2).shape == (0, 2)


@pytest.mark.parametrize("pop", POOLS)
def test_sample_is_default_rng_choice(pop):
    # pools past 10000 with sizes past pop // 50 take numpy's tail shuffle,
    # the rest Floyd's sample and a shuffle
    for seed in (0, 20240, 2**64 + 3):
        for size in sorted({0, 1, pop // 50, pop // 50 + 1, pop}):
            want = np.random.default_rng(seed).choice(pop, size=size, replace=False).tolist()
            assert pcg64.sample(seed, pop, size) == want, (seed, size)


def test_sample_rejects_impossible_sizes():
    for pop, size in ((3, 4), (3, -1), (2**32, 1)):
        with pytest.raises(ValueError):
            pcg64.sample(0, pop, size)


def test_pinned_values():
    # fixed here, whatever a later numpy's Generator does
    assert pcg64.roots(20240, np.array([0, 1], dtype=np.uint64), 2).tolist() == [
        [0.5941468683830204, 0.25180436710514065],
        [0.008982483960713217, 0.912919414754624],
    ]
    assert pcg64.random(20240, 3).tolist() == [0.2934429425833257, 0.7637855132719635, 0.6215523905769961]
    # the g0 that ``continuous`` checks on K_9 at seed 20240
    picks = pcg64.sample(20240, 512, 20)
    assert picks == [9, 479, 327, 490, 309, 364, 239, 251, 442, 144, 112, 227, 314, 378, 450, 429, 154, 221, 176, 138]
    assert continuous.LocallyFiniteChain(9).subgroup(9)[picks[0]] == (9,)
