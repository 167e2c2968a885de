"""Record semantics: constructor checks, immutable records, the classes
that are keys, and the digests of the benchmark configs and seeds."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import fresh
from walkrep import config, continuous, dynamics, groups, markov, measures, model
from walkrep.config import WeightConfig
from walkrep.errors import DomainError, EncodingError

Z = groups.GroupSpec("integers")


def _raises(error, message, make):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, d, message",
    [
        ("cyclic", 1, "unknown group kind 'cyclic'"),
        ("integers", 2, "integers has d=1"),
        ("lattice", 4, "lattice rank must be in 1..3"),
        ("free", 3, "free rank must be in 1..2"),
        ("heisenberg", 3, "heisenberg has generator rank 2"),
        ("z2sum", 1, "z2sum carries no generator rank (use d=0)"),
    ],
)
def test_group_spec_checks(kind, d, message):
    _raises(EncodingError, message, lambda: groups.GroupSpec(kind, d))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: measures.build_weight(Z, WeightConfig(q=1.0, n_max=2)), "q must be in (0,1), got 1.0"),
        (lambda: measures.build_weight(Z, WeightConfig(q=0.5, n_max=0)), "n_max must be >= 1"),
        (lambda: dynamics.DynamicalSystem("mixing", Z, 0), "unknown system kind 'mixing'"),
        (
            lambda: dynamics.DynamicalSystem("bernoulli", groups.GroupSpec("z2sum", 0), 0),
            "systems act through finitely generated kinds",
        ),
        (
            lambda: dynamics.DynamicalSystem("rotation", groups.GroupSpec("free", 2), 0, (0.1, 0.2)),
            "rotation systems need integer/lattice groups",
        ),
        (
            lambda: dynamics.DynamicalSystem("rotation", groups.GroupSpec("lattice", 2), 0, (0.1,)),
            "frequency vector length must equal the rank",
        ),
        (lambda: continuous.IntervalMeasure(0.0), "interval half-length must be positive"),
        (lambda: continuous.LocallyFiniteChain(0), "chain needs 1 <= n_max <= 16"),
        (lambda: continuous.LocallyFiniteChain(4, q=1.5), "q must be in (0,1), got 1.5"),
        (
            lambda: model.ModelFunction(
                dynamics.bernoulli_system(Z, 0), [],
                measures.build_weight(groups.GroupSpec("lattice", 2), WeightConfig(0.5, 2)),
            ),
            "the weight table is on GroupSpec(kind='lattice', d=2), the system on GroupSpec(kind='integers', d=1)",
        ),
    ],
    ids=["q", "n_max", "kind", "z2sum", "rotation-free", "alpha", "interval", "chain-n", "chain-q", "model-w"],
)
def test_constructor_checks(make, message):
    _raises(DomainError, message, make)


def _records() -> list:
    """One of each immutable record."""
    cfg = config.ExperimentConfig()
    return [
        cfg, cfg.group, cfg.weights, cfg.system, cfg.samples, cfg.tolerances,
        model.basis_balls(1, Z),
        model.StageSplit(a_index=1, offset=0.1, parents=(0.5,)),
        dynamics.BitBox(np.zeros((1, 3), dtype=bool), np.zeros(1, dtype=np.int64)),
        dynamics.CylinderSet.from_dict(Z, {0: 1}),
        markov.cos_observable(0),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_reject_assignment(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record._replace() == record


def test_group_spec_is_a_dict_key():
    table = {groups.GroupSpec("lattice", 2): "Z2", groups.GroupSpec("free", 2): "F2"}
    assert table[groups.GroupSpec("lattice", 2)] == "Z2"
    assert groups.GroupSpec("free", 2) in table
    assert groups.GroupSpec("lattice", 3) not in table
    assert groups.GroupSpec("lattice", 1) != Z
    assert len({groups.GroupSpec("heisenberg", 2), groups.GroupSpec("heisenberg", 2)}) == 1
    assert repr(Z) == "GroupSpec(kind='integers', d=1)"


def test_equal_chains_share_one_convolution_entry():
    a, b = continuous.LocallyFiniteChain(5, q=0.3), continuous.LocallyFiniteChain(5, q=0.3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != continuous.LocallyFiniteChain(5) and a != continuous.LocallyFiniteChain(6, q=0.3)
    first = continuous.chain_convolution(a)
    before = continuous.chain_convolution.cache_info()
    assert continuous.chain_convolution(b) is first
    after = continuous.chain_convolution.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)


# the configs of the benchmark's workloads, each with seed 20240 in its file
BENCH_CONFIGS = {
    "default": ({}, "4aa50a3f94eb19bb"),
    "exp": ({"second_weights": {"q": 0.5, "n_max": 8}}, "52e63c36e91afefc"),
    "poly": (
        {
            "group": {"kind": "lattice", "d": 3},
            "weights": {"q": 0.5, "n_max": 8},
            "second_group": {"kind": "heisenberg", "d": 2},
            "second_weights": {"q": 0.5, "n_max": 8},
        },
        "17c7221affe0b30f",
    ),
    "embed": (
        {
            "stages": 3,
            "samples": {
                "tower_samples": 20000, "check_samples": 1000, "equivariance_samples": 250,
                "orbit_steps": 1500, "averaging_samples": 500,
            },
        },
        "f06156d722042619",
    ),
    "chain": ({"lf_chain_n": 9}, "e2bd23bbbeedf729"),
}


@pytest.mark.parametrize("name", BENCH_CONFIGS)
def test_benchmark_config_digests(name):
    body, digest = BENCH_CONFIGS[name]
    assert config.config_from_dict({"seed": 20240, **body}).digest() == digest


def _configs() -> list:
    """The default config and the benchmark configs."""
    bench = [config.config_from_dict({"seed": 20240, **body}) for body, _ in BENCH_CONFIGS.values()]
    return [config.ExperimentConfig(), *bench]


def _config_digests() -> list:
    return [cfg.digest() for cfg in _configs()]


def test_digests_are_hashlib_sha256():
    want = [hashlib.sha256(cfg.canonical_json().encode()).hexdigest()[:16] for cfg in _configs()]
    assert _config_digests() == want


SEEDS = (0, 1, 7, 20240, 20251, 2**63 + 5)


def _seed_digests() -> list:
    """Each seed's Philox key and ``_derived_seed``s, as ``dynamics`` makes them."""
    return [
        [*dynamics.bernoulli_system(Z, seed).key, dynamics._derived_seed("cond", seed),
         dynamics._derived_seed(seed, "tower", 3)]
        for seed in SEEDS
    ]


def test_seed_digests_are_hashlib_blake2b():
    def blake2b(text, size):
        return hashlib.blake2b(text.encode(), digest_size=size).digest()

    want = [
        [*struct.unpack("<QQ", blake2b(f"philox|{seed}", 16)),
         int.from_bytes(blake2b(f"cond|{seed}", 8), "little"),
         int.from_bytes(blake2b(f"{seed}|tower|3", 8), "little")]
        for seed in SEEDS
    ]
    assert _seed_digests() == want


def test_sha256_fallback_gives_the_same_digests():
    # CPython's own SHA-256 modules blocked, as in a build that leaves them
    # out (FIPS-style builds do): config falls back to hashlib's sha256
    code = (
        "import hashlib, sys\n"
        "for name in ('_sha2', '_sha256'):\n"
        "    sys.modules[name] = None\n"
        "import json, test_records\n"
        "from walkrep import config\n"
        "assert config.sha256 is hashlib.sha256\n"
        "print(json.dumps(test_records._config_digests()))\n"
    )
    tests = str(Path(__file__).resolve().parent)
    proc = fresh.run(["-c", f"import sys\nsys.path.insert(0, {tests!r})\n" + code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _config_digests()


def test_config_dict_nests_the_records():
    cfg = config.config_from_dict({"system": {"alpha": [0.25]}, "samples": {"orbit_steps": 7}})
    data = cfg.to_dict()
    assert data["system"] == {"alpha": (0.25,)}
    assert data["samples"]["orbit_steps"] == 7
    assert all(type(v) is dict for v in (data["group"], data["weights"], data["tolerances"]))
    assert config.config_from_dict(json.loads(cfg.canonical_json())) == cfg
