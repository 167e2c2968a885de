import pytest

from walkrep import dynamics, groups, measures, model
from walkrep.config import ExperimentConfig, WeightConfig


@pytest.fixture(scope="session")
def z_spec():
    return groups.GroupSpec("integers")


@pytest.fixture(scope="session")
def f2_spec():
    return groups.GroupSpec("free", 2)


@pytest.fixture(scope="session")
def z_weights(z_spec):
    return measures.build_weight(z_spec, WeightConfig(q=0.5, n_max=40))


@pytest.fixture(scope="session")
def f2_weights(f2_spec):
    return measures.build_weight(f2_spec, WeightConfig(q=0.5, n_max=10))


# the elements x of the restricted-weight tests, which pull each weight back
# to the integers along n -> x^n, on every group kind with word balls
POWER_CASES = (
    ("lattice", 3, (1, 0, 0)), ("lattice", 3, (1, -1, 0)),
    ("heisenberg", 2, (0, 0, 1)), ("heisenberg", 2, (1, 0, 0)), ("heisenberg", 2, (1, 1, 0)),
    ("free", 2, (1,)), ("free", 2, (1, 2)), ("free", 2, (-2,)),
    ("integers", 1, 1), ("integers", 1, 2), ("integers", 1, -3),
)


@pytest.fixture(scope="session")
def ambient_powers():
    """``(w, x)`` for each of ``POWER_CASES``, on a depth-6 weight of x's group."""
    tables = {
        key: measures.build_weight(groups.GroupSpec(*key), WeightConfig(q=0.5, n_max=6))
        for key in {(kind, d) for kind, d, _ in POWER_CASES}
    }
    return [(tables[kind, d], x) for kind, d, x in POWER_CASES]


@pytest.fixture(scope="session")
def z_bernoulli(z_spec):
    return dynamics.bernoulli_system(z_spec, seed=20240)


@pytest.fixture(scope="session")
def built_model(z_bernoulli, z_weights):
    cfg = ExperimentConfig(stages=4, seed=11)  # 3000 check and 160 base samples
    mdl = model.build_model(z_bernoulli, z_weights, cfg)
    model.run_stage_checks(mdl, cfg)
    return mdl, cfg
