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


@pytest.fixture(scope="session")
def z_bernoulli(z_spec):
    return dynamics.bernoulli_system(z_spec, seed=20240)


@pytest.fixture(scope="session")
def built_model(z_bernoulli, z_weights):
    cfg = ExperimentConfig(stages=4, seed=11)  # 3000 check and 160 base samples
    mdl = model.build_model(z_bernoulli, z_weights, cfg)
    model.run_stage_checks(mdl, cfg)
    return mdl, cfg
