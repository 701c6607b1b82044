import json

import pytest
from hypothesis import settings

from levy_transience.densities import stable_density
from levy_transience.symbols import (
    brownian_drift,
    isotropic_stable,
    stable_like,
)

# property tests draw the same examples on every run and stay within the
# tier-1 time budget
settings.register_profile("tier1", deadline=None, derandomize=True,
                          max_examples=100)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def bm3():
    return brownian_drift(3, c=1.0)


@pytest.fixture(scope="session")
def bm5():
    return brownian_drift(5, c=1.0)


@pytest.fixture(scope="session")
def stable_05_d1():
    return isotropic_stable(1, 0.5)


@pytest.fixture(scope="session")
def stable_15_d1():
    return isotropic_stable(1, 1.5)


@pytest.fixture(scope="session")
def stable_10_d3():
    return isotropic_stable(3, 1.0)


@pytest.fixture(scope="session")
def stable_like_interval():
    return stable_like(2, alpha=(0.5, 1.5), gamma=1.0)


@pytest.fixture(scope="session")
def stable_density_d1():
    return stable_density(1, 0.5)


@pytest.fixture
def model_file(tmp_path):
    def write(cfg, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return write
