import dataclasses
import json

import numpy as np
import pytest
from hypothesis import settings

from levy_transience.densities import (
    DensityVariant,
    RadialLevyDensity,
    finite_range_density,
    modified_density,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
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


def stacked_density_cases():
    """(id, density) pairs for the row-group tests: power, finite_range,
    power_log and table densities, a stable density with a factor below a
    radius and a modified density whose variants differ in support_lo (with
    an atom), in d = 1, 2, 3, 5."""
    def cut_power(d, lo):
        return lambda u: np.where(u >= lo, u ** (-d - 1.2), 0.0)

    for d in (1, 2, 3, 5):
        yield f"power-d{d}", power_density(d, (0.6, 1.6), coeff=(0.5, 2.0),
                                           u0=1.0, n_variants=3)
        yield f"finite-d{d}", finite_range_density(d, (0.5, 1.5), n_variants=3)
        yield f"power_log-d{d}", power_log_density(d, -d - 1.0, 2.0)
        yield f"table-d{d}", table_density(d, [0.5, 3.0, 40.0],
                                           [1e-1, 1e-3, 1e-12])
        base = RadialLevyDensity(d=d, u0=0.5, variants=tuple(
            DensityVariant(label=f"lo={lo}", profile=cut_power(d, lo),
                           support_lo=lo, breakpoints=(lo,),
                           tail_slope=-d - 1.2)
            for lo in (0.25, 0.5)))
        yield f"modified-support-d{d}", dataclasses.replace(
            modified_density(base, 2.0, factor=3.0), atoms=((0.1, 0.3),))
    for d in (1, 2, 3, 5):
        yield f"factor-stable-d{d}", modified_density(
            stable_density(d, (0.7, 1.4), n_variants=2), 2.0, factor=3.0)
