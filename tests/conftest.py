import pytest

import maxwalk as mw
from maxwalk.config import RunConfig
from maxwalk.grid import _SPEC_NAMES
from maxwalk.verify import SuiteState

SEED = 20260809


@pytest.fixture(scope="session")
def acceptance_config() -> RunConfig:
    return RunConfig(
        mode="verify",
        n_max=64,
        n_list=(1, 2, 4, 8, 16, 32, 64),
        grid_points=2**14,
        mc_samples=10**5,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def acceptance_state(acceptance_config) -> dict[str, SuiteState]:
    """Shared lazily-built walks/tables/curves at the acceptance scale, one
    state per spec."""
    return {name: SuiteState(acceptance_config, name) for name in _SPEC_NAMES}


@pytest.fixture(scope="session")
def small_grid() -> mw.GridSpec:
    return mw.make_working_grid(4, 2**12)


@pytest.fixture(scope="session")
def fine_grid() -> mw.GridSpec:
    """Step ~1.8e-4: tight enough for the 1e-4 closed-form entropy checks
    and the 1e-6 rescaling identities."""
    count = 2**17
    step = 24.0 / count
    return mw.GridSpec(x_min=-(count // 2) * step, step=step, count=count)


@pytest.fixture(scope="session")
def gaussian_walk8(small_grid):
    return mw.compute_walk(mw.DistributionSpec("gaussian"), 8, small_grid)
