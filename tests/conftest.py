import numpy as np
import pytest
from hypothesis import settings

from toolselect import diffcore as dc
from toolselect.simworld import WorldConfig, generate_world

# Property tests draw the same examples on every run and have no deadline,
# so the suite stays deterministic and does not fail on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_world():
    """One shared small 4-task world for fast unit tests."""
    cfg = WorldConfig(n_train=200, n_val=40, n_test=120, n_ref_pool=200,
                      tools_per_task=6, ref_size=8)
    return generate_world(cfg, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def handed_dtypes(monkeypatch):
    """The set of dtypes of the gradients handed to ``Tensor.accumulate``
    while the test runs; a test may clear it between cases."""
    handed = set()
    accumulate = dc.Tensor.accumulate

    def spy(self, g):
        handed.add(np.asarray(g).dtype)
        accumulate(self, g)
    monkeypatch.setattr(dc.Tensor, "accumulate", spy)
    return handed
