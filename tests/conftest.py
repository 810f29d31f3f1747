import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dockalloc.udf import LazyDailyCost

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20260809)))


def philox(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


@pytest.fixture
def price_blocks(monkeypatch):
    """Record the capacities of every batched kernel pass and whether it
    built day transitions too."""
    calls = []
    original = LazyDailyCost._price_block

    def spy(self, capacities, transition):
        calls.append((list(capacities), transition))
        return original(self, capacities, transition)

    monkeypatch.setattr(LazyDailyCost, "_price_block", spy)
    return calls
