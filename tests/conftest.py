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
    """Record the capacities of every batched kernel pass, with False for
    a cost pass and True for a day-transition pass."""
    calls = []

    def spy(name, transition):
        original = getattr(LazyDailyCost, name)

        def recorded(self, capacities):
            calls.append((list(capacities), transition))
            return original(self, capacities)

        monkeypatch.setattr(LazyDailyCost, name, recorded)

    spy("_price_block", False)
    spy("_day_transitions", True)
    return calls
