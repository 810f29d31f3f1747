"""The benchmark's tracer wraps program functions by name; every name it
lists must still resolve to a callable, or a refactor that drops one would
only break the traced benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

import dockalloc  # noqa: E402,F401
import dockalloc.cli  # noqa: E402,F401


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _ in tracing.SPANS + tracing.TIMED + tracing.COUNTERS] + [("dockalloc.cli", "_thread_count")],
)
def test_traced_name_resolves_to_callable(module, attr):
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name, None))
