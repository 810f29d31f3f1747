"""Mutation census: does some test fail when a check is broken?

Each mutant replaces one exact text of a file under ``src/dockalloc`` (it
must occur there once) and names the test files that should kill it.  The
census copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory per mutant, applies the mutant there, runs its test files that
exist with ``pytest -x`` under a timeout, and prints one line per mutant:

* ``killed``: a test failed;
* ``survived``: every test passed;
* ``timed out``: the run passed the timeout;
* ``absent``: the text is not in the file (the check does not exist in
  this tree);
* ``error``: pytest could not run (any other exit code).

Usage, from the repository root (stdlib only; pytest does not collect this
file):

    python tests/mutants.py

Each mutant's test run has ``TIMEOUT`` seconds.  Before the mutants it runs
every listed test file on the unmutated copy, and stops if that run fails,
since a failing tree kills every mutant.  It exits 0 only when every mutant
is killed, so CI runs it as a gate.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0  # seconds per mutant's test run


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/dockalloc
    text: str
    replacement: str
    tests: tuple[str, ...]  # under tests


def _unchecked(name, file, condition, tests, after=""):
    """The mutant that replaces the check ``if <condition>:`` by ``if
    False:``; ``after`` is the text that follows it when the condition
    alone is not unique in the file."""
    return Mutant(name, file, f"if {condition}:{after}", f"if False:{after}", tests)


DEMAND_TESTS = ("test_inputs.py", "test_demand.py", "test_cli.py")
FINITE_TESTS = ("test_inputs.py", "test_udf.py", "test_oracle.py")
DAY_TESTS = ("test_inputs.py", "test_posterior.py", "test_loader_fuzz.py")
NUL_TESTS = ("test_demand.py", "test_cli.py", "test_posterior.py")
SOLVER_TESTS = ("test_allocator.py", "test_scaling.py", "test_cli.py")
START_HOUR_TAIL = '\n            raise ValidationError(f"start_hour'
MINUTES = "not (math.isfinite(self.minutes_per_interval) and self.minutes_per_interval > 0)"

MUTANTS = [
    # Horizon
    _unchecked("horizon.integer", "demand.py", "type(self.intervals) is not int", DEMAND_TESTS),
    _unchecked("horizon.intervals", "demand.py", "self.intervals < 1", DEMAND_TESTS),
    _unchecked("horizon.minutes", "demand.py", MINUTES, DEMAND_TESTS, '\n            raise ValidationError(f"minutes'),
    _unchecked("horizon.start_hour", "demand.py", "not 0 <= self.start_hour < 24", DEMAND_TESTS, START_HOUR_TAIL),
    # PoissonProfile
    _unchecked("profile.lengths", "demand.py", "len(self.rental_rates) != len(self.return_rates)", DEMAND_TESTS),
    _unchecked("profile.empty", "demand.py", "not self.rental_rates", DEMAND_TESTS),
    _unchecked("profile.minutes", "demand.py", MINUTES, DEMAND_TESTS, "\n            raise ValidationError(\n"),
    _unchecked(
        "profile.start_hour",
        "demand.py",
        "not 0 <= self.start_hour < 24",
        DEMAND_TESTS,
        '\n            raise ValidationError(f"profile',
    ),
    _unchecked("profile.real_rates", "demand.py", "type(r) is not float and not isinstance(r, numbers.Real)", DEMAND_TESTS),
    _unchecked("profile.rates", "demand.py", 'not (r >= 0 and r == r and r != float("inf"))', DEMAND_TESTS),
    _unchecked("profile.flag_interval", "demand.py", "not 0 <= interval < self.intervals", DEMAND_TESTS),
    _unchecked("profile.flag_kind", "demand.py", "kind not in (RENTAL, RETURN)", DEMAND_TESTS),
    # FiniteProfile
    _unchecked("finite.probability", "udf.py", "not p >= 0", FINITE_TESTS),
    Mutant("finite.events", "udf.py", "                if x not in (1, -1):", "                if False:", FINITE_TESTS),
    _unchecked("finite.mass", "udf.py", "total > 1 + PROBABILITY_SLACK", FINITE_TESTS),
    # ObservedDay
    _unchecked("day.negative_capacity", "posterior.py", "self.capacity_before < 0 or self.capacity_after < 0", DAY_TESTS),
    _unchecked(
        "day.capacity_limit", "posterior.py", "max(self.capacity_before, self.capacity_after) > DEFAULT_CAPACITY_LIMIT", DAY_TESTS
    ),
    _unchecked("day.bikes_at_open", "posterior.py", "not 0 <= self.bikes_at_open <= self.capacity_after", DAY_TESTS),
    Mutant("day.events", "posterior.py", "            if x not in (1, -1):", "            if False:", DAY_TESTS),
    _unchecked(
        "day.timestamp_count",
        "posterior.py",
        "self.event_timestamps is not None and len(self.event_timestamps) != len(self.observed_events)",
        DAY_TESTS,
    ),
    _unchecked("day.periods", "posterior.py", "interval < 0 or not 0 <= minutes < math.inf", DAY_TESTS),
    _unchecked("day.time_order", "posterior.py", "not all(math.isfinite(t) for t in times) or times != sorted(times)", DAY_TESTS),
    _unchecked(
        "day.crew_size",
        "posterior.py",
        "any(abs(count) > DEFAULT_CAPACITY_LIMIT for _, count in self.rebalancing_events)",
        DAY_TESTS,
    ),
    # the stride plan, as the sweep runs it
    Mutant("plan.capped_last", "allocator.py", "strides if joint is None else strides[-1:]", "strides", SOLVER_TESTS),
    Mutant(
        "plan.initial",
        "allocator.py",
        "initial_objective=start if alone else initial",
        "initial_objective=start",
        SOLVER_TESTS,
    ),
    Mutant("plan.earlier_log", "allocator.py", "enumerate(log + moves + additions", "enumerate(moves + additions", SOLVER_TESTS),
    # the CSV loaders
    Mutant("csv.nul_block", "errors.py", '"\\0" in block', "False", NUL_TESTS),
    _unchecked("csv.nul_byte", "errors.py", '"\\0" in line', NUL_TESTS),
]


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(tree: Path, tests, timeout: float) -> int | None:
    """pytest's exit code on ``tests`` in ``tree``; None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    try:
        return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run_mutant(mutant: Mutant) -> str:
    tests = [t for t in mutant.tests if (ROOT / "tests" / t).exists()]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / "src" / "dockalloc" / mutant.file
        source = path.read_text()
        count = source.count(mutant.text)
        if count == 0:
            return "absent"
        if count > 1:
            raise SystemExit(f"{mutant.name}: the text occurs {count} times in {mutant.file}")
        path.write_text(source.replace(mutant.text, mutant.replacement))
        code = _pytest(tree, tests, TIMEOUT)
    return {None: "timed out", 0: "survived", 1: "killed"}.get(code, f"error ({code})")


def main() -> int:
    every_test = sorted({t for m in MUTANTS for t in m.tests if (ROOT / "tests" / t).exists()})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(Path(tmp))
        if _pytest(Path(tmp), every_test, TIMEOUT * len(every_test)) != 0:
            print(f"the unmutated tree fails {' '.join(every_test)}; no census")
            return 1
    tally: dict[str, int] = {}
    for mutant in MUTANTS:
        start = time.perf_counter()
        result = run_mutant(mutant)
        tally[result] = tally.get(result, 0) + 1
        print(f"{mutant.name:24} {mutant.file:13} {result:10} {time.perf_counter() - start:6.1f} s", flush=True)
    print(", ".join(f"{count} {result}" for result, count in sorted(tally.items())))
    return 0 if set(tally) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
