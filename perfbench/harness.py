"""Pieces every workload shares: input sizes, running the program and rounds."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
# Every run must end within 180 s; steps get what is left of this.
DEADLINE_S = 165.0
_START = time.perf_counter()


@dataclass(frozen=True)
class Size:
    """Make-up of one city and of the work each workload does on it."""

    stations: int = 50
    days: int = 14
    closed: int = 6  # stations closed for maintenance in one night interval
    added: int = 8  # observed days after a capacity increase
    removed: int = 16  # observed days after a capacity decrease
    district: int = 8  # stations whose long-run tables are materialized
    max_moves: int = 150  # z for the cold daily and long-run solves
    resamples: int = 500  # posterior resamples per censored day and column
    tradeoff: tuple[int, int] = (2, 80)  # k, M
    base_surplus: int = 10  # surplus docks of the what-if city
    surplus_levels: tuple[int, ...] = (0, 10, 20, 30, 40)  # deployment sweep
    whatif_moves: int = 80  # move cap of the sweep and the scaled solve (= M)
    sim_stations: int = 4  # final stations priced again by simulation
    sim_trials: int = 20_000
    setup_reps: int = 3  # program start-ups timed in the cold workloads' set-up
    whatif_setup_reps: int = 2  # loads and cold passes timed in the what-if set-up


SIZES = {
    "full": Size(),
    "tiny": Size(
        stations=6,
        days=2,
        closed=2,
        added=2,
        removed=2,
        district=2,
        max_moves=10,
        resamples=50,
        tradeoff=(2, 8),
        base_surplus=2,
        surplus_levels=(0, 2, 4),
        whatif_moves=8,
        sim_stations=2,
        sim_trials=4000,
        setup_reps=1,
        whatif_setup_reps=1,
    ),
}


def remaining() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - _START))


def program_env() -> dict[str, str]:
    """The environment the program runs in: the checkout's sources first.
    ``DOCKALLOC_THREADS`` passes through, so its default applies when unset."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Step:
    """One operation: a CLI command or an API call."""

    name: str
    seconds: float
    ok: bool
    error: str = ""


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=remaining(),
    )


def cli_step(name: str, argv: list[str], traced: bool, spans: Path) -> Step:
    """Run ``dockalloc <argv>`` in its own process, as a user would."""
    if traced:
        args = [str(BENCH / "traced_cli.py"), str(spans), *argv]
    else:
        args = ["-m", "dockalloc.cli", *argv]
    start = time.perf_counter()
    proc = run_python(args)
    seconds = time.perf_counter() - start
    return Step(name, seconds, proc.returncode == 0, proc.stderr.strip()[-500:])


def rounds(seconds: float, trace: bool, one_round):
    """Call ``one_round(index, traced)`` until ``seconds`` have passed.

    Every round does the same operations.  With tracing, rounds alternate
    untraced and traced and always end on a whole pair, so the overhead is
    measured on the same inputs."""
    out = []
    start = time.perf_counter()
    while True:
        traced = trace and len(out) % 2 == 1
        out.append(one_round(len(out), traced))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(out) % 2 == 0):
            return out


def median(values) -> float:
    return float(statistics.median(values))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
