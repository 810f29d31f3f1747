"""Benchmark of dockalloc as a capacity planner uses it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``daily_cold`` (estimate -> optimize ->
posterior through the CLI, no cache), ``longrun_cold`` (longrun -> tables
--objective longrun through the CLI, no cache) and ``whatif_warm``
(trade-off, deployment and 8/4/1 sweeps through the Python API on warm
cost tables).  The seed makes the city; the program sees only the files.

Rounds of the workload run until S seconds have passed; every output is
then checked.  A stage table goes to standard output, then, as the last
line, one JSON object: with ``--trace 0`` the end-to-end metrics of
untraced rounds, with ``--trace 1`` the per-layer metrics of traced rounds
(alternating with untraced ones, to give the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys

from cli_flows import run_flow
from harness import ROOT, SIZES, WORK, median
from tracing import PER_LAYER
from whatif import run_whatif

WORKLOADS = ("daily_cold", "longrun_cold", "whatif_warm")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result object (the last line printed)."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "whatif_warm":
        out = run_whatif(size, seed, seconds, trace, work)
    else:
        out = run_flow(workload, SIZES[size], seed, seconds, trace, work)

    print("set-up: " + ", ".join(f"{t:.3f} s" for t in out["setup"]))
    problems = {name: items for name, items in out["problems"].items() if items}
    for name, items in sorted(problems.items()):
        for item in items[:5]:
            print(f"check failed: {name}: {item}", file=sys.stderr)
    if trace:
        units = dict(PER_LAYER)
        values = {name: median(r[name] for r in out["layers"]) for name in units}
        values["trace.overhead_ratio"] = out["traced_wall"] / out["wall"]
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": median(out["setup"]),
            "wall_s": out["wall"],
            "solve_s": out["solve"],
            # ru_maxrss is in KiB: the largest program process of the run
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    return {
        "correct": not problems,
        "attempted": len(out["steps"]),
        "failed": sum(not step.ok for step in out["steps"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dockalloc" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'dockalloc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and
    # reaps the program process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = measure(args.workload, "full", args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
