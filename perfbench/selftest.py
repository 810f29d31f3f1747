"""Self-test of the benchmark: tiny workloads pass, corrupted outputs fail.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and requires
zero failed operations, passing checks and the per-layer counters of the
modules each workload runs.  Then feeds each check a deliberately corrupted
copy of a real output (a rate off by 1%, a start-up load one status day
short, an allocation over budget, a growing gain, a table row that depends
on the bike split, a wrong impact, a wrong what-if answer) and requires the
check to reject it.  Exits non-zero
on the first set of failures.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import checks
from cli_flows import setup_city, time_startup
from harness import ROOT, SIZES, WORK
from run import WORKLOADS, measure

SEED = 11
# Per-layer counters that must be non-zero (or zero) on each workload.
EXPECT_RUNS = {
    "daily_cold": ("demand.records", "demand.flagged_buckets", "udf.capacity_builds", "udf.interval_calls",
                   "allocator.moves", "posterior.resamples", "cli.bytes_written"),
    "longrun_cold": ("longrun.chains", "udf.capacity_builds", "allocator.moves", "cli.threads"),
    "whatif_warm": ("udf.cost_evals", "allocator.moves", "scaling.iterations", "scaling.cost_evals"),
}
EXPECT_ZERO = {
    "daily_cold": ("longrun.chains", "scaling.iterations"),
    "longrun_cold": ("demand.records", "posterior.resamples"),
    "whatif_warm": ("udf.capacity_builds", "udf.interval_calls", "cli.bytes_written"),
}


def _workloads(failures: list[str]) -> None:
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, "tiny", SEED, 0.0, trace)
            label = f"{workload} {'traced' if trace else 'untraced'}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['attempted']} attempted, {result['failed']} failed, "
                                f"correct={result['correct']}")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                failures += [f"{label}: {k} is 0" for k in EXPECT_RUNS[workload] if not metrics[k] > 0]
                failures += [f"{label}: {k} = {metrics[k]}" for k in EXPECT_ZERO[workload] if metrics[k] != 0]
            else:
                failures += [f"{label}: {k} = {v}" for k, v in metrics.items() if not v > 0]


def _must_reject(failures: list[str], label: str, problems) -> None:
    found = any(problems.values()) if isinstance(problems, dict) else bool(problems)
    print(f"  corrupted {label}: {'rejected' if found else 'ACCEPTED'}")
    if not found:
        failures.append(f"check accepted a corrupted {label}")


def _corruptions(failures: list[str]) -> None:
    size = SIZES["tiny"]
    city = setup_city(size, SEED, WORK / "selftest")
    stations = checks.read_json(city.paths["stations.json"])
    daily = WORK / "daily_cold" / "round0"
    budget = sum(s["current_docks"] for s in stations)

    profiles = checks.read_json(daily / "est" / "profiles.json")
    row = next(s for s in profiles["stations"] if any(r > 0 for r in s["rental_rates"]))
    k = next(i for i, r in enumerate(row["rental_rates"]) if r > 0)
    row["rental_rates"][k] *= 1.01
    bad_profiles = WORK / "selftest" / "profiles.json"
    bad_profiles.write_text(json.dumps(profiles))
    _must_reject(failures, "rate (x1.01)", checks.check_estimate(bad_profiles, city))
    _must_reject(failures, "start-up load (one status day missing)",
                 time_startup(dataclasses.replace(size, days=size.days + 1), city)[1])

    plan = checks.read_plan(daily / "opt")
    over = copy.deepcopy(plan)
    over["stations"][0]["docks_after"] += 1
    _must_reject(failures, "allocation (one dock over budget)", checks.check_plan(over, stations, budget, size.max_moves))
    grow = copy.deepcopy(plan)
    grow["deltas"] = sorted(grow["deltas"], reverse=True)
    _must_reject(failures, "move log (growing gains)", checks.check_gains(grow))

    impact = checks.read_json(daily / "post" / "impact.json")
    sid = next(iter(city.added_truth))
    entry = next(e for e in impact["stations"] if e["station_id"] == sid)
    entry["added"]["same_bikes/none"] += 1
    bad_impact = WORK / "selftest" / "impact.json"
    bad_impact.write_text(json.dumps(impact))
    _must_reject(
        failures,
        "impact (+1 avoided stockout)",
        checks.check_posterior(bad_impact, city, city.paths["days.json"], daily / "est" / "profiles.json",
                               SEED, size.resamples),
    )

    lr = WORK / "longrun_cold" / "round0"
    bad_tables = WORK / "selftest" / "tables"
    bad_tables.mkdir(exist_ok=True)
    for path in (lr / "tables").glob("table_*.json"):
        (bad_tables / path.name).write_text(path.read_text())
    path = sorted(bad_tables.glob("table_*.json"))[0]
    table = checks.read_json(path)
    table["values"][3][1] *= 1.01
    path.write_text(json.dumps(table))
    _must_reject(failures, "long-run table (row varies with bikes)",
                 checks.check_longrun_tables(bad_tables, checks.read_plan(lr / "lr")))

    result = checks.read_json(WORK / "whatif_warm" / "result.json")
    bad = copy.deepcopy(result)
    for r in bad["rounds"] + [bad["cold"]]:
        scaled = next(op for op in r["ops"] if op["name"] == "scaled")
        scaled["plan"]["objective"] += 1e-3
        scaled["plan"]["direct_objective"] += 1e-3
    _must_reject(failures, "8/4/1 objective (off by 1e-3)", checks.check_whatif(bad, result["stations"], size))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []
    _workloads(failures)
    _corruptions(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
