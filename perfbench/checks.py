"""Correctness checks of the program's outputs.

Each check returns a list of problems; an empty list means it passed.  A
check recomputes what it can without the code under test (the generator's
own counts and replays, the stations file, event-level simulation,
exhaustive search) and otherwise tests a property the method guarantees.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
SIM_SIGMAS = 4.0


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_json(path) -> object:
    return json.loads(Path(path).read_text())


def read_plan(outdir: Path) -> dict:
    """An ``optimize``/``longrun`` output directory as one plan document:
    allocation.json plus the per-move deltas from moves.csv."""
    plan = read_json(outdir / "allocation.json")
    with open(outdir / "moves.csv", newline="") as fh:
        plan["deltas"] = [float(row["delta"]) for row in csv.DictReader(fh)]
    return plan


def check_estimate(profiles_path: Path, city) -> list[str]:
    """rate x eligible minutes equals the generator's trip count in every
    bucket, and exactly the zero-minute buckets are flagged."""
    doc = read_json(profiles_path)
    problems = []
    ids = [s["id"] for s in doc["stations"]]
    if sorted(ids) != sorted(st.id for st in city.stations):
        problems.append(f"profiles cover stations {ids}, the city has {len(city.stations)}")
    flagged = set()
    for s in doc["stations"]:
        sid = s["id"]
        for f in s.get("flags", []):
            if f["flag"] != "censored_fallback":
                problems.append(f"{sid}: unexpected flag {f}")
            flagged.add((sid, f["kind"], int(f["interval"])))
        for kind, rates in (("rental", s["rental_rates"]), ("return", s["return_rates"])):
            for k, rate in enumerate(rates):
                minutes = city.eligible_minutes.get((sid, kind, k), 0.0)
                count = city.trip_counts.get((sid, kind, k), 0)
                if not close(rate * (minutes if minutes > 0 else 1.0), count):
                    problems.append(f"{sid} {kind} interval {k}: rate {rate} over {minutes} min, {count} trips")
    if flagged != city.zero_minute_buckets:
        problems.append(
            f"flagged {sorted(flagged ^ city.zero_minute_buckets)[:5]} differ from the zero-minute buckets"
        )
    return problems


def check_plan(plan: dict, stations: list[dict], dock_budget: int, z: int, new: int = 0, scaled: bool = False) -> list[str]:
    """Budgets, box bounds, the move cap and the dock-move distance,
    recomputed from the plan's stations and the stations file.  A scaled
    plan's log holds every phase's moves, including those a later phase
    pulls back, so only its distance bounds the docks it moves."""
    problems = []
    rows = plan["stations"]
    if [r["id"] for r in rows] != [s["id"] for s in stations]:
        return ["plan stations differ from the stations file"]
    bike_budget = sum(s["current_bikes"] for s in stations)
    distance = 0
    for r, s in zip(rows, stations):
        if (r["docks_before"], r["bikes_before"]) != (s["current_docks"], s["current_bikes"]):
            problems.append(f"{s['id']}: baseline differs from the stations file")
        if not s["l"] <= r["docks_after"] <= s["u"]:
            problems.append(f"{s['id']}: {r['docks_after']} docks outside [{s['l']}, {s['u']}]")
        if not 0 <= r["bikes_after"] <= r["docks_after"]:
            problems.append(f"{s['id']}: {r['bikes_after']} bikes in {r['docks_after']} docks")
        distance += abs(r["docks_after"] - s["current_docks"])
    docks = sum(r["docks_after"] for r in rows)
    if docks > dock_budget + new:
        problems.append(f"{docks} docks over the budget {dock_budget} + {new} new")
    bikes = sum(r["bikes_after"] for r in rows) + plan["depot_bikes"]
    if bikes != bike_budget:
        problems.append(f"{bikes} bikes placed or parked, budget {bike_budget}")
    relocations = plan["moves"] - plan["deployed_docks"]
    if not scaled and relocations > (2 * z + new) // 2:
        problems.append(f"{relocations} dock moves over the cap {z} (+ {new} new docks)")
    if distance > 2 * z + new:
        problems.append(f"dock-move distance {distance} over 2z + new = {2 * z + new}")
    total = sum(float(r["cost_after"]) for r in rows)
    if not close(total, float(plan["objective"])):
        problems.append(f"objective {plan['objective']} is not the sum of station costs {total}")
    return problems


def check_gains(plan: dict) -> list[str]:
    """Every move improves and per-move gains never grow."""
    deltas = plan["deltas"]
    problems = [f"move {i + 1} does not improve: {d}" for i, d in enumerate(deltas) if not d < 0]
    for i, (a, b) in enumerate(zip(deltas, deltas[1:])):
        if b < a - REL_TOL:
            problems.append(f"gain grows at move {i + 2}: {a} then {b}")
    return problems


def check_simulated_costs(plan: dict, profiles_path: Path, sample: int, trials: int, seed: int) -> list[str]:
    """The daily cost of the most-changed final stations agrees with an
    event-level simulation within SIM_SIGMAS standard errors."""
    from dockalloc.demand import load_profiles
    from dockalloc.oracle import simulate_cost

    _, profiles = load_profiles(profiles_path)
    by_id = {p.station_id: p for p in profiles}
    rows = sorted(plan["stations"], key=lambda r: (-abs(r["dock_delta"]), r["id"]))[:sample]
    problems = []
    for i, r in enumerate(rows):
        d, b = r["docks_after"] - r["bikes_after"], r["bikes_after"]
        mean, stderr = simulate_cost(by_id[r["id"]], d, b, trials, seed=seed * 1000 + i)
        if abs(mean - r["cost_after"]) > SIM_SIGMAS * stderr + 1e-9:
            problems.append(f"{r['id']} at (d={d}, b={b}): cost {r['cost_after']}, simulated {mean} +- {stderr}")
    return problems


def check_longrun_tables(tables_dir: Path, plan: dict) -> list[str]:
    """Long-run table rows are constant in the bike split, and agree with
    the long-run plan's station costs at the planned capacity."""
    problems = []
    costs = {r["id"]: (r["docks_after"], float(r["cost_after"])) for r in plan["stations"]}
    paths = sorted(tables_dir.glob("table_*.json"))
    if not paths:
        return ["no tables written"]
    for path in paths:
        table = read_json(path)
        for s, row in enumerate(table["values"]):
            if max(row) - min(row) > 1e-12 * max(1.0, abs(row[0])):
                problems.append(f"{path.name} row {s} varies with the bike split")
        cap, cost = costs[table["station_id"]]
        if not close(table["values"][cap][0], cost):
            problems.append(f"{path.name}: {table['values'][cap][0]} at capacity {cap}, plan says {cost}")
    return problems


def check_posterior(impact_path: Path, city, days_path: Path, profiles_path: Path, seed: int, resamples: int) -> list[str]:
    """Added-capacity impacts equal the generator's uncensored replay;
    removed-capacity estimates are non-negative and repeat for the seed."""
    from dockalloc.demand import load_profiles
    from dockalloc.posterior import decreased_capacity_impact, load_days

    report = read_json(impact_path)
    entries = {e["station_id"]: e for e in report["stations"]}
    problems = []
    for sid, truth in sorted(city.added_truth.items()):
        got = entries.get(sid, {}).get("added", {}).get("same_bikes/none")
        if got != float(truth):
            problems.append(f"{sid}: added-capacity impact {got}, uncensored replay says {truth}")
    for sid in city.removed_ids:
        for key, value in entries.get(sid, {}).get("removed", {}).items():
            if value < 0:
                problems.append(f"{sid}: removed-capacity estimate {key} = {value} is negative")
    days = load_days(days_path)
    _, profiles = load_profiles(profiles_path)
    by_id = {p.station_id: p for p in profiles}
    idx, day = next((i, d) for i, d in enumerate(days) if d.capacity_after < d.capacity_before)
    day_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
    again = decreased_capacity_impact(day, by_id[day.station_id], "same_bikes", seed=day_seed, resamples=resamples)
    if again.mean != entries[day.station_id]["removed"]["same_bikes/none"]:
        problems.append(f"{day.station_id}: removed-capacity estimate does not repeat for seed {seed}")
    return problems


def check_whatif(result: dict, stations: list[dict], size) -> dict[str, list[str]]:
    """Feasibility of every what-if answer, and the properties tying them:
    greedy equals 8/4/1, more surplus never hurts, the trade-off respects
    k*new + moves <= M and does no worse than moving docks alone.  Problems
    are keyed by the operation they blame."""
    base = sum(s["current_docks"] for s in stations)
    k, joint = size.tradeoff
    z = size.whatif_moves
    first = result["rounds"][0]["ops"]
    problems: dict[str, list[str]] = {op["name"]: [] for op in first}
    for r in result["rounds"] + [result["cold"]]:
        for op, ref in zip(r["ops"], first):
            if op["plan"] != ref["plan"]:
                problems[op["name"]].append("answer differs between rounds or from the cold pass")
    plans = {op["name"]: op["plan"] for op in first if op["plan"] is not None}
    for name, plan in plans.items():
        if name == "tradeoff":
            new, moves = plan["chosen_new_docks"], plan["chosen_moves"]
            problems[name] += check_plan(plan, stations, base + size.base_surplus, moves, new)
            if k * new + moves > joint:
                problems[name].append(f"buys {new} docks and moves {moves}: over M = {joint}")
        else:
            problems[name] += check_plan(plan, stations, base + plan["surplus"], z, scaled=name == "scaled")
        if not close(plan["objective"], plan["direct_objective"]):
            problems[name].append(f"objective {plan['objective']}, its stations cost {plan['direct_objective']}")
    sweep = [(s, plans.get(f"deploy_{s}")) for s in size.surplus_levels]
    for (s0, a), (s1, b) in zip(sweep, sweep[1:]):
        if a and b and b["objective"] > a["objective"] + REL_TOL * max(1.0, abs(a["objective"])):
            problems[f"deploy_{s1}"].append(f"objective grows from {a['objective']} to {b['objective']} at surplus {s0} -> {s1}")
    greedy = plans.get(f"deploy_{size.surplus_levels[-1]}")
    if "scaled" in plans and greedy and not close(plans["scaled"]["objective"], greedy["objective"]):
        problems["scaled"].append(f"8/4/1 objective {plans['scaled']['objective']} differs from greedy {greedy['objective']}")
    moves_only = plans.get(f"deploy_{size.base_surplus}")
    if "tradeoff" in plans and moves_only:
        a, b = plans["tradeoff"]["objective"], moves_only["objective"]
        if a > b + REL_TOL * max(1.0, abs(b)):
            problems["tradeoff"].append(f"objective {a} is worse than moving {joint} docks alone: {b}")
    return problems


def check_tradeoff_oracle(seed: int) -> list[str]:
    """optimize_tradeoff matches exhaustive search on a small seeded instance."""
    from dockalloc.allocator import optimize_tradeoff
    from dockalloc.oracle import brute_force_tradeoff, random_instance

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 5])))
    spec = dataclasses.replace(random_instance(rng, n_max=4, budget_max=8), tradeoff=(1, 3))
    _, _, _, best = brute_force_tradeoff(spec)
    got = optimize_tradeoff(spec.constraints(), spec.tables()).result.objective
    if not close(float(got), float(best)):
        return [f"optimize_tradeoff {got} on a small instance, exhaustive search {best}"]
    return []
