"""Command-line workflow: estimate -> tables -> optimize -> posterior -> verify.

Every subcommand writes a ``manifest.json`` (hashed config, versions, seed)
next to its outputs, and re-running with the same config reproduces the
primary outputs byte for byte.  Exit codes: 0 success, 1 validation error,
2 infeasible constraint system.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import demand as demand_mod
from . import posterior as posterior_mod
from .allocator import DEFAULT_IMPROVEMENT_THRESHOLD, Constraints, LogEntry, optimize, optimize_tradeoff
from .errors import InfeasibleError, ValidationError, read_json, row_list, whole_number
from .instance import load_instance
from .longrun import LongrunCost
from .scaling import PhasePlan, optimize_scaled
from .udf import LazyDailyCost, check_multimodular, load_cost_table, save_cost_table


def _thread_count() -> int:
    """Worker threads for per-station table builds: ``DOCKALLOC_THREADS``,
    else 1.  The builds are mostly short numpy calls under the interpreter
    lock, and two threads measured slower than one."""
    raw = os.environ.get("DOCKALLOC_THREADS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ValidationError(f"DOCKALLOC_THREADS must be an integer, got {raw!r}") from exc
    return 1


def _parallel_map(fn, items):
    workers = _thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _write_manifest(outdir: Path, command: str, config: dict, seed: int | None = None) -> None:
    canonical = json.dumps(config, sort_keys=True, default=_jsonable)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "dockalloc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_estimate(args) -> int:
    horizon = demand_mod.Horizon(
        intervals=args.intervals,
        minutes_per_interval=args.interval_minutes,
        start_hour=args.start_hour,
    )
    trips = demand_mod.load_trips_csv(args.trips)
    status = demand_mod.load_status_csv(args.status)
    profiles = demand_mod.estimate_rates(trips, status, args.days, horizon)
    out = _outdir(args)
    demand_mod.save_profiles(out / "profiles.json", profiles, horizon, days=args.days)
    stats_doc = {
        "trips": len(trips),
        "status_rows": len(status),
        "trips_outside_horizon": demand_mod.trips_outside_horizon(trips, horizon),
        "censored_fallback": sum(len(p.flags) for p in profiles),
    }
    _write_json(out / "stats.json", stats_doc)
    _write_manifest(
        out,
        "estimate",
        {
            "trips": str(args.trips),
            "status": str(args.status),
            "days": args.days,
            "intervals": args.intervals,
            "interval_minutes": args.interval_minutes,
            "start_hour": args.start_hour,
        },
    )
    print(out / "profiles.json")
    return 0


def _coordinate(value, what: str):
    """An optional map coordinate: absent, or a finite number."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return value


def _load_stations(path) -> list[dict]:
    rows = row_list(read_json(path, "stations"), "stations", "stations")
    stations = []
    seen: set[str] = set()
    for row in rows:
        try:
            stations.append(
                {
                    "id": str(row["id"]),
                    "current_docks": whole_number(row["current_docks"], "current_docks"),
                    "current_bikes": whole_number(row["current_bikes"], "current_bikes"),
                    "l": whole_number(row["l"], "l"),
                    "u": whole_number(row["u"], "u"),
                    "lat": _coordinate(row.get("lat"), "lat"),
                    "lon": _coordinate(row.get("lon"), "lon"),
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed station row {row}: {exc}") from exc
        st = stations[-1]
        for key in ("current_docks", "current_bikes", "l", "u"):
            if st[key] < 0:
                raise ValidationError(f"station {st['id']!r}: {key} must be non-negative, got {st[key]}")
        if st["current_bikes"] > st["current_docks"]:
            raise ValidationError(f"station {st['id']!r} has more bikes than docks")
        if st["id"] in seen:
            raise ValidationError(f"duplicate station id {st['id']!r}")
        seen.add(st["id"])
    return stations


def cmd_tables(args) -> int:
    horizon, profiles = demand_mod.load_profiles(args.profiles)
    capacities: dict[str, int] = {}
    if args.stations:
        for st in _load_stations(args.stations):
            capacities[st["id"]] = st["u"]
    for p in profiles:
        capacities.setdefault(p.station_id, args.capacity)
    out = _outdir(args)

    def build(profile):
        cap = capacities[profile.station_id]
        if args.objective == "longrun":
            table = LongrunCost(profile).materialize(cap)
        else:
            table = LazyDailyCost(profile).materialize(cap)
        path = out / f"table_{profile.station_id}.json"
        save_cost_table(path, table)
        return path

    paths = _parallel_map(build, profiles)
    _write_manifest(
        out,
        "tables",
        {
            "profiles": str(args.profiles),
            "stations": str(args.stations) if args.stations else None,
            "capacity": args.capacity,
            "objective": args.objective,
        },
    )
    for p in sorted(paths):
        print(p)
    return 0


def _tradeoff(arg: str | None):
    if arg is None:
        return None
    try:
        k, m = arg.split(",")
        return int(k), int(m)
    except ValueError as exc:
        raise ValidationError(f"--tradeoff expects 'k,M' integers, got {arg!r}") from exc


def _problem_from_args(args):
    """Resolve stations, cost sources and constraints from the CLI inputs."""
    objective = args.objective
    if args.instance:
        spec = load_instance(args.instance)
        meta = [{"id": s.id, "lat": None, "lon": None} for s in spec.stations]
        if objective == "longrun":
            sources = [LongrunCost(s.profile) for s in spec.stations]
        else:
            sources = spec.tables()
        constraints = spec.constraints()
        if args.max_moves is not None:
            constraints = dataclasses.replace(constraints, max_moves=args.max_moves)
        if args.tradeoff:
            constraints = dataclasses.replace(constraints, tradeoff=_tradeoff(args.tradeoff))
        return meta, sources, constraints

    if not args.stations:
        raise ValidationError("optimize needs --instance or --stations")
    stations = _load_stations(args.stations)
    meta = stations
    if args.bikes is None or args.docks is None:
        raise ValidationError("--bikes and --docks are required with --stations")

    if args.tables:
        table_dir = Path(args.tables)
        candidates = sorted(table_dir.glob("*.json")) if table_dir.is_dir() else [table_dir]
        by_id = {}
        for path in candidates:
            if path.name == "manifest.json":
                continue
            table = load_cost_table(path)
            by_id[table.station_id] = table
        missing = [st["id"] for st in stations if st["id"] not in by_id]
        if missing:
            raise ValidationError(f"no cost table for stations {missing}")
        sources = [by_id[st["id"]] for st in stations]
        for table in sources:
            violations = check_multimodular(table)
            if violations:
                raise ValidationError(
                    f"cost table {table.station_id!r} is not multimodular, so the descent cannot solve it:"
                    f" {violations[0]} ({len(violations)} violations)"
                )
    elif args.profiles:
        _, profiles = demand_mod.load_profiles(args.profiles)
        by_id = {p.station_id: p for p in profiles}
        missing = [st["id"] for st in stations if st["id"] not in by_id]
        if missing:
            raise ValidationError(f"no demand profile for stations {missing}")
        if objective == "longrun":
            sources = [LongrunCost(by_id[st["id"]]) for st in stations]
        else:
            sources = [LazyDailyCost(by_id[st["id"]]) for st in stations]
    else:
        raise ValidationError("optimize needs --profiles or --tables alongside --stations")

    constraints = Constraints(
        bike_budget=args.bikes,
        dock_budget=args.bikes + args.docks,
        baseline_docks=tuple(st["current_docks"] - st["current_bikes"] for st in stations),
        baseline_bikes=tuple(st["current_bikes"] for st in stations),
        lower=tuple(st["l"] for st in stations),
        upper=tuple(st["u"] for st in stations),
        max_moves=args.max_moves,
        tradeoff=_tradeoff(args.tradeoff),
    )
    return meta, sources, constraints


def _station_name(meta, index: int) -> str:
    return meta[index]["id"] if index < len(meta) else "depot"


def _write_moves_csv(path: Path, meta, log: tuple[LogEntry, ...]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "kind", "i", "j", "h", "delta", "objective"])
        for entry in log:
            m = entry.move
            writer.writerow(
                [
                    entry.iteration,
                    m.kind,
                    _station_name(meta, m.i),
                    _station_name(meta, m.j),
                    "" if m.h is None else _station_name(meta, m.h),
                    _csv_num(m.delta),
                    _csv_num(entry.objective_after),
                ]
            )


def _csv_num(v) -> str:
    return str(v) if isinstance(v, Fraction) else repr(float(v))


def _write_curve_csv(path: Path, initial, log) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["moves", "objective"])
        writer.writerow([0, _csv_num(initial)])
        for entry in log:
            writer.writerow([entry.iteration, _csv_num(entry.objective_after)])


def _write_geojson(path: Path, meta, before_caps, after_caps) -> bool:
    features = []
    for st, before, after in zip(meta, before_caps, after_caps):
        if st.get("lat") is None or st.get("lon") is None:
            continue
        delta = after - before
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [st["lon"], st["lat"]]},
                "properties": {
                    "id": st["id"],
                    "dock_delta": delta,
                    "docks_before": before,
                    "docks_after": after,
                    "color": "red" if delta < 0 else "blue",
                },
            }
        )
    if not features:
        return False
    _write_json(path, {"type": "FeatureCollection", "features": features})
    return True


def cmd_optimize(args) -> int:
    meta, sources, constraints = _problem_from_args(args)
    solver = args.solver
    plan = None
    if solver == "scaling":
        plan = PhasePlan.powers_of_two(constraints.dock_budget)
    elif solver == "hybrid":
        plan = PhasePlan.hybrid()
    if args.granularity != 1:
        plan = (plan or PhasePlan((1,))).truncate(args.granularity)

    tradeoff_info = None
    if constraints.tradeoff is not None:
        # the joint budget sets the moves and the plain descent reaches them
        ignored = [
            flag
            for flag, given in (
                ("--max-moves", constraints.max_moves is not None),
                ("--solver", solver != "greedy"),
                ("--granularity", args.granularity > 1),
            )
            if given
        ]
        if ignored:
            raise ValidationError(f"--tradeoff cannot be combined with {', '.join(ignored)}")
        trade = optimize_tradeoff(constraints, sources, improvement_threshold=args.threshold)
        result = trade.result
        tradeoff_info = {"chosen_moves": trade.chosen_moves, "chosen_new_docks": trade.chosen_new_docks}
    elif plan is not None:
        result = optimize_scaled(constraints, sources, plan, improvement_threshold=args.threshold)
    else:
        result = optimize(constraints, sources, improvement_threshold=args.threshold)
    stats_doc = {
        "phases": [
            {
                "step": ph.step,
                "iterations": ph.iterations,
                "bike_moves": ph.bike_moves,
                "evaluations_by_capacity": {str(k): v for k, v in ph.evaluations_by_capacity.items()},
            }
            for ph in result.phases
        ]
    }

    out = _outdir(args)
    before_caps = list(constraints.baseline_capacities)
    after_caps = list(result.allocation.capacities)
    initial = result.initial_objective

    allocation_doc = {
        "objective": result.objective,
        "initial_objective": initial,
        "objective_kind": args.objective,
        "solver": solver,
        "moves": len(result.log),
        "deployed_docks": result.deployed_docks,
        "depot_bikes": result.depot_bikes,
        "tradeoff": tradeoff_info,
        "stations": [
            {
                "id": meta[i]["id"],
                "docks_before": before_caps[i],
                "bikes_before": constraints.baseline_bikes[i],
                "docks_after": after_caps[i],
                "bikes_after": result.allocation.bikes[i],
                "dock_delta": after_caps[i] - before_caps[i],
                "cost_after": result.station_costs[i],
            }
            for i in range(len(meta))
        ],
    }
    _write_json(out / "allocation.json", allocation_doc)
    _write_moves_csv(out / "moves.csv", meta, result.log)
    _write_curve_csv(out / "curve.csv", initial, result.log)
    _write_json(out / "stats.json", stats_doc)
    wrote_map = _write_geojson(out / "map.geojson", meta, before_caps, after_caps)

    config = {
        "command_inputs": {
            "instance": str(args.instance) if args.instance else None,
            "stations": str(args.stations) if args.stations else None,
            "profiles": str(args.profiles) if args.profiles else None,
            "tables": str(args.tables) if args.tables else None,
        },
        "objective": args.objective,
        "solver": solver,
        "granularity": args.granularity,
        "bikes": args.bikes,
        "docks": args.docks,
        "max_moves": args.max_moves,
        "tradeoff": args.tradeoff,
        "threshold": args.threshold,
    }
    _write_manifest(out, "optimize", config, seed=args.seed)
    print(out / "allocation.json")
    if wrote_map:
        print(out / "map.geojson")
    return 0


def cmd_posterior(args) -> int:
    days = posterior_mod.load_days(args.days)
    profiles = {}
    if args.profiles:
        _, loaded = demand_mod.load_profiles(args.profiles)
        profiles = {p.station_id: p for p in loaded}
    report = posterior_mod.posterior_report(
        days,
        profiles,
        resamples=args.resamples,
        seed=args.seed,
        rebalancing_mode=args.rebalancing,
    )
    out = _outdir(args)
    _write_json(out / "impact.json", report)
    _write_manifest(
        out,
        "posterior",
        {
            "days": str(args.days),
            "profiles": str(args.profiles) if args.profiles else None,
            "resamples": args.resamples,
            "rebalancing": args.rebalancing,
        },
        seed=args.seed,
    )
    print(out / "impact.json")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(seed=args.seed, instances=args.instances, trials=args.trials)
    out = _outdir(args)
    _write_json(out / "verify.json", report)
    _write_manifest(
        out,
        "verify",
        {"instances": args.instances, "trials": args.trials},
        seed=args.seed,
    )
    print(out / "verify.json")
    for check in report["checks"]:
        status = "ok" if check["passed"] else "FAIL"
        print(f"  [{status}] {check['name']}", file=sys.stderr)
    return 0 if report["violations"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dockalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate Poisson demand profiles from trips and status CSVs")
    p.add_argument("--trips", required=True)
    p.add_argument("--status", required=True)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--intervals", type=int, default=48)
    p.add_argument("--interval-minutes", type=float, default=30.0)
    p.add_argument("--start-hour", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tables", help="materialize cost tables from demand profiles")
    p.add_argument("--profiles", required=True)
    p.add_argument("--stations", default=None, help="stations JSON; upper bounds set table capacities")
    p.add_argument("--capacity", type=int, default=40)
    p.add_argument("--objective", choices=["daily", "longrun"], default="daily")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tables)

    for name, objective in (("optimize", "daily"), ("longrun", "longrun")):
        p = sub.add_parser(name, help=f"optimize allocations against the {objective} objective")
        p.add_argument("--instance", default=None, help="self-contained instance JSON")
        p.add_argument("--stations", default=None)
        p.add_argument("--profiles", default=None)
        p.add_argument("--tables", default=None)
        p.add_argument("--objective", choices=["daily", "longrun"], default=objective)
        p.add_argument("--solver", choices=["greedy", "scaling", "hybrid"], default="greedy")
        p.add_argument("--granularity", type=int, default=1)
        p.add_argument("--bikes", type=int, default=None, help="bike budget B")
        p.add_argument("--docks", type=int, default=None, help="empty-dock budget D (total docks = B + D)")
        p.add_argument("--max-moves", type=int, default=None)
        p.add_argument("--tradeoff", default=None, help="k,M joint move/buy budget")
        p.add_argument("--threshold", type=float, default=DEFAULT_IMPROVEMENT_THRESHOLD)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("posterior", help="estimate the impact of implemented capacity changes")
    p.add_argument("--days", required=True)
    p.add_argument("--profiles", default=None)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--rebalancing", choices=["strict", "optimistic"], default="strict")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("verify", help="run the independent verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=25)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(json.dumps({"error": "infeasible", "report": exc.report}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
