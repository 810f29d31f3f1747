"""The two cold workloads: the planner's commands, each in a fresh process.

``daily_cold``: estimate -> optimize (daily objective, greedy, move cap z)
-> posterior.  ``longrun_cold``: longrun (long-run objective, same cap) ->
tables --objective longrun for one district.  No cost table is cached
between commands, so every command pays for the capacities it prices.
Set-up generates the city, then times the program's start-up: a fresh
process that imports dockalloc and loads the city's inputs.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

import checks
import gen
from harness import Size, cli_step, dir_bytes, median, rounds, run_python
from tracing import combine, layer_metrics, raw_totals


def setup_city(size: Size, seed: int, work: Path):
    """Generate the city twice; the second try must write the same bytes."""
    digests = []
    for _ in range(2):
        city = gen.make_city(
            work / "city",
            seed,
            n_stations=size.stations,
            days=size.days,
            n_closed=size.closed,
            n_added=size.added,
            n_removed=size.removed,
            district=size.district,
        )
        digests.append({name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in city.paths.items()})
    if digests[0] != digests[1]:
        raise RuntimeError(f"seed {seed} generated different files on a second try")
    return city


# The program's start-up: a fresh process imports dockalloc and reads the
# city's inputs through the program's own loaders, as every cold command does.
STARTUP = (
    "import sys, dockalloc as da, dockalloc.posterior as po; "
    "print(len(da.load_trips_csv(sys.argv[1])), len(da.load_status_csv(sys.argv[2])), "
    "len(da.load_profiles(sys.argv[3])[1]), len(po.load_days(sys.argv[4])))"
)


def time_startup(size: Size, city) -> tuple[list[float], list[str]]:
    """Time ``setup_reps`` program start-ups; returns their times and any
    problem with what they loaded."""
    paths = city.paths
    expect = [
        sum(city.trip_counts.values()),
        size.stations * size.days * gen.INTERVALS,
        size.stations,
        size.added + size.removed,
    ]
    times, problems = [], []
    for _ in range(size.setup_reps):
        start = time.perf_counter()
        proc = run_python(["-c", STARTUP, *(str(paths[n]) for n in ("trips.csv", "status.csv", "profiles.json", "days.json"))])
        times.append(time.perf_counter() - start)
        loaded = proc.stdout.split() if proc.returncode == 0 else proc.stderr.strip()[-300:]
        if loaded != [str(n) for n in expect]:
            problems.append(f"start-up loaded {loaded}, expected trips/status/profiles/days {expect}")
    return times, problems


def _budget_args(city) -> list[str]:
    bikes = sum(st.bikes for st in city.stations)
    docks = sum(st.capacity for st in city.stations) - bikes
    return ["--bikes", str(bikes), "--docks", str(docks)]


def _same_outputs(step_dir: Path, first_dir: Path, names) -> bool:
    try:
        return all((step_dir / n).read_bytes() == (first_dir / n).read_bytes() for n in names)
    except FileNotFoundError:
        return False


class Flow:
    """Shared round bookkeeping of the CLI workloads; subclasses name the
    steps, their outputs and their checks."""

    solve_step = ""

    def __init__(self, size: Size, seed: int, work: Path, city):
        self.size, self.seed, self.work, self.city = size, seed, work, city
        self.problems: dict[str, list[str]] = {}

    def commands(self, rdir: Path) -> list[tuple[str, list[str], Path]]:
        raise NotImplementedError

    def outputs(self, name: str, out: Path) -> list[str]:
        """Primary output files of a step, relative to its out dir."""
        raise NotImplementedError

    def check(self, outs: dict[str, Path]) -> None:
        raise NotImplementedError

    def one_round(self, index: int, traced: bool) -> dict:
        rdir = self.work / f"round{index}"
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)
        steps, outs = [], {}
        for name, argv, out in self.commands(rdir):
            steps.append(cli_step(name, [*argv, "--out", str(out)], traced, rdir / f"spans_{name}.json"))
            outs[name] = out
        wall = sum(s.seconds for s in steps)
        return {"index": index, "traced": traced, "wall": wall, "steps": steps, "outs": outs, "dir": rdir}

    def run(self, seconds: float, trace: bool) -> list[dict]:
        done = rounds(seconds, trace, self.one_round)
        first = done[0]
        for step in first["steps"]:
            if not step.ok:
                print(f"{step.name} failed: {step.error}", file=sys.stderr)
        self.check({s.name: first["outs"][s.name] for s in first["steps"] if s.ok})
        for r in done:
            for step in r["steps"]:
                out, ref = r["outs"][step.name], first["outs"][step.name]
                if step.ok and self.problems.get(step.name):
                    step.ok = False
                elif step.ok and not _same_outputs(out, ref, self.outputs(step.name, ref)):
                    self.problems.setdefault(step.name, []).append(f"round {r['index']} output differs from round 0")
                    step.ok = False
            if r["traced"]:
                spans = [r["dir"] / f"spans_{s.name}.json" for s in r["steps"]]
                raws = [raw_totals(checks.read_json(p)) for p in spans if p.exists()]
                total = combine(raws)
                total["cli.bytes_written"] = sum(dir_bytes(out) for out in r["outs"].values())
                r["layers"] = layer_metrics(total)
            if r["index"] > 0:
                shutil.rmtree(r["dir"], ignore_errors=True)
        return done


class DailyCold(Flow):
    solve_step = "optimize"

    def commands(self, rdir):
        paths = self.city.paths
        profiles = rdir / "est" / "profiles.json"
        return [
            (
                "estimate",
                ["estimate", "--trips", str(paths["trips.csv"]), "--status", str(paths["status.csv"]),
                 "--days", str(self.size.days)],
                rdir / "est",
            ),
            (
                "optimize",
                ["optimize", "--stations", str(paths["stations.json"]), "--profiles", str(profiles),
                 *_budget_args(self.city), "--max-moves", str(self.size.max_moves), "--solver", "greedy"],
                rdir / "opt",
            ),
            (
                "posterior",
                ["posterior", "--days", str(paths["days.json"]), "--profiles", str(profiles),
                 "--resamples", str(self.size.resamples), "--seed", str(self.seed)],
                rdir / "post",
            ),
        ]

    def outputs(self, name, out):
        return {
            "estimate": ["profiles.json"],
            "optimize": ["allocation.json", "moves.csv", "curve.csv"],
            "posterior": ["impact.json"],
        }[name]

    def check(self, outs):
        stations = checks.read_json(self.city.paths["stations.json"])
        profiles = outs["estimate"] / "profiles.json" if "estimate" in outs else None
        if profiles:
            self.problems["estimate"] = checks.check_estimate(profiles, self.city)
        if "optimize" in outs and profiles:
            plan = checks.read_plan(outs["optimize"])
            self.problems["optimize"] = (
                checks.check_plan(plan, stations, sum(s["current_docks"] for s in stations), self.size.max_moves)
                + checks.check_gains(plan)
                + checks.check_simulated_costs(plan, profiles, self.size.sim_stations, self.size.sim_trials, self.seed)
            )
        if "posterior" in outs and profiles:
            self.problems["posterior"] = checks.check_posterior(
                outs["posterior"] / "impact.json",
                self.city,
                self.city.paths["days.json"],
                profiles,
                self.seed,
                self.size.resamples,
            )


class LongrunCold(Flow):
    solve_step = "longrun"

    def commands(self, rdir):
        paths = self.city.paths
        return [
            (
                "longrun",
                ["longrun", "--stations", str(paths["stations.json"]), "--profiles", str(paths["profiles.json"]),
                 *_budget_args(self.city), "--max-moves", str(self.size.max_moves), "--solver", "greedy"],
                rdir / "lr",
            ),
            (
                "tables",
                ["tables", "--profiles", str(paths["district.json"]), "--stations", str(paths["stations.json"]),
                 "--objective", "longrun"],
                rdir / "tables",
            ),
        ]

    def outputs(self, name, out):
        if name == "tables":
            return sorted(p.name for p in out.glob("table_*.json"))
        return ["allocation.json", "moves.csv", "curve.csv"]

    def check(self, outs):
        stations = checks.read_json(self.city.paths["stations.json"])
        if "longrun" not in outs:
            return
        plan = checks.read_plan(outs["longrun"])
        self.problems["longrun"] = checks.check_plan(
            plan, stations, sum(s["current_docks"] for s in stations), self.size.max_moves
        ) + checks.check_gains(plan)
        if "tables" in outs:
            self.problems["tables"] = checks.check_longrun_tables(outs["tables"], plan)


FLOWS = {"daily_cold": DailyCold, "longrun_cold": LongrunCold}


def run_flow(workload: str, size: Size, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    city = setup_city(size, seed, work)
    setup_times, startup_problems = time_startup(size, city)
    flow = FLOWS[workload](size, seed, work, city)
    flow.problems["start-up"] = startup_problems
    done = flow.run(seconds, trace)
    for r in done:
        times = ", ".join(f"{s.name} {s.seconds:.3f} s" for s in r["steps"])
        print(f"round {r['index']}{' traced' if r['traced'] else ''}: {times}; wall {r['wall']:.3f} s")
    plain = [r for r in done if not r["traced"]]
    return {
        "problems": flow.problems,
        "steps": [s for r in done for s in r["steps"]],
        "setup": setup_times,
        "wall": median(r["wall"] for r in plain),
        "solve": median(s.seconds for r in plain for s in r["steps"] if s.name == flow.solve_step),
        "traced_wall": median(r["wall"] for r in done if r["traced"]) if trace else None,
        "layers": [r["layers"] for r in done if r["traced"]],
    }

