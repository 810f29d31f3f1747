"""The warm what-if workload: planner sweeps through the Python API.

The city gets surplus docks.  Set-up generates it, then (timed) loads the
profiles and runs every sweep once, which builds each station capacity the
timed sweeps touch; the timed rounds then find every cost in memory, so
they measure the solver.  One round is the move/buy trade-off sweep,
``optimize`` at each surplus level of the deployment sweep, and
``optimize_scaled`` with the 8/4/1 plan at the largest level, all under the
same move cap, and reading every answer out.

``run_whatif`` starts this file as a worker process, so the worker's peak
memory is the program's alone:

    python3 perfbench/whatif.py CONFIG.json RESULT.json
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import gen
from harness import SIZES, Size, Step, median, rounds, run_python
from tracing import Tracer, layer_metrics, raw_totals


def _constraints(da, stations, surplus, z, tradeoff=None):
    return da.Constraints(
        bike_budget=sum(s["current_bikes"] for s in stations),
        dock_budget=sum(s["current_docks"] for s in stations) + surplus,
        baseline_docks=tuple(s["current_docks"] - s["current_bikes"] for s in stations),
        baseline_bikes=tuple(s["current_bikes"] for s in stations),
        lower=tuple(s["l"] for s in stations),
        upper=tuple(s["u"] for s in stations),
        max_moves=z,
        tradeoff=tradeoff,
    )


def _operations(da, size: Size, stations, sources):
    z = size.whatif_moves
    ops = [
        (
            "tradeoff",
            size.base_surplus,
            lambda: da.optimize_tradeoff(_constraints(da, stations, size.base_surplus, None, size.tradeoff), sources),
        )
    ]
    for level in size.surplus_levels:
        ops.append((f"deploy_{level}", level, lambda s=level: da.optimize(_constraints(da, stations, s, z), sources)))
    top = size.surplus_levels[-1]
    ops.append(
        (
            "scaled",
            top,
            lambda: da.optimize_scaled(_constraints(da, stations, top, z), sources, da.PhasePlan.hybrid()),
        )
    )
    return ops


def _plan_doc(answer, surplus: int, stations, sources) -> dict:
    result = getattr(answer, "result", answer)
    caps, bikes = result.allocation.capacities, result.allocation.bikes
    doc = {
        "objective": float(result.objective),
        "direct_objective": sum(float(src.cost(c - b, b)) for src, c, b in zip(sources, caps, bikes)),
        "moves": len(result.log),
        "deployed_docks": result.deployed_docks,
        "depot_bikes": result.depot_bikes,
        "surplus": surplus,
        "stations": [
            {
                "id": s["id"],
                "docks_before": s["current_docks"],
                "bikes_before": s["current_bikes"],
                "docks_after": caps[i],
                "bikes_after": bikes[i],
                "dock_delta": caps[i] - s["current_docks"],
                "cost_after": float(result.station_costs[i]),
            }
            for i, s in enumerate(stations)
        ],
    }
    if answer is not result:
        doc["chosen_moves"] = answer.chosen_moves
        doc["chosen_new_docks"] = answer.chosen_new_docks
    return doc


def worker(config_path: Path, result_path: Path) -> int:
    config = json.loads(config_path.read_text())
    size = SIZES[config["size"]]
    seed, work = config["seed"], Path(config["work"])
    import dockalloc as da

    tracer = Tracer()

    def one_round(traced):
        # ops, stations and sources are the last set-up's
        if traced:
            tracer.reset()
            tracer.install()
        done = []
        start = time.perf_counter()
        for name, surplus, call in ops:
            t0 = time.perf_counter()
            try:
                answer, error = call(), ""
            except Exception as exc:  # the op fails; the run goes on
                answer, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            done.append(
                {
                    "name": name,
                    "seconds": seconds,
                    "ok": answer is not None,
                    "error": error,
                    "plan": None if answer is None else _plan_doc(answer, surplus, stations, sources),
                }
            )
        # wall_s also covers reading every answer out (each station priced again)
        wall = time.perf_counter() - start
        layers = None
        if traced:
            layers = layer_metrics(raw_totals(tracer.dump()))
            tracer.uninstall()
        return {"traced": traced, "wall": wall, "layers": layers, "ops": done}

    city = gen.make_city(work / "city", seed, n_stations=size.stations, observations=False)
    stations = checks.read_json(city.paths["stations.json"])
    setup = []
    for _ in range(size.whatif_setup_reps):
        start = time.perf_counter()
        _, profiles = da.load_profiles(city.paths["profiles.json"])
        by_id = {p.station_id: p for p in profiles}
        sources = [da.LazyDailyCost(by_id[s["id"]]) for s in stations]
        ops = _operations(da, size, stations, sources)
        cold = one_round(False)
        setup.append(time.perf_counter() - start)
    done = rounds(config["seconds"], config["trace"], lambda i, traced: one_round(traced))
    result_path.write_text(json.dumps({"setup": setup, "cold": cold, "rounds": done, "stations": stations}))
    return 0


def run_whatif(size_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the worker, then check its answers."""
    size = SIZES[size_name]
    work.mkdir(parents=True, exist_ok=True)
    config, result_path = work / "config.json", work / "result.json"
    config.write_text(json.dumps({"size": size_name, "seed": seed, "seconds": seconds, "trace": trace, "work": str(work)}))
    proc = run_python([str(Path(__file__).resolve()), str(config), str(result_path)])
    if proc.returncode != 0:
        raise RuntimeError(f"what-if worker failed:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    for r in result["rounds"]:
        times = ", ".join(f"{op['name']} {op['seconds']:.3f} s" for op in r["ops"])
        print(f"round{' traced' if r['traced'] else ''}: {times}; wall {r['wall']:.3f} s")

    problems = checks.check_whatif(result, result["stations"], size)
    problems.setdefault("tradeoff", []).extend(checks.check_tradeoff_oracle(seed))
    steps = []
    for r in result["rounds"]:
        for op in r["ops"]:
            ok = op["ok"] and not problems.get(op["name"])
            if not op["ok"]:
                print(f"{op['name']} failed: {op['error']}", file=sys.stderr)
            steps.append(Step(op["name"], op["seconds"], ok, op["error"]))
    plain = [r for r in result["rounds"] if not r["traced"]]
    return {
        "problems": {k: v for k, v in problems.items() if v},
        "steps": steps,
        "setup": result["setup"],
        "wall": median(r["wall"] for r in plain),
        "solve": median(op["seconds"] for r in plain for op in r["ops"] if op["name"] == "tradeoff"),
        "traced_wall": median(r["wall"] for r in result["rounds"] if r["traced"]) if trace else None,
        "layers": [r["layers"] for r in result["rounds"] if r["traced"]],
    }


if __name__ == "__main__":
    raise SystemExit(worker(Path(sys.argv[1]), Path(sys.argv[2])))
