import csv
import dataclasses
import json
from fractions import Fraction

import pytest

from dockalloc.allocator import optimize_tradeoff
from dockalloc.cli import main
from dockalloc.demand import Horizon, PoissonProfile, save_profiles
from dockalloc.instance import instance_to_json, save_instance
from dockalloc.oracle import exchange_trap_instance, synthetic_scenario


@pytest.fixture
def trap_instance(tmp_path):
    spec, _ = exchange_trap_instance()
    path = tmp_path / "instance.json"
    save_instance(path, spec)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


def as_number(v):
    return Fraction(v) if isinstance(v, str) else v


def assert_granularity_run_moves_multiples(tmp_path, granularity):
    spec = synthetic_scenario(n_stations=4, seed=3, max_moves=None)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(spec)))
    out = tmp_path / "g"
    assert run("optimize", "--instance", path, "--solver", "hybrid", "--granularity", granularity, "--out", out) == 0
    report = read_json(out / "allocation.json")
    changes = [
        station["docks_after"] - (spec_station.baseline_docks + spec_station.baseline_bikes)
        for station, spec_station in zip(report["stations"], spec.stations)
    ]
    assert any(changes) and all(c % granularity == 0 for c in changes), changes


def surplus_city(tmp_path):
    """The 8-station city with 6 surplus docks, as an instance file."""
    spec = synthetic_scenario(n_stations=8, seed=5, max_moves=None)
    path = tmp_path / "surplus.json"
    path.write_text(json.dumps(instance_to_json(dataclasses.replace(spec, dock_budget=spec.dock_budget + 6))))
    return path


class TestOptimizeCommand:
    def test_reference_instance_objective_in_report(self, tmp_path, trap_instance):
        out = tmp_path / "run"
        assert run("optimize", "--instance", trap_instance, "--out", out) == 0
        report = read_json(out / "allocation.json")
        assert as_number(report["objective"]) == 1
        assert report["moves"] == 1
        with open(out / "moves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kind"] for r in rows] == ["E"]
        assert (out / "manifest.json").exists()
        assert (out / "curve.csv").exists()

    def test_zero_moves_returns_bike_optimal(self, tmp_path, trap_instance):
        out = tmp_path / "z0"
        assert run("optimize", "--instance", trap_instance, "--max-moves", 0, "--out", out) == 0
        report = read_json(out / "allocation.json")
        assert as_number(report["objective"]) == Fraction(3, 2)
        assert report["moves"] == 0

    def test_reruns_are_byte_identical(self, tmp_path, trap_instance):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("optimize", "--instance", trap_instance, "--out", out1)
        run("optimize", "--instance", trap_instance, "--out", out2)
        for name in ("allocation.json", "moves.csv", "curve.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_longrun_reruns_are_byte_identical(self, tmp_path):
        path = tmp_path / "city.json"
        save_instance(path, synthetic_scenario(n_stations=4, seed=3, max_moves=20))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("longrun", "--instance", path, "--out", out1) == 0
        assert run("longrun", "--instance", path, "--out", out2) == 0
        for name in ("allocation.json", "moves.csv", "curve.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_longrun_stats_name_the_nonergodic_station(self, tmp_path):
        # an idle station's day chain is the identity, which has no unique law
        spec = synthetic_scenario(n_stations=4, seed=3, max_moves=20)
        idle = spec.stations[1]
        idle = dataclasses.replace(idle, profile=PoissonProfile(idle.id, (0.0,) * 48, (0.0,) * 48))
        path = tmp_path / "city.json"
        save_instance(path, dataclasses.replace(spec, stations=(spec.stations[0], idle, *spec.stations[2:])))
        for command in ("longrun", "optimize"):
            assert run(command, "--instance", path, "--out", tmp_path / command) == 0
        stats = read_json(tmp_path / "longrun" / "stats.json")
        assert {station for station, _ in stats["nonergodic"]} == {idle.id}
        flagged = [capacity for _, capacity in stats["nonergodic"]]
        # chains come in aligned blocks of 4, and a one-state chain is ergodic
        blocks = {capacity // 4 for capacity in flagged}
        assert flagged == [c for block in sorted(blocks) for c in range(4 * block, 4 * block + 4) if c > 0]
        assert stats["chains_built"] > len(flagged)
        assert set(read_json(tmp_path / "optimize" / "stats.json")) == {"phases", "objectives"}
        assert "nonergodic" not in read_json(tmp_path / "longrun" / "allocation.json")

    def test_stats_compare_as_is_bike_optimal_and_plan(self, tmp_path):
        # the first gap is what rebalancing bikes buys, the second what moving docks buys
        path = tmp_path / "city.json"
        save_instance(path, synthetic_scenario(n_stations=8, seed=5, max_moves=10))
        runs = {
            "greedy": ("optimize",),
            "scaling": ("optimize", "--solver", "scaling"),
            "tradeoff": ("optimize", "--tradeoff", "2,10"),
            "longrun": ("longrun",),
        }
        objectives, initial = {}, {}
        for name, argv in runs.items():
            out = tmp_path / name
            assert run(*argv, "--instance", path, "--out", out) == 0
            stats, allocation = read_json(out / "stats.json"), read_json(out / "allocation.json")
            extra = {"chains_built", "nonergodic"} if name == "longrun" else set()
            assert set(stats) == {"phases", "objectives"} | extra
            assert stats["objectives"]["plan"] == allocation["objective"]
            objectives[name], initial[name] = stats["objectives"], allocation["initial_objective"]
        greedy = objectives["greedy"]
        assert greedy["bike_optimal"] == initial["greedy"]
        assert greedy["as_is"] > greedy["bike_optimal"] > greedy["plan"]
        assert objectives["scaling"]["bike_optimal"] == initial["scaling"] == greedy["bike_optimal"]
        assert objectives["scaling"]["as_is"] == greedy["as_is"]
        assert objectives["tradeoff"]["bike_optimal"] == greedy["bike_optimal"]
        assert objectives["tradeoff"]["plan"] <= greedy["plan"]
        # the long-run cost ignores how a station's bikes split
        assert objectives["longrun"]["as_is"] == objectives["longrun"]["bike_optimal"]

    def test_longrun_tables_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        spec = synthetic_scenario(n_stations=3, seed=3)
        profiles = tmp_path / "profiles.json"
        save_profiles(profiles, [s.profile for s in spec.stations], Horizon(intervals=48))
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DOCKALLOC_THREADS", threads)
            outs.append(tmp_path / f"tables-{threads}")
            argv = ("tables", "--profiles", profiles, "--capacity", 20, "--objective", "longrun", "--out", outs[-1])
            assert run(*argv) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir()) and len(names) == 4
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_tradeoff_on_an_instance_with_its_own_move_cap(self, tmp_path):
        spec = synthetic_scenario(n_stations=12, seed=5, max_moves=20)
        path = tmp_path / "city.json"
        save_instance(path, spec)
        out = tmp_path / "trade"
        assert run("optimize", "--instance", path, "--tradeoff", "3,12", "--out", out) == 0
        constraints = dataclasses.replace(spec.constraints(), tradeoff=(3, 12))
        expected = optimize_tradeoff(constraints, spec.tables())
        assert read_json(out / "allocation.json")["objective"] == float(expected.result.objective)

    def test_surplus_tradeoff_and_capped_runs_are_pinned(self, tmp_path):
        # the plans of the sweep that reran the surplus additions per candidate
        path = surplus_city(tmp_path)
        pinned = {
            ("--tradeoff", "1,8"): {
                "objective": 496.45691595420465,
                "moves": 11,
                "deployed_docks": 11,
                "tradeoff": {"chosen_moves": 3, "chosen_new_docks": 5},
            },
            ("--max-moves", "6"): {
                "objective": 500.7914332535589,
                "moves": 9,
                "deployed_docks": 6,
                "tradeoff": None,
            },
        }
        for flags, expected in pinned.items():
            outs = [tmp_path / f"{flags[0].lstrip('-')}-{rerun}" for rerun in (1, 2)]
            for out in outs:
                assert run("optimize", "--instance", path, *flags, "--out", out) == 0
            report = read_json(outs[0] / "allocation.json")
            # the float to 1e-12: another numpy may sum the day costs in another order
            assert report["objective"] == pytest.approx(expected.pop("objective"), rel=1e-12)
            assert {key: report[key] for key in expected} == expected
            for name in ("allocation.json", "moves.csv", "curve.csv", "stats.json"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_capped_hybrid_writes_greedy_plan_and_stats(self, tmp_path):
        # a capped plan that ends at stride 1 is the unit-stride descent
        path = surplus_city(tmp_path)
        outs = {solver: tmp_path / solver for solver in ("greedy", "hybrid")}
        for solver, out in outs.items():
            assert run("optimize", "--instance", path, "--solver", solver, "--max-moves", 6, "--out", out) == 0
        for name in ("moves.csv", "stats.json"):
            assert (outs["hybrid"] / name).read_bytes() == (outs["greedy"] / name).read_bytes(), name
        greedy, hybrid = (read_json(out / "allocation.json") for out in outs.values())
        assert {key for key in greedy if greedy[key] != hybrid[key]} <= {"solver"}

    def test_solver_variants_agree_on_objective(self, tmp_path, trap_instance):
        values = {}
        for solver in ("greedy", "scaling", "hybrid"):
            out = tmp_path / solver
            assert run("optimize", "--instance", trap_instance, "--solver", solver, "--threshold", 0.0, "--out", out) == 0
            values[solver] = as_number(read_json(out / "allocation.json")["objective"])
            phases = read_json(out / "stats.json")["phases"]
            assert phases and all(set(ph) == {"step", "iterations", "bike_moves", "evaluations_by_capacity"} for ph in phases)
        assert values["greedy"] == values["scaling"] == values["hybrid"] == 1

    def test_granularity_flag(self, tmp_path):
        assert_granularity_run_moves_multiples(tmp_path, 4)

    def test_granularity_drops_strides_it_does_not_divide(self, tmp_path):
        # hybrid's 8 and 4 are not multiples of 3, so the plan is the one stride 3
        assert_granularity_run_moves_multiples(tmp_path, 3)

    @pytest.mark.parametrize("granularity", [0, -3])
    def test_rejects_granularity_below_one(self, tmp_path, trap_instance, granularity, capsys):
        out = tmp_path / "g"
        assert run("optimize", "--instance", trap_instance, "--granularity", granularity, "--out", out) == 1
        assert "granularity" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_infeasible_exit_code(self, tmp_path):
        stations = tmp_path / "stations.json"
        stations.write_text(
            json.dumps(
                [
                    {"id": "a", "current_docks": 4, "current_bikes": 0, "l": 3, "u": 6},
                    {"id": "b", "current_docks": 4, "current_bikes": 0, "l": 3, "u": 6},
                ]
            )
        )
        table_dir = tmp_path / "tables"
        run_tables_for_stations(tmp_path, stations, table_dir)
        assert run(
            "optimize", "--stations", stations, "--tables", table_dir,
            "--bikes", 0, "--docks", 4, "--out", tmp_path / "bad",
        ) == 2

    def test_validation_exit_code(self, tmp_path):
        assert run("optimize", "--out", tmp_path / "none") == 1

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_rejects_bad_threshold(self, tmp_path, trap_instance, threshold):
        assert run("optimize", "--instance", trap_instance, "--threshold", threshold, "--out", tmp_path / "t") == 1

    @pytest.mark.parametrize(
        "flag",
        [("--max-moves", 1), ("--solver", "scaling"), ("--solver", "hybrid"), ("--granularity", 2)],
        ids=["max-moves", "scaling", "hybrid", "granularity"],
    )
    def test_tradeoff_rejects_flags_it_would_ignore(self, tmp_path, trap_instance, flag, capsys):
        out = tmp_path / "trade"
        assert run("optimize", "--instance", trap_instance, "--tradeoff", "1,3", *flag, "--out", out) == 1
        assert flag[0] in capsys.readouterr().err
        assert not (out / "allocation.json").exists()

    def test_instance_with_nan_probability_rejected(self, tmp_path):
        spec, _ = exchange_trap_instance()
        doc = instance_to_json(spec)
        doc["stations"][0]["profile"]["atoms"][0]["p"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "nan"
        assert run("optimize", "--instance", path, "--out", out) == 1
        assert not (out / "allocation.json").exists()

    def test_instance_with_nan_interval_minutes_rejected(self, tmp_path):
        doc = instance_to_json(synthetic_scenario(n_stations=2, seed=3, max_moves=None))
        doc["stations"][0]["profile"].update(
            rental_rates=[0.0] * 48, return_rates=[0.0] * 48, minutes_per_interval=float("nan")
        )
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "nan"
        assert run("optimize", "--instance", path, "--out", out) == 1
        assert not (out / "allocation.json").exists()

    def test_duplicate_station_ids_rejected(self, tmp_path, capsys):
        stations = tmp_path / "stations.json"
        stations.write_text(
            json.dumps(
                [
                    {"id": "a", "current_docks": 4, "current_bikes": 0, "l": 0, "u": 6},
                    {"id": "dup7", "current_docks": 4, "current_bikes": 0, "l": 0, "u": 6},
                    {"id": "dup7", "current_docks": 4, "current_bikes": 0, "l": 0, "u": 6},
                ]
            )
        )
        profiles = tmp_path / "profiles.json"
        profiles.write_text(
            json.dumps(
                {
                    "horizon": {"intervals": 1, "minutes_per_interval": 30.0, "start_hour": 0.0},
                    "stations": [
                        {"id": sid, "rental_rates": [0.1], "return_rates": [0.1], "flags": []}
                        for sid in ("a", "dup7")
                    ],
                }
            )
        )
        assert run(
            "optimize", "--stations", stations, "--profiles", profiles,
            "--bikes", 0, "--docks", 12, "--out", tmp_path / "dup",
        ) == 1
        assert "dup7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "longrun"])
def test_table_the_descent_cannot_solve_exits_1(tmp_path, capsys, command):
    # g is not convex in capacity: with 4 docks the descent stopped at
    # capacities (2, 2), objective 17.8, while (0, 4) costs 10.0
    g = [10, 9, 8.9, 8.8, 0, 0]
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    for sid in ("a", "b"):
        doc = {"station_id": sid, "max_capacity": 5, "values": [[g[s]] * (s + 1) for s in range(6)]}
        (table_dir / f"table_{sid}.json").write_text(json.dumps(doc))
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps([{"id": sid, "current_docks": 2, "current_bikes": 0, "l": 0, "u": 5} for sid in "ab"]))
    out = tmp_path / "out"
    argv = (command, "--stations", stations, "--tables", table_dir, "--bikes", 0, "--docks", 4, "--out", out)
    assert run(*argv) == 1
    message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
    assert "'a'" in message and "inequality (1) fails at d=0, b=2" in message and "12 violations" in message
    assert not out.exists()


@pytest.mark.parametrize("objective", ["daily", "longrun"])
def test_tables_output_solves_as_the_profiles_do(tmp_path, objective):
    spec = synthetic_scenario(n_stations=4, seed=3)
    profiles = tmp_path / "profiles.json"
    save_profiles(profiles, [s.profile for s in spec.stations], Horizon(intervals=48))
    stations = tmp_path / "stations.json"
    stations.write_text(
        json.dumps(
            [
                {"id": s.id, "current_docks": s.baseline_docks + s.baseline_bikes, "current_bikes": s.baseline_bikes,
                 "l": s.lower, "u": s.upper}
                for s in spec.stations
            ]
        )
    )
    tables = tmp_path / "tables"
    assert run("tables", "--profiles", profiles, "--stations", stations, "--objective", objective, "--out", tables) == 0
    budget = ("--bikes", spec.bike_budget, "--docks", spec.dock_budget - spec.bike_budget, "--max-moves", 20)
    plans = {}
    for source, path in (("--tables", tables), ("--profiles", profiles)):
        out = tmp_path / source.strip("-")
        assert run("optimize", "--stations", stations, source, path, "--objective", objective, *budget, "--out", out) == 0
        plans[source] = [(s["docks_after"], s["bikes_after"]) for s in read_json(out / "allocation.json")["stations"]]
    assert plans["--tables"] == plans["--profiles"]


def run_tables_for_stations(tmp_path, stations_path, table_dir):
    profiles = {
        "horizon": {"intervals": 2, "minutes_per_interval": 30.0, "start_hour": 0.0},
        "stations": [
            {"id": "a", "rental_rates": [0.1, 0.0], "return_rates": [0.0, 0.1], "flags": []},
            {"id": "b", "rental_rates": [0.0, 0.2], "return_rates": [0.2, 0.0], "flags": []},
        ],
    }
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text(json.dumps(profiles))
    assert run("tables", "--profiles", profiles_path, "--stations", stations_path, "--out", table_dir) == 0
    return profiles_path


class TestWorkflow:
    def test_estimate_tables_optimize_pipeline(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text(
            "station_id,timestamp,kind\n"
            "a,600,rental\na,900,rental\na,2000,return\nb,600,return\n"
        )
        status = tmp_path / "status.csv"
        status.write_text(
            "station_id,interval,minutes_nonempty,minutes_nonfull\n"
            "a,0,30,30\na,1,30,30\nb,0,30,20\nb,1,30,30\n"
        )
        est = tmp_path / "est"
        assert run(
            "estimate", "--trips", trips, "--status", status, "--days", 1,
            "--intervals", 2, "--interval-minutes", 30, "--out", est,
        ) == 0
        stations = tmp_path / "stations.json"
        stations.write_text(
            json.dumps(
                [
                    {"id": "a", "current_docks": 6, "current_bikes": 3, "l": 0, "u": 10, "lat": 40.0, "lon": -74.0},
                    {"id": "b", "current_docks": 6, "current_bikes": 3, "l": 0, "u": 10, "lat": 41.0, "lon": -75.0},
                ]
            )
        )
        tables = tmp_path / "tables"
        assert run("tables", "--profiles", est / "profiles.json", "--stations", stations, "--out", tables) == 0
        assert (tables / "table_a.json").exists()
        out = tmp_path / "opt"
        assert run(
            "optimize", "--stations", stations, "--tables", tables,
            "--bikes", 6, "--docks", 6, "--max-moves", 3, "--out", out,
        ) == 0
        report = read_json(out / "allocation.json")
        assert len(report["stations"]) == 2
        geo = read_json(out / "map.geojson")
        assert geo["type"] == "FeatureCollection"
        assert {f["properties"]["id"] for f in geo["features"]} == {"a", "b"}
        assert all("dock_delta" in f["properties"] for f in geo["features"])

    def test_estimate_rejects_infinite_interval_minutes(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text("station_id,timestamp,kind\na,600,rental\n")
        status = tmp_path / "status.csv"
        status.write_text("station_id,interval,minutes_nonempty,minutes_nonfull\na,0,30,30\n")
        est = tmp_path / "est"
        assert run(
            "estimate", "--trips", trips, "--status", status, "--days", 1,
            "--intervals", 2, "--interval-minutes", "inf", "--out", est,
        ) == 1
        assert not (est / "profiles.json").exists()

    def test_longrun_objective_flag(self, tmp_path, trap_instance):
        out_daily = tmp_path / "daily"
        out_longrun = tmp_path / "longrun"
        assert run("optimize", "--instance", trap_instance, "--out", out_daily) == 0
        assert run("longrun", "--instance", trap_instance, "--out", out_longrun) == 0
        daily = read_json(out_daily / "allocation.json")
        longrun = read_json(out_longrun / "allocation.json")
        assert daily["objective_kind"] == "daily"
        assert longrun["objective_kind"] == "longrun"

    def test_posterior_command(self, tmp_path):
        days = tmp_path / "days.json"
        days.write_text(
            json.dumps(
                {
                    "days": [
                        {
                            "station_id": "grown",
                            "capacity_before": 2,
                            "capacity_after": 4,
                            "bikes_at_open": 1,
                            "observed_events": [1, 1, 1, -1],
                        }
                    ]
                }
            )
        )
        out = tmp_path / "impact"
        assert run("posterior", "--days", days, "--resamples", 20, "--out", out) == 0
        report = read_json(out / "impact.json")
        assert len(report["columns"]) == 4
        assert report["coverage"]["days"] == 1

    def test_verify_command(self, tmp_path):
        out = tmp_path / "verify"
        assert run("verify", "--seed", 3, "--instances", 6, "--trials", 4000, "--out", out) == 0
        report = read_json(out / "verify.json")
        assert report["violations"] == 0
        assert report["rng"] == "philox"
        assert len(report["checks"]) >= 6

    def test_thread_cap_env_var(self, monkeypatch):
        from dockalloc.cli import _thread_count

        monkeypatch.delenv("DOCKALLOC_THREADS", raising=False)
        assert _thread_count() == 1
        monkeypatch.setenv("DOCKALLOC_THREADS", "3")
        assert _thread_count() == 3
        monkeypatch.setenv("DOCKALLOC_THREADS", "zebra")
        with pytest.raises(Exception, match="DOCKALLOC_THREADS"):
            _thread_count()

    def test_tradeoff_flag(self, tmp_path, trap_instance):
        out = tmp_path / "trade"
        assert run("optimize", "--instance", trap_instance, "--tradeoff", "1,3", "--threshold", 0.0, "--out", out) == 0
        report = read_json(out / "allocation.json")
        assert report["tradeoff"] is not None
        assert "chosen_new_docks" in report["tradeoff"]
        stats = read_json(out / "stats.json")
        assert [ph["step"] for ph in stats["phases"]] == [1]

    def test_tables_identical_across_thread_counts(self, tmp_path, monkeypatch):
        stations = tmp_path / "stations.json"
        stations.write_text(
            json.dumps(
                [
                    {"id": "a", "current_docks": 4, "current_bikes": 0, "l": 3, "u": 6},
                    {"id": "b", "current_docks": 4, "current_bikes": 0, "l": 3, "u": 6},
                ]
            )
        )
        profiles = run_tables_for_stations(tmp_path, stations, tmp_path / "tables")
        outputs = {}
        for objective in ("daily", "longrun"):
            for threads in ("1", "2"):
                monkeypatch.setenv("DOCKALLOC_THREADS", threads)
                out = tmp_path / f"{objective}_{threads}"
                assert run(
                    "tables", "--profiles", profiles, "--stations", stations,
                    "--objective", objective, "--out", out,
                ) == 0
                outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            assert outputs["1"] == outputs["2"]


GOOD_STATIONS = [
    {"id": "a", "current_docks": 4, "current_bikes": 1, "l": 3, "u": 6},
    {"id": "b", "current_docks": 4, "current_bikes": 1, "l": 3, "u": 6},
]


def optimize_on_bad_table(tmp_path, value):
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps(GOOD_STATIONS))
    table_dir = tmp_path / "tables"
    run_tables_for_stations(tmp_path, stations, table_dir)
    table = read_json(table_dir / "table_a.json")
    table["values"][3][1] = value
    (table_dir / "table_a.json").write_text(json.dumps(table))
    return "optimize", "--stations", stations, "--tables", table_dir, "--bikes", 2, "--docks", 6


def one_interval_profiles(tmp_path, ids):
    path = tmp_path / "profiles.json"
    path.write_text(
        json.dumps(
            {
                "horizon": {"intervals": 1, "minutes_per_interval": 30.0, "start_hour": 0.0},
                "stations": [{"id": i, "rental_rates": [0.1], "return_rates": [0.1], "flags": []} for i in ids],
            }
        )
    )
    return path


def tables_on_bad_stations(tmp_path, value):
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps([{**GOOD_STATIONS[0], "current_docks": value}, GOOD_STATIONS[1]]))
    return "tables", "--profiles", one_interval_profiles(tmp_path, ("a", "b")), "--stations", stations


def optimize_on_bad_instance(tmp_path, edit):
    doc = instance_to_json(exchange_trap_instance()[0])
    edit(doc["stations"][0])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return "optimize", "--instance", path


def posterior_on_bad_days(tmp_path, period):
    days = tmp_path / "days.csv"
    days.write_text(
        f"station_id,capacity_before,capacity_after,bikes_at_open,observed_events,full_periods\ns,4,3,1,++,{period}\n"
    )
    return "posterior", "--days", days, "--profiles", one_interval_profiles(tmp_path, ("s",)), "--resamples", 5


def optimize_on_poisson_start_hour(tmp_path, start_hour):
    doc = instance_to_json(synthetic_scenario(n_stations=2, seed=1, max_moves=1))
    doc["stations"][0]["profile"]["start_hour"] = start_hour
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))  # NaN goes in as a JSON extension
    return "optimize", "--instance", path


def estimate_on_nul_byte(tmp_path, trips_rows, status_rows):
    trips = tmp_path / "trips.csv"
    trips.write_bytes(f"station_id,timestamp,kind\n{trips_rows}".encode())
    status = tmp_path / "status.csv"
    status.write_bytes(f"station_id,interval,minutes_nonempty,minutes_nonfull\n{status_rows}".encode())
    return "estimate", "--trips", trips, "--status", status, "--days", 1


def posterior_on_nul_byte(tmp_path):
    days = tmp_path / "days.csv"
    days.write_bytes(b"station_id,capacity_before,capacity_after,bikes_at_open\ns\0,2,3,1\n")
    return "posterior", "--days", days


def estimate_on_huge_stamp(tmp_path):
    trips = small_csv(tmp_path, "trips.csv", "station_id,timestamp,kind\na," + "9" * 400 + ",rental\n")
    status = small_csv(tmp_path, "status.csv", "station_id,interval,minutes_nonempty,minutes_nonfull\na,0,30,30\n")
    return "estimate", "--trips", trips, "--status", status, "--days", 1


def tables_with_capacity(tmp_path, capacity, objective):
    profiles = one_interval_profiles(tmp_path, ("a",))
    return "tables", "--profiles", profiles, "--capacity", capacity, "--objective", objective


def tables_on_negative_upper(tmp_path):
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps([{**GOOD_STATIONS[0], "u": -2}, GOOD_STATIONS[1]]))
    return "tables", "--profiles", one_interval_profiles(tmp_path, ("a", "b")), "--stations", stations


def tables_on_profiles_horizon(tmp_path, intervals, rates, flag_interval=0):
    path = tmp_path / "profiles.json"
    path.write_text(
        json.dumps(
            {
                "horizon": {"intervals": intervals, "minutes_per_interval": 30.0, "start_hour": 0.0},
                "stations": [
                    {
                        "id": "a",
                        "rental_rates": [0.1] * rates,
                        "return_rates": [0.1] * rates,
                        "flags": [{"interval": flag_interval, "kind": "rental", "flag": "no_exposure"}],
                    }
                ],
            }
        )
    )
    return "tables", "--profiles", path


MALFORMED_INPUTS = {
    "trips-integer-stamp-beyond-float": estimate_on_huge_stamp,
    "table-nan-entry": lambda tmp: optimize_on_bad_table(tmp, float("nan")),
    "table-text-entry": lambda tmp: optimize_on_bad_table(tmp, "x"),
    "table-infinite-entry": lambda tmp: optimize_on_bad_table(tmp, float("inf")),
    "stations-fractional-docks": lambda tmp: tables_on_bad_stations(tmp, 3.7),
    "stations-infinite-docks": lambda tmp: tables_on_bad_stations(tmp, float("inf")),
    "instance-text-atom-p": lambda tmp: optimize_on_bad_instance(tmp, lambda s: s["profile"]["atoms"][0].update(p="x")),
    "instance-text-upper": lambda tmp: optimize_on_bad_instance(tmp, lambda s: s.update(upper="x")),
    "days-infinite-interval": lambda tmp: posterior_on_bad_days(tmp, "inf:5"),
    "days-nan-minutes": lambda tmp: posterior_on_bad_days(tmp, "0:nan"),
    "days-period-longer-than-interval": lambda tmp: posterior_on_bad_days(tmp, "0:300000"),
    # each of these loaded and ran
    "instance-nan-start-hour": lambda tmp: optimize_on_poisson_start_hour(tmp, float("nan")),
    "instance-start-hour-99": lambda tmp: optimize_on_poisson_start_hour(tmp, 99.0),
    # each of these exited 1 on Python 3.10 and loaded on 3.11
    "trips-nul-byte": lambda tmp: estimate_on_nul_byte(tmp, "a\0,60,rental\n", "a\0,0,30,30\n"),
    "status-nul-byte": lambda tmp: estimate_on_nul_byte(tmp, "", "a\0,0,30,30\n"),
    "days-nul-byte": posterior_on_nul_byte,
    # each of these wrote a table that load_cost_table rejects
    "tables-negative-capacity": lambda tmp: tables_with_capacity(tmp, -3, "daily"),
    "tables-negative-capacity-longrun": lambda tmp: tables_with_capacity(tmp, -3, "longrun"),
    "stations-negative-upper": tables_on_negative_upper,
    # each of these loaded as a truncated count
    "profiles-fractional-intervals": lambda tmp: tables_on_profiles_horizon(tmp, 2.9, 2),
    "profiles-boolean-intervals": lambda tmp: tables_on_profiles_horizon(tmp, True, 1),
    "profiles-fractional-flag-interval": lambda tmp: tables_on_profiles_horizon(tmp, 2, 2, flag_interval=1.7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_numbers_exit_1(tmp_path, case, capsys):
    out = tmp_path / "out"
    assert run(*MALFORMED_INPUTS[case](tmp_path), "--out", out) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "validation"
    assert not out.exists() or not any(out.iterdir())


GROWN_DAY = {"station_id": "g", "capacity_before": 2, "capacity_after": 4, "bikes_at_open": 1, "observed_events": [1, 1]}
CUT_DAY = {"station_id": "s", "capacity_before": 4, "capacity_after": 3, "bikes_at_open": 3, "full_periods": [[0, 20.0]]}


@pytest.mark.parametrize(
    "day, flag, value",
    [
        (GROWN_DAY, "--resamples", -3),
        (GROWN_DAY, "--resamples", 0),
        (CUT_DAY, "--seed", -1),
    ],
)
def test_posterior_rejects_bad_parameters_before_any_day(tmp_path, capsys, day, flag, value):
    days = tmp_path / "days.json"
    days.write_text(json.dumps({"days": [day]}))
    profiles = one_interval_profiles(tmp_path, ("s",))
    out = tmp_path / "out"
    assert run("posterior", "--days", days, "--profiles", profiles, flag, value, "--out", out) == 1
    message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
    assert flag.lstrip("-") in message
    assert not out.exists()


def posterior_reading(tmp_path, path):
    return "posterior", "--days", path


def tables_reading_profiles(tmp_path, path):
    return "tables", "--profiles", path


def tables_reading_stations(tmp_path, path):
    return "tables", "--profiles", one_interval_profiles(tmp_path, ("a", "b")), "--stations", path


def optimize_reading_instance(tmp_path, path):
    return "optimize", "--instance", path


def optimize_reading_table(tmp_path, path):
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps(GOOD_STATIONS))
    return "optimize", "--stations", stations, "--tables", path, "--bikes", 2, "--docks", 6


JSON_LOADERS = {
    "days": posterior_reading,
    "profiles": tables_reading_profiles,
    "stations": tables_reading_stations,
    "instance": optimize_reading_instance,
    "cost-table": optimize_reading_table,
}
NOT_A_DOCUMENT = {
    "empty-object": b"{}",
    "not-json": b"not json",
    "list-of-lists": b"[[]]",
    "not-utf8": b"\xff\xfe{}",
}


@pytest.mark.parametrize("content", sorted(NOT_A_DOCUMENT))
@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
def test_malformed_json_exits_1(tmp_path, capsys, loader, content):
    path = tmp_path / "input.json"
    path.write_bytes(NOT_A_DOCUMENT[content])
    out = tmp_path / "out"
    assert run(*JSON_LOADERS[loader](tmp_path, path), "--out", out) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "validation"
    assert not out.exists()


def small_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def estimate_missing_trips(tmp_path, missing):
    status = small_csv(tmp_path, "status.csv", "station_id,interval,minutes_nonempty,minutes_nonfull\na,0,30,30\n")
    return "estimate", "--trips", missing, "--status", status, "--days", 1


def estimate_missing_status(tmp_path, missing):
    trips = small_csv(tmp_path, "trips.csv", "station_id,timestamp,kind\na,600,rental\n")
    return "estimate", "--trips", trips, "--status", missing, "--days", 1


def optimize_missing_stations(tmp_path, missing):
    return "optimize", "--stations", missing, "--profiles", one_interval_profiles(tmp_path, ("a",)), "--bikes", 1, "--docks", 1


MISSING_INPUTS = {
    "estimate-trips": (estimate_missing_trips, "trips.csv"),
    "estimate-status": (estimate_missing_status, "status.csv"),
    "tables-profiles": (tables_reading_profiles, "profiles.json"),
    "optimize-stations": (optimize_missing_stations, "stations.json"),
    "posterior-days-json": (posterior_reading, "days.json"),
    "posterior-days-csv": (posterior_reading, "days.csv"),
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_input_file_exits_1(tmp_path, capsys, case):
    command, name = MISSING_INPUTS[case]
    missing = tmp_path / "nowhere" / name
    out = tmp_path / "out"
    assert run(*command(tmp_path, missing), "--out", out) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "validation"
    assert str(missing) in error["message"]
    assert not out.exists()
