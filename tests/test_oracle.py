import math
from fractions import Fraction

import numpy as np
import pytest

from dockalloc.allocator import dock_move_distance
from dockalloc.demand import PoissonProfile
from dockalloc.errors import ValidationError
from dockalloc.instance import (
    InstanceSpec,
    StationSpec,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from dockalloc.oracle import (
    brute_force_optimum,
    counterexample_fixtures,
    feasible_within_moves,
    random_instance,
    simulate_cost,
    synthetic_scenario,
)
from dockalloc.udf import FiniteProfile

from conftest import philox


class TestBruteForce:
    def test_reference_instance_optimum(self):
        spec, extras = counterexample_fixtures()["exchange_trap"]
        per_z = brute_force_optimum(spec)
        final = max(per_z)
        alloc, value = per_z[final]
        assert value == Fraction(1)
        assert alloc.capacities == (1, 0, 2)
        assert alloc.bikes == (0, 0, 1)

    def test_single_station_reduces_to_bike_sweep(self):
        profile = FiniteProfile((((1, -1, -1, 1), 0.5),))
        spec = InstanceSpec(
            stations=(StationSpec("a", profile, 3, 3, 2, 1),),
            bike_budget=1,
            dock_budget=3,
        )
        per_z = brute_force_optimum(spec)
        tables = spec.tables()
        expected = min(tables[0].cost(3 - b, b) for b in range(2))
        assert per_z[0][1] == expected

    def test_zero_moves_is_baseline_bike_optimal(self):
        for case in range(10):
            rng = philox(107, case)
            spec = random_instance(rng)
            per_z = brute_force_optimum(spec, z_values=[0])
            assert per_z[0][0].capacities == spec.constraints().baseline_capacities

    def test_values_decrease_with_z(self):
        rng = philox(109, 1)
        spec = random_instance(rng)
        per_z = brute_force_optimum(spec)
        values = [per_z[z][1] for z in sorted(per_z)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_guard_refuses_oversized_instances(self):
        profile = FiniteProfile(())
        stations = tuple(StationSpec(f"s{i}", profile, 0, 60, 30, 0) for i in range(6))
        spec = InstanceSpec(stations, bike_budget=100, dock_budget=180)
        with pytest.raises(ValidationError, match="guard"):
            brute_force_optimum(spec)


class TestSimulation:
    def test_zero_rates(self):
        p = PoissonProfile("z", (0.0,), (0.0,))
        mean, stderr = simulate_cost(p, 2, 1, 500, seed=1)
        assert mean == 0.0 and stderr == 0.0

    def test_zero_capacity_analytic(self):
        p = PoissonProfile("c", (0.1, 0.2), (0.05, 0.15))
        expect = (0.1 + 0.05 + 0.2 + 0.15) * 30.0
        mean, stderr = simulate_cost(p, 0, 0, 60_000, seed=2)
        assert abs(mean - expect) <= 3 * stderr

    def test_seed_reproducibility(self):
        p = PoissonProfile("r", (0.1,), (0.2,))
        assert simulate_cost(p, 1, 1, 2000, seed=5) == simulate_cost(p, 1, 1, 2000, seed=5)
        assert simulate_cost(p, 1, 1, 2000, seed=5) != simulate_cost(p, 1, 1, 2000, seed=6)


class TestFixtures:
    def test_exchange_descent_cannot_reach_optimum_in_one_exchange(self):
        spec, extras = counterexample_fixtures()["exchange_trap"]
        tables = spec.tables()
        stuck_value = extras["stuck_objective"]
        for neighbor in extras["exchange_neighbors"]:
            alloc = neighbor["allocation"]
            if not neighbor["feasible"]:
                assert sum(alloc.capacities) > spec.dock_budget
                continue
            value = sum(t.cost(d, b) for t, d, b in zip(tables, alloc.empty_docks, alloc.bikes))
            assert value >= stuck_value

    def test_midpoint_of_feasible_pair_is_infeasible(self):
        spec, extras = counterexample_fixtures()["midpoint_gap"]
        z = spec.max_moves
        for caps in extras["feasible"]:
            assert feasible_within_moves(spec, caps, z)
        for caps in extras["infeasible"]:
            assert not feasible_within_moves(spec, caps, z)
        # in running-total coordinates, the rounded-up midpoint of the two
        # feasible vectors lands on the infeasible one
        a, b = extras["feasible"][0], extras["feasible"][1]
        cum_a, cum_b = np.cumsum(a), np.cumsum(b)
        up_cum = [math.ceil((x + y) / 2) for x, y in zip(cum_a, cum_b)]
        up = tuple(np.diff([0] + up_cum))
        assert tuple(up) in [tuple(c) for c in extras["infeasible"]]

    def test_fixture_distances(self):
        spec, extras = counterexample_fixtures()["midpoint_gap"]
        baseline = spec.constraints().baseline_capacities
        assert dock_move_distance(extras["infeasible"][0], baseline) == 4
        assert dock_move_distance(extras["feasible"][0], baseline) == 2

    def test_fixtures_round_trip_through_json(self, tmp_path):
        for name, (spec, _) in counterexample_fixtures().items():
            path = tmp_path / f"{name}.json"
            save_instance(path, spec)
            assert load_instance(path) == spec

    def test_instance_json_supports_poisson(self, tmp_path):
        spec = synthetic_scenario(n_stations=3, seed=1, max_moves=2)
        assert instance_from_json(instance_to_json(spec)) == spec


class TestGenerators:
    def test_random_instances_are_valid(self):
        for case in range(20):
            rng = philox(113, case)
            spec = random_instance(rng)
            spec.constraints().validate(len(spec.stations))
            assert sum(spec.constraints().baseline_capacities) == spec.dock_budget

    def test_surplus_adds_spare_docks_within_the_box(self):
        for case in range(20):
            plain = random_instance(philox(113, case))
            spec = random_instance(philox(113, case), surplus=4)
            spec.constraints().validate(len(spec.stations))
            assert spec.stations == plain.stations
            headroom = sum(s.upper for s in spec.stations) - plain.dock_budget
            assert spec.dock_budget == plain.dock_budget + min(4, headroom)

    def test_synthetic_scenario_is_deterministic(self):
        a = synthetic_scenario(n_stations=5, seed=9)
        b = synthetic_scenario(n_stations=5, seed=9)
        assert a == b
        assert len(a.stations) == 5
        assert a.dock_budget == sum(a.constraints().baseline_capacities)
