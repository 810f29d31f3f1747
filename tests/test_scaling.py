import dataclasses

import pytest

from dockalloc.allocator import Constraints, optimize
from dockalloc.demand import PoissonProfile
from dockalloc.errors import ValidationError
from dockalloc.oracle import brute_force_optimum, random_instance, synthetic_scenario
from dockalloc.scaling import PhasePlan, optimize_scaled, optimize_scaled_constrained
from dockalloc.udf import LazyDailyCost

from conftest import philox


class TestPhasePlan:
    def test_powers_of_two(self):
        assert PhasePlan.powers_of_two(10).step_sizes == (8, 4, 2, 1)
        assert PhasePlan.powers_of_two(1).step_sizes == (1,)
        assert PhasePlan.powers_of_two(0).step_sizes == (1,)

    def test_hybrid_plan(self):
        assert PhasePlan.hybrid().step_sizes == (8, 4, 1)

    def test_truncate_for_granularity(self):
        assert PhasePlan.hybrid().truncate(4).step_sizes == (8, 4)
        assert PhasePlan.hybrid().truncate(2).step_sizes == (8, 4)
        assert PhasePlan.powers_of_two(10).truncate(2).step_sizes == (8, 4, 2)
        assert PhasePlan.powers_of_two(10).truncate(4).step_sizes == (8, 4)
        assert PhasePlan((1,)).truncate(4).step_sizes == (4,)
        # strides the granularity does not divide are dropped
        assert PhasePlan.hybrid().truncate(3).step_sizes == (3,)
        assert PhasePlan((9, 8, 6, 4, 3, 1)).truncate(3).step_sizes == (9, 6, 3)

    def test_granularity_plans_move_multiples_of_it(self):
        for seed in range(4):
            spec = synthetic_scenario(n_stations=6, seed=seed, max_moves=None)
            tables = spec.tables()
            baseline = spec.constraints().baseline_capacities
            for g in (2, 3, 4):
                for z in (None, 8):
                    constraints = dataclasses.replace(spec.constraints(), max_moves=z)
                    result = optimize_scaled(constraints, tables, PhasePlan.hybrid().truncate(g))
                    changes = [after - before for after, before in zip(result.allocation.capacities, baseline)]
                    assert any(changes) and all(c % g == 0 for c in changes), (seed, g, z, changes)

    def test_rejects_bad_plans(self):
        with pytest.raises(ValidationError):
            PhasePlan((4, 4))
        with pytest.raises(ValidationError):
            PhasePlan(())
        with pytest.raises(ValidationError):
            PhasePlan((0,))
        for stride in (2.0, True, 1.5):
            with pytest.raises(ValidationError):
                PhasePlan((stride,))
        with pytest.raises(ValidationError):
            PhasePlan((4, 2.0))


class TestScaledUnconstrained:
    def test_degenerate_plan_matches_plain_descent_exactly(self):
        for case in range(10):
            rng = philox(71, case)
            spec = random_instance(rng)
            plain = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
            scaled = optimize_scaled(spec.constraints(), spec.tables(), PhasePlan((1,)), improvement_threshold=0.0)
            assert scaled.objective == plain.objective
            assert [e.move for e in scaled.log] == [e.move for e in plain.log]

    def test_all_plans_reach_the_brute_force_optimum(self):
        for case in range(20):
            rng = philox(73, case)
            spec = random_instance(rng)
            exact = brute_force_optimum(spec)
            final = max(exact)
            for plan in (PhasePlan.powers_of_two(spec.dock_budget), PhasePlan.hybrid()):
                scaled = optimize_scaled(spec.constraints(), spec.tables(), plan, improvement_threshold=0.0)
                assert scaled.objective == exact[final][1]

    def test_phase_iteration_bound(self):
        import math

        for case in range(10):
            rng = philox(79, case)
            spec = random_instance(rng)
            scaled = optimize_scaled(
                spec.constraints(), spec.tables(), PhasePlan.powers_of_two(spec.dock_budget),
                improvement_threshold=0.0,
            )
            n_system = len(spec.stations) + 1  # internal depot included
            assert all(ph.iterations <= 5 * n_system for ph in scaled.phases)
            total = sum(ph.iterations for ph in scaled.phases)
            assert total <= 5 * n_system * (math.floor(math.log2(max(spec.dock_budget, 1))) + 1)

    def test_phase_stats_recorded(self):
        rng = philox(83, 0)
        spec = random_instance(rng)
        scaled = optimize_scaled(spec.constraints(), spec.tables(), PhasePlan.hybrid(), improvement_threshold=0.0)
        assert [ph.step for ph in scaled.phases] == [8, 4, 1]
        assert all(ph.evaluations_by_capacity for ph in scaled.phases)

    def test_stride_lattice_optimality_per_phase(self):
        # one stride-2 phase ends at the best allocation whose docks AND
        # bikes each differ from the baseline by multiples of 2
        from itertools import product

        from dockalloc.oracle import _capacity_vectors

        for case in range(8):
            rng = philox(89, case)
            spec = random_instance(rng, n_max=3, budget_max=8)
            plan = PhasePlan((2,))
            scaled = optimize_scaled(spec.constraints(), spec.tables(), plan, improvement_threshold=0.0)
            constraints = spec.constraints()
            baseline_caps = constraints.baseline_capacities
            baseline_bikes = constraints.baseline_bikes
            caps = scaled.allocation.capacities
            assert all((c - b) % 2 == 0 for c, b in zip(caps, baseline_caps))
            assert all((x - y) % 2 == 0 for x, y in zip(scaled.allocation.bikes, baseline_bikes))

            tables = spec.tables()
            best = None
            for vec in _capacity_vectors(constraints.lower, constraints.upper, spec.dock_budget):
                if any((c - b) % 2 for c, b in zip(vec, baseline_caps)):
                    continue
                lattices = [
                    [b for b in range(base % 2, cap + 1, 2)]
                    for base, cap in zip(baseline_bikes, vec)
                ]
                for bikes in product(*lattices):
                    if sum(bikes) > spec.bike_budget:
                        continue
                    if (spec.bike_budget - sum(bikes)) % 2 != (spec.bike_budget - sum(baseline_bikes)) % 2:
                        continue  # depot bikes must stay on the lattice too
                    value = sum(t.cost(c - b, b) for t, c, b in zip(tables, vec, bikes))
                    best = value if best is None else min(best, value)
            assert scaled.objective <= best


class TestScaledConstrained:
    def test_zero_moves_is_bike_optimal_baseline(self):
        rng = philox(97, 0)
        spec = random_instance(rng)
        constrained = dataclasses.replace(spec, max_moves=0)
        scaled = optimize_scaled_constrained(constrained.constraints(), constrained.tables(), improvement_threshold=0.0)
        plain = optimize(constrained.constraints(), constrained.tables(), improvement_threshold=0.0)
        assert scaled.objective == plain.objective

    def test_loose_cap_matches_unconstrained(self):
        for case in range(8):
            rng = philox(101, case)
            spec = random_instance(rng)
            loose = dataclasses.replace(spec, max_moves=spec.dock_budget)
            scaled = optimize_scaled_constrained(loose.constraints(), loose.tables(), improvement_threshold=0.0)
            free = optimize_scaled(spec.constraints(), spec.tables(), improvement_threshold=0.0)
            assert scaled.objective == free.objective

    def test_matches_brute_force_for_small_caps(self):
        for case in range(15):
            rng = philox(103, case)
            spec = random_instance(rng)
            exact = brute_force_optimum(spec)
            for z in range(1, 7):
                if z not in exact:
                    continue
                constrained = dataclasses.replace(spec, max_moves=z)
                for plan in (PhasePlan.powers_of_two(spec.dock_budget), PhasePlan.hybrid()):
                    scaled = optimize_scaled_constrained(
                        constrained.constraints(), constrained.tables(), plan, improvement_threshold=0.0
                    )
                    assert scaled.objective == exact[z][1], (case, z, plan.step_sizes)

    def test_surplus_docks_with_move_cap_match_brute_force(self):
        checked = 0
        for case in range(20):
            rng = philox(211, case)
            spec = random_instance(rng)
            station = spec.stations[0]
            if station.baseline_docks < 2:
                continue
            shrunk = dataclasses.replace(
                station,
                baseline_docks=station.baseline_docks - 2,
                lower=min(station.lower, station.baseline_docks - 2 + station.baseline_bikes),
            )
            surplus = dataclasses.replace(spec, stations=(shrunk,) + spec.stations[1:])
            exact = brute_force_optimum(surplus)
            for z in list(exact)[:4]:
                constrained = dataclasses.replace(surplus, max_moves=z)
                scaled = optimize_scaled_constrained(
                    constrained.constraints(), constrained.tables(), PhasePlan.hybrid(), improvement_threshold=0.0
                )
                assert scaled.objective == exact[z][1], (case, z)
                checked += 1
            free = optimize_scaled(
                surplus.constraints(), surplus.tables(), PhasePlan.powers_of_two(surplus.dock_budget),
                improvement_threshold=0.0,
            )
            assert free.objective == exact[max(exact)][1]
            for z in range(surplus.dock_budget + 1):
                constrained = dataclasses.replace(surplus, max_moves=z)
                greedy = optimize(constrained.constraints(), constrained.tables(), improvement_threshold=0.0)
                for plan in (PhasePlan.powers_of_two(surplus.dock_budget), PhasePlan.hybrid()):
                    scaled = optimize_scaled(
                        constrained.constraints(), constrained.tables(), plan, improvement_threshold=0.0
                    )
                    assert scaled.objective == greedy.objective, (case, z, plan.step_sizes)
        assert checked >= 10


def relocations(result, n):
    """Logged moves that relocate docks, not depot deployments."""
    return sum(entry.move.i != n for entry in result.log)


class TestScaledLog:
    """Under a cap only the plan's last stride runs, from the baseline, so
    the log holds that stride's moves and ``phases`` that one stride."""

    def test_capped_stride_one_plans_log_greedy_moves(self):
        for case in range(30):
            rng = philox(223, case)
            spec = random_instance(rng, n_max=5, budget_max=14, surplus=int(rng.integers(1, 4)))
            tables = spec.tables()
            for z in (0, 1, 2, 3, 5, 8):
                constraints = dataclasses.replace(spec.constraints(), max_moves=z)
                greedy = optimize(constraints, tables, improvement_threshold=0.0)
                for plan in (PhasePlan.powers_of_two(spec.dock_budget), PhasePlan.hybrid()):
                    scaled = optimize_scaled(constraints, tables, plan, improvement_threshold=0.0)
                    assert scaled.log == greedy.log, (case, z, plan.step_sizes)

    def test_capped_plans_log_at_most_cap_over_last_stride(self):
        for case in range(30):
            rng = philox(227, case)
            spec = random_instance(rng, n_max=5, budget_max=14, surplus=case % 4)
            tables = spec.tables()
            plans = (
                PhasePlan.powers_of_two(spec.dock_budget),
                PhasePlan.hybrid(),
                PhasePlan.hybrid().truncate(4),
                PhasePlan((8, 4)),
                PhasePlan((4,)),
                PhasePlan((2,)),
                PhasePlan((3, 1)),
                PhasePlan((4, 2)),
                PhasePlan((6, 3)),
            )
            for z in (0, 1, 2, 3, 5, 8):
                constraints = dataclasses.replace(spec.constraints(), max_moves=z)
                for plan in plans:
                    scaled = optimize_scaled(constraints, tables, plan, improvement_threshold=0.0)
                    last = plan.step_sizes[-1]
                    alone = optimize_scaled(constraints, tables, PhasePlan((last,)), improvement_threshold=0.0)
                    assert scaled == alone, (case, z, plan.step_sizes)
                    assert len(scaled.phases) == 1
                    assert relocations(scaled, len(tables)) <= z // last, (case, z, plan.step_sizes)
                    assert scaled.phases[0].iterations == relocations(scaled, len(tables))

    def test_two_station_swing_logs_greedy_moves(self):
        # station a empties in the morning and fills at night; b barely moves
        a = PoissonProfile("a", (0.3,) * 24 + (0.0,) * 24, (0.0,) * 24 + (0.3,) * 24, minutes_per_interval=30.0)
        b = PoissonProfile("b", (0.001,) * 48, (0.001,) * 48, minutes_per_interval=30.0)
        tables = [LazyDailyCost(a), LazyDailyCost(b)]
        constraints = Constraints(
            bike_budget=400,
            dock_budget=520,
            baseline_docks=(0, 100),
            baseline_bikes=(20, 380),
            lower=(0, 0),
            upper=(512, 512),
            max_moves=300,
        )
        greedy = optimize(constraints, tables)
        scaled = optimize_scaled(constraints, tables, PhasePlan.powers_of_two(520))
        assert scaled.allocation.capacities == greedy.allocation.capacities == (330, 190)
        assert len(greedy.log) == 310
        assert scaled.log == greedy.log
        assert relocations(scaled, 2) == 290
