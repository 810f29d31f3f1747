import dataclasses
from fractions import Fraction

import pytest

from dockalloc.allocator import (
    Allocation,
    Constraints,
    DEFAULT_IMPROVEMENT_THRESHOLD,
    KIND_RANK,
    LogEntry,
    OptimizeResult,
    _Descent,
    _bike_optimal_objective,
    _extended_problem,
    _replay,
    _stride_descent,
    bike_optimal,
    dock_move_distance,
    optimize,
    optimize_tradeoff,
)
from dockalloc.errors import InfeasibleError, ValidationError
from dockalloc.oracle import (
    brute_force_optimum,
    brute_force_tradeoff,
    counterexample_fixtures,
    enumerate_moves,
    random_instance,
)
from dockalloc.scaling import PhasePlan, optimize_scaled
from dockalloc.udf import CostTable, FiniteProfile, cost_table_from_finite

from conftest import philox


def flat_table(values_by_capacity, station_id="s"):
    """Capacity-only cost table (same value along each anti-diagonal)."""
    cap = len(values_by_capacity) - 1
    rows = tuple(tuple(values_by_capacity[s] for _ in range(s + 1)) for s in range(cap + 1))
    return CostTable(station_id, cap, rows)


def trap():
    return counterexample_fixtures()["exchange_trap"]


def descent_at(constraints, tables, alloc, threshold=DEFAULT_IMPROVEMENT_THRESHOLD):
    """The descent on the depot-extended problem from ``alloc``, the depot
    holding the slack bikes."""
    sources, lower, upper, _ = _extended_problem(constraints, tables)
    slack = constraints.bike_budget - sum(alloc.bikes)
    docks = alloc.empty_docks + (constraints.bike_budget - slack,)
    return _Descent(sources, lower, upper, docks, alloc.bikes + (slack,), threshold=threshold)


def move_key(m):
    return (m.delta, KIND_RANK[m.kind], m.i, m.j, -1 if m.h is None else m.h)


class TestBikeOptimal:
    def test_zero_budget(self):
        spec, _ = trap()
        alloc = bike_optimal((1, 1, 1), 0, spec.tables())
        assert alloc.bikes == (0, 0, 0)

    def test_reference_instance_puts_bike_at_first_station(self):
        spec, _ = trap()
        tables = spec.tables()
        alloc = bike_optimal((1, 1, 1), 1, tables)
        assert alloc == Allocation((0, 1, 1), (1, 0, 0))
        objective = sum(t.cost(d, b) for t, d, b in zip(tables, alloc.empty_docks, alloc.bikes))
        assert objective == Fraction(3, 2)

    def test_infeasible_budget(self):
        spec, _ = trap()
        with pytest.raises(InfeasibleError):
            bike_optimal((1, 1, 1), 4, spec.tables())

    def test_matches_exhaustive_enumeration(self):
        for case in range(25):
            rng = philox(41, case)
            spec = random_instance(rng)
            tables = spec.tables()
            caps = spec.constraints().baseline_capacities
            budget = min(spec.bike_budget, sum(caps))
            alloc = bike_optimal(caps, budget, tables)
            mine = sum(t.cost(d, b) for t, d, b in zip(tables, alloc.empty_docks, alloc.bikes))

            def enumerate_best(i, remaining):
                if i == len(caps):
                    return 0 if remaining == 0 else None
                best = None
                for b in range(min(caps[i], remaining) + 1):
                    rest = enumerate_best(i + 1, remaining - b)
                    if rest is None:
                        continue
                    v = tables[i].cost(caps[i] - b, b) + rest
                    if best is None or v < best:
                        best = v
                return best

            assert mine == enumerate_best(0, budget)


class TestBestMove:
    def test_symmetric_stations_have_no_improving_move(self):
        table = flat_table([3.0, 2.0, 1.5, 1.25, 1.2])
        tables = [table, table, table]
        constraints = Constraints(
            bike_budget=0,
            dock_budget=6,
            baseline_docks=(2, 2, 2),
            baseline_bikes=(0, 0, 0),
            lower=(0, 0, 0),
            upper=(4, 4, 4),
        )
        alloc = Allocation((2, 2, 2), (0, 0, 0))
        assert descent_at(constraints, tables, alloc).best_move() is None

    def test_reference_instance_single_move_reaches_optimum(self):
        spec, extras = trap()
        move = descent_at(spec.constraints(), spec.tables(), extras["stuck"], threshold=0.0).best_move()
        assert move is not None
        assert move.delta == Fraction(-1, 2)

    def test_two_station_rentals_vs_returns_matches_enumeration(self):
        rentals = cost_table_from_finite(FiniteProfile((((-1, -1), 1.0),)), 4, "rent")
        returns = cost_table_from_finite(FiniteProfile((((1, 1), 1.0),)), 4, "ret")
        constraints = Constraints(
            bike_budget=2,
            dock_budget=4,
            baseline_docks=(0, 2),
            baseline_bikes=(1, 1),
            lower=(0, 0),
            upper=(4, 4),
        )
        alloc = bike_optimal((1, 3), 2, [rentals, returns])
        sources, lower, upper, _ = _extended_problem(constraints, [rentals, returns])
        docks = list(alloc.empty_docks) + [0]
        bikes = list(alloc.bikes) + [2 - sum(alloc.bikes)]
        docks[2] = 2 - bikes[2]
        chosen = _Descent(sources, lower, upper, docks, bikes, threshold=0.0).best_move()
        all_moves = [m for m in enumerate_moves(sources, lower, upper, docks, bikes) if m.delta < 0]
        expected = min(all_moves, key=move_key)
        assert chosen is not None
        assert (chosen.kind, chosen.i, chosen.j, chosen.h, chosen.delta) == (
            expected.kind,
            expected.i,
            expected.j,
            expected.h,
            expected.delta,
        )
        # moving one full dock from the returns-heavy to the rentals-heavy
        # station serves everyone
        assert chosen.kind == "e" and (chosen.i, chosen.j) == (1, 0)

    def test_best_move_searches_the_third_station_of_a_side(self):
        # A and B lead every side of an E move, so any E move needs C, the
        # third entry of a side heap; the o, e and O moves all cost more
        def table(station_id, lose_empty, gain_full, give_bike):
            # one empty dock and one bike, cost 50; the other sides cost 100 more
            values = [[150] * (s + 1) for s in range(4)]
            values[2][1] = 50
            sides = {(-1, 0): lose_empty, (0, 1): gain_full, (1, -1): give_bike, (0, -1): 100, (1, 0): 100, (-1, 1): 100}
            for (dd, db), delta in sides.items():
                values[2 + dd + db][1 + db] = 50 + delta
            return CostTable(station_id, 3, tuple(map(tuple, values)))

        sources = [table("A", -10, -8, -6), table("B", -9, -10, -7), table("C", -1, -2, -3)]
        args = (sources, [0] * 3, [3] * 3, [1] * 3, [1] * 3)
        move = _Descent(*args, threshold=0.0).best_move()
        assert (move.kind, move.i, move.j, move.h, move.delta) == ("E", 0, 1, 2, -23)
        assert move_key(move) == move_key(min(enumerate_moves(*args), key=move_key))

    def test_best_move_keeps_bikes_optimal(self):
        # the chosen move never needs a second bike adjustment afterward
        for case in range(12):
            rng = philox(149, case)
            spec = random_instance(rng)
            constraints = spec.constraints()
            tables = spec.tables()
            sources, lower, upper, caps = _extended_problem(constraints, tables)
            start = bike_optimal(caps, constraints.bike_budget, sources)
            engine = _Descent(sources, lower, upper, start.empty_docks, start.bikes, threshold=0.0)
            while True:
                current_caps = [d + b for d, b in zip(engine.d, engine.b)]
                rebuilt = bike_optimal(current_caps, constraints.bike_budget, sources)
                value_now = sum(s.cost(d, b) for s, d, b in zip(sources, engine.d, engine.b))
                value_best = sum(
                    s.cost(d, b) for s, d, b in zip(sources, rebuilt.empty_docks, rebuilt.bikes)
                )
                assert value_now == value_best
                move = engine.best_move()
                if move is None:
                    break
                engine.apply(move)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_heap_search_matches_enumeration_along_runs(self, stride):
        # from the start _stride_descent gives each stride: bike_optimal at
        # stride 1, pairwise stride-sized bike moves above
        checked = 0
        for case in range(20):
            rng = philox(43, case)
            spec = random_instance(rng)
            constraints = spec.constraints()
            tables = spec.tables()
            sources, lower, upper, caps = _extended_problem(constraints, tables)
            if stride == 1:
                start = bike_optimal(caps, constraints.bike_budget, sources)
                docks, bikes = start.empty_docks, start.bikes
            else:
                bikes = list(constraints.baseline_bikes) + [constraints.bike_budget - sum(constraints.baseline_bikes)]
                pre = _Descent(sources, lower, upper, [c - b for c, b in zip(caps, bikes)], bikes, stride=stride)
                pre.optimize_bikes_pairwise()
                docks, bikes = pre.d, pre.b
            engine = _Descent(sources, lower, upper, docks, bikes, stride=stride, threshold=0.0)
            while True:
                move = engine.best_move()
                improving = [
                    m
                    for m in enumerate_moves(sources, lower, upper, engine.d, engine.b, stride=stride)
                    if m.delta < 0
                ]
                checked += 1
                if move is None:
                    assert not improving
                    break
                assert move_key(move) == move_key(min(improving, key=move_key))
                engine.apply(move)
        assert checked >= 20

    def test_depot_search_matches_enumeration_along_additions(self):
        # the surplus deployment: the depot stocked as _run_additions does,
        # and only moves out of the depot
        checked = 0
        for case in range(20):
            spec = random_instance(philox(47, case), surplus=3)
            constraints = spec.constraints()
            sources, lower, upper, caps = _extended_problem(constraints, spec.tables())
            start = bike_optimal(caps, constraints.bike_budget, sources)
            depot, extra = len(caps) - 1, constraints.dock_budget - sum(constraints.baseline_capacities)
            docks, upper = list(start.empty_docks), list(upper)
            docks[depot] += extra
            upper[depot] += extra
            engine = _Descent(sources, lower, upper, docks, start.bikes, threshold=0.0)
            for _ in range(extra + 1):
                move = engine.best_move(from_station=depot)
                improving = [
                    m for m in enumerate_moves(sources, lower, upper, engine.d, engine.b) if m.i == depot and m.delta < 0
                ]
                checked += 1
                if move is None:
                    assert not improving
                    break
                assert move_key(move) == move_key(min(improving, key=move_key))
                engine.apply(move)
            else:
                raise AssertionError("the depot deployed more docks than its stock")
        assert checked >= 40


class TestOptimize:
    def test_zero_moves_returns_bike_optimal_baseline(self):
        spec, _ = trap()
        constraints = dataclasses.replace(spec.constraints(), max_moves=0)
        result = optimize(constraints, spec.tables(), improvement_threshold=0.0)
        assert result.log == ()
        assert result.objective == Fraction(3, 2)
        assert result.allocation == Allocation((0, 1, 1), (1, 0, 0))

    @pytest.mark.parametrize("threshold", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_improvement_threshold(self, threshold):
        # a negative threshold made the uncapped descent cycle forever on
        # this instance; NaN stopped it before the first move
        from dockalloc.scaling import optimize_scaled

        spec, _ = counterexample_fixtures()["midpoint_gap"]
        constraints = dataclasses.replace(spec.constraints(), max_moves=None)
        tables = spec.tables()
        with pytest.raises(ValidationError, match="threshold"):
            optimize(constraints, tables, improvement_threshold=threshold)
        with pytest.raises(ValidationError, match="threshold"):
            optimize_scaled(constraints, tables, improvement_threshold=threshold)
        with pytest.raises(ValidationError, match="threshold"):
            optimize_tradeoff(
                dataclasses.replace(constraints, tradeoff=(1, 2)), tables, improvement_threshold=threshold
            )

    def test_reference_instance_reaches_one(self):
        spec, extras = trap()
        result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
        assert result.objective == Fraction(1)
        assert result.allocation.capacities == extras["optimal"].capacities

    def test_budgets_and_boxes_respected_along_run(self):
        for case in range(15):
            rng = philox(47, case)
            spec = random_instance(rng)
            constraints = spec.constraints()
            result = optimize(constraints, spec.tables(), improvement_threshold=0.0)
            caps = result.allocation.capacities
            assert sum(caps) <= constraints.dock_budget
            assert sum(result.allocation.bikes) <= constraints.bike_budget
            assert all(l <= c <= u for l, c, u in zip(constraints.lower, caps, constraints.upper))
            assert len(result.log) <= constraints.dock_budget

    def test_moves_strictly_improve_with_diminishing_returns(self):
        for case in range(10):
            rng = philox(53, case)
            spec = random_instance(rng)
            result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
            deltas = [e.move.delta for e in result.log]
            assert all(d < 0 for d in deltas)
            assert all(b >= a for a, b in zip(deltas, deltas[1:]))
            objectives = [result.initial_objective] + [e.objective_after for e in result.log]
            assert all(b < a for a, b in zip(objectives, objectives[1:]))
            assert objectives[-1] == result.objective if result.log else True

    def test_prefix_matches_brute_force_each_z(self):
        for case in range(25):
            rng = philox(59, case)
            spec = random_instance(rng)
            result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
            per_move = {0: result.initial_objective}
            acc = per_move[0]
            for e in result.log:
                acc += e.move.delta
                per_move[e.iteration] = acc
            for z, (_, exact) in brute_force_optimum(spec).items():
                assert per_move[min(z, len(result.log))] == exact

    def test_every_move_preserves_feasibility(self):
        # replay each log against the budgets, boxes and move distance
        for case in range(12):
            rng = philox(151, case)
            spec = random_instance(rng)
            constraints = spec.constraints()
            result = optimize(constraints, spec.tables(), improvement_threshold=0.0)
            n = len(spec.stations)
            start = result.initial_objective
            caps = list(constraints.baseline_capacities)
            dist = 0
            for e in result.log:
                m = e.move
                if m.i < n:
                    caps[m.i] -= 1
                if m.j < n:
                    caps[m.j] += 1
                assert sum(caps) <= constraints.dock_budget
                assert all(
                    l <= c <= u for l, c, u in zip(constraints.lower, caps, constraints.upper)
                )
                new_dist = dock_move_distance(caps, constraints.baseline_capacities)
                assert new_dist - dist <= 2
                dist = new_dist
            assert tuple(caps) == result.allocation.capacities
            assert result.objective <= start

    def test_surplus_docks_are_deployed(self):
        # one station far below its upper bound; budget exceeds current docks
        table = flat_table([5.0, 3.0, 2.0, 1.5, 1.25, 1.1, 1.0])
        constraints = Constraints(
            bike_budget=0,
            dock_budget=6,
            baseline_docks=(3,),
            baseline_bikes=(0,),
            lower=(0,),
            upper=(6,),
        )
        result = optimize(constraints, [table], improvement_threshold=0.0)
        assert result.allocation.capacities == (6,)
        assert result.deployed_docks == 3

    def test_surplus_deployment_consumes_half_moves(self):
        for case in range(15):
            rng = philox(61, case)
            spec = random_instance(rng)
            # shrink the baseline to create surplus inventory
            stations = list(spec.stations)
            if stations[0].baseline_docks == 0:
                continue
            new_docks = stations[0].baseline_docks - 1
            stations[0] = dataclasses.replace(
                stations[0],
                baseline_docks=new_docks,
                lower=min(stations[0].lower, new_docks + stations[0].baseline_bikes),
            )
            surplus_spec = dataclasses.replace(spec, stations=tuple(stations))
            for z in range(0, 4):
                constrained = dataclasses.replace(surplus_spec, max_moves=z)
                result = optimize(constrained.constraints(), constrained.tables(), improvement_threshold=0.0)
                exact = brute_force_optimum(constrained, z_values=[z])[z][1]
                assert result.objective == exact

    def test_infeasible_reports_are_structured(self):
        spec, _ = trap()
        constraints = dataclasses.replace(spec.constraints(), dock_budget=100)
        with pytest.raises(InfeasibleError) as info:
            optimize(constraints, spec.tables())
        assert info.value.report["reason"] == "dock budget outside the box-bound range"

    def test_poisson_tables_match_brute_force(self):
        from dockalloc.demand import PoissonProfile
        from dockalloc.instance import InstanceSpec, StationSpec

        for case in range(8):
            rng = philox(307, case)
            n = int(rng.integers(2, 4))
            caps = rng.multinomial(8, [1.0 / n] * n)
            stations = tuple(
                StationSpec(
                    f"s{i}",
                    PoissonProfile(
                        f"s{i}",
                        tuple(float(x) for x in rng.uniform(0, 0.25, 3)),
                        tuple(float(x) for x in rng.uniform(0, 0.25, 3)),
                    ),
                    0,
                    int(caps[i]) + 3,
                    int(caps[i]),
                    0,
                )
                for i in range(n)
            )
            spec = InstanceSpec(stations, bike_budget=int(rng.integers(0, 9)), dock_budget=8)
            result = optimize(spec.constraints(), spec.tables())
            exact = brute_force_optimum(spec)
            assert float(result.objective) == pytest.approx(float(exact[max(exact)][1]), abs=1e-8)


class TestTradeoff:
    def test_unit_cost_above_budget_matches_plain_optimize(self):
        spec, _ = trap()
        constraints = dataclasses.replace(spec.constraints(), tradeoff=(5, 2))
        trade = optimize_tradeoff(constraints, spec.tables(), improvement_threshold=0.0)
        plain = optimize(
            dataclasses.replace(spec.constraints(), max_moves=2), spec.tables(), improvement_threshold=0.0
        )
        assert trade.chosen_new_docks == 0
        assert trade.result.objective == plain.objective
        for case in range(15):
            rng = philox(71, case)
            spec = random_instance(rng)
            joint = int(rng.integers(0, 6))
            constraints = dataclasses.replace(spec.constraints(), dock_budget=spec.dock_budget + case % 3)
            if constraints.dock_budget > sum(constraints.upper):
                continue
            trade = optimize_tradeoff(
                dataclasses.replace(constraints, tradeoff=(joint + 1, joint)), spec.tables(), improvement_threshold=0.0
            )
            plain = optimize(
                dataclasses.replace(constraints, max_moves=joint), spec.tables(), improvement_threshold=0.0
            )
            assert (trade.chosen_moves, trade.chosen_new_docks) == (joint, 0)
            assert trade.result == plain, case

    def test_zero_budget_is_bike_optimal_baseline(self):
        spec, _ = trap()
        constraints = dataclasses.replace(spec.constraints(), tradeoff=(1, 0))
        trade = optimize_tradeoff(constraints, spec.tables(), improvement_threshold=0.0)
        assert trade.result.objective == Fraction(3, 2)
        assert trade.chosen_new_docks == 0

    def test_matches_exhaustive_search(self):
        for case in range(20):
            rng = philox(67, case)
            spec = random_instance(rng, n_max=3, budget_max=7)
            spec = dataclasses.replace(
                spec, tradeoff=(int(rng.integers(1, 4)), int(rng.integers(0, 7)))
            )
            trade = optimize_tradeoff(spec.constraints(), spec.tables(), improvement_threshold=0.0)
            _, _, _, exact = brute_force_tradeoff(spec)
            assert trade.result.objective == exact

    def test_requires_tradeoff_parameters(self):
        spec, _ = trap()
        with pytest.raises(ValidationError):
            optimize_tradeoff(spec.constraints(), spec.tables())


# The stride plan chained stride by stride: without a cap each stride starts
# where the one before stopped; under a cap only the last runs, from the
# baseline.  The start objective is always the bike-optimal baseline's,
# recomputed, so the sweep's reuse of a lone stride-1 run's start is checked.
def reference_chain(sources, lower, upper, docks, bikes, strides, threshold, max_budget):
    initial = _bike_optimal_objective(sources, [d + b for d, b in zip(docks, bikes)], sum(bikes))
    *earlier, last = strides if max_budget is None else strides[-1:]
    log, phases = [], ()
    for step in earlier:
        _, docks, bikes, moves, phase = _stride_descent(sources, lower, upper, docks, bikes, threshold, None, step)
        _replay(docks, bikes, moves, step)
        log, phases = log + moves, phases + (phase,)
    _, start_docks, start_bikes, applied, phase = _stride_descent(
        sources, lower, upper, docks, bikes, threshold, max_budget, last
    )

    def reach(budget):
        moves = applied[: None if budget is None else budget // last]
        d, b = list(start_docks), list(start_bikes)
        _replay(d, b, moves, last)
        return d, b, log + moves, phases + (dataclasses.replace(phase, iterations=len(moves)),)

    return initial, reach


# The sweep as it was before one depot run served every candidate of a move
# budget: each (new, deployed) candidate reruns the surplus additions from
# scratch.  The reference the sweep must agree with.
def reference_sweep(constraints, tables, strides, threshold, tradeoff=None):
    n = len(tables)
    sources, lower, upper, caps = _extended_problem(constraints, tables)
    extra = constraints.dock_budget - sum(constraints.baseline_capacities)
    headroom = sum(constraints.upper) - sum(constraints.baseline_capacities)
    if tradeoff is not None:
        unit_cost, joint = tradeoff
        purchases = range(joint // unit_cost + 1)
    else:
        unit_cost, joint = 0, constraints.max_moves
        purchases = range(1)
    if joint is None:
        candidates = [(0, None, extra, None)]
    else:
        candidates = []
        for new in purchases:
            z = joint - unit_cost * new
            allowance = 2 * z + new
            for deployed in range(min(extra + new, headroom, allowance) + 1):
                candidates.append((new, z, deployed, (allowance - deployed) // 2))

    bikes = list(constraints.baseline_bikes) + [constraints.bike_budget - sum(constraints.baseline_bikes)]
    docks = [c - b for c, b in zip(caps, bikes)]
    initial, reach = reference_chain(sources, lower, upper, docks, bikes, strides, threshold, joint)
    reached = {}
    best = None
    for new, z, deployed, budget in candidates:
        if budget not in reached:
            reached[budget] = reach(budget)
        d, b, moves, phases = reached[budget]
        stocked, room = list(d), list(upper)
        stocked[n] += deployed
        room[n] += deployed
        engine = _Descent(sources, lower, room, stocked, b, threshold=threshold)
        additions = engine.run(max_iterations=deployed, from_station=n)
        key = (engine.objective, new, deployed)
        if best is None or key < best[0]:
            best = (key, z, new, engine, moves + additions, phases, len(additions))

    _, z, new, engine, log, phases, added = best
    docks, bikes = tuple(engine.d), tuple(engine.b)
    station_costs = tuple(sources[s].cost(docks[s], bikes[s]) for s in range(n))
    result = OptimizeResult(
        allocation=Allocation(docks[:n], bikes[:n]),
        objective=sum(station_costs),
        initial_objective=initial,
        log=tuple(LogEntry(it, move, value) for it, (move, value) in enumerate(log, start=1)),
        station_costs=station_costs,
        depot_bikes=bikes[n],
        deployed_docks=added,
        phases=phases,
    )
    return result, z, new


class TestSweepMatchesPerCandidateReference:
    """One depot run per move budget, read off per candidate, returns what
    rerunning the additions for every candidate returned: every field."""

    def test_optimize_and_scaled_on_surplus_instances(self):
        for case in range(40):
            rng = philox(97, case)
            surplus = int(rng.integers(0, 7))
            spec = random_instance(rng, n_max=4, budget_max=8, surplus=surplus)
            tables = spec.tables()
            exact = brute_force_optimum(spec)
            for z in (None, 0, 1, 2, 3, 5):
                constraints = dataclasses.replace(spec.constraints(), max_moves=z)
                for threshold in (0.0, DEFAULT_IMPROVEMENT_THRESHOLD):
                    result = optimize(constraints, tables, improvement_threshold=threshold)
                    assert result == reference_sweep(constraints, tables, (1,), threshold)[0], (case, z)
                    for plan in (PhasePlan.hybrid(), PhasePlan.powers_of_two(spec.dock_budget), PhasePlan((4, 2))):
                        scaled = optimize_scaled(constraints, tables, plan, improvement_threshold=threshold)
                        assert scaled == reference_sweep(constraints, tables, plan.step_sizes, threshold)[0], (case, z)
                result = optimize(constraints, tables, improvement_threshold=0.0)
                assert result.objective == exact[max(exact) if z is None else min(z, max(exact))][1], (case, z)

    def test_tradeoff_on_surplus_instances(self):
        for case in range(40):
            rng = philox(98, case)
            surplus = int(rng.integers(0, 7))
            spec = random_instance(rng, n_max=3, budget_max=7, surplus=surplus)
            tables = spec.tables()
            for unit_cost, joint in ((1, 0), (1, 3), (2, 5), (3, 7), (int(rng.integers(1, 4)), int(rng.integers(0, 9)))):
                constraints = dataclasses.replace(spec.constraints(), tradeoff=(unit_cost, joint))
                for threshold in (0.0, DEFAULT_IMPROVEMENT_THRESHOLD):
                    trade = optimize_tradeoff(constraints, tables, improvement_threshold=threshold)
                    result, z, new = reference_sweep(constraints, tables, (1,), threshold, (unit_cost, joint))
                    assert (trade.result, trade.chosen_moves, trade.chosen_new_docks) == (result, z, new), case
                trade = optimize_tradeoff(constraints, tables, improvement_threshold=0.0)
                exact = brute_force_tradeoff(dataclasses.replace(spec, tradeoff=(unit_cost, joint)))[3]
                assert trade.result.objective == exact, (case, unit_cost, joint)


class TestConstraints:
    def test_validation_errors(self):
        with pytest.raises(InfeasibleError):
            Constraints(2, 1, (0,), (1,), (0,), (5,)).validate(1)
        with pytest.raises(InfeasibleError):
            Constraints(0, 4, (1,), (0,), (2,), (1,)).validate(1)
        with pytest.raises(ValidationError):
            Constraints(0, 2, (1, 1), (0,), (0,), (2,)).validate(1)

    def test_baseline_outside_box_is_infeasible(self):
        with pytest.raises(InfeasibleError) as info:
            Constraints(0, 4, (1, 3), (0, 0), (2, 0), (3, 3)).validate(2)
        assert info.value.report["reason"] == "baseline capacity outside box bounds"

    @pytest.mark.parametrize("solver", ["greedy", "scaled", "tradeoff"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_moves", 2.5),
            ("max_moves", 2.0),
            ("max_moves", float("nan")),
            ("max_moves", float("inf")),
            ("max_moves", True),
            ("tradeoff", (1.0, 3)),
            ("tradeoff", (True, 3)),
            ("tradeoff", (1, 3.0)),
            ("tradeoff", (1, float("nan"))),
            ("tradeoff", (1,)),
        ],
    )
    def test_move_budgets_must_be_integers(self, solver, field, value):
        # every solver slices its move log by these budgets
        spec = random_instance(philox(5, 1), n_max=4, budget_max=10, surplus=2)
        constraints = dataclasses.replace(spec.constraints(), tradeoff=(1, 3) if solver == "tradeoff" else None)
        constraints = dataclasses.replace(constraints, **{field: value})
        run = {
            "greedy": optimize,
            "scaled": lambda c, t: optimize_scaled(c, t, PhasePlan.hybrid()),
            "tradeoff": optimize_tradeoff,
        }[solver]
        with pytest.raises(ValidationError):
            run(constraints, spec.tables())

    @pytest.mark.parametrize("solver", ["greedy", "capped", "scaled"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dock_budget", 12.5),
            ("dock_budget", 12.0),
            ("bike_budget", 10.0),
            ("bike_budget", True),
            ("baseline_docks", (5.0, 4)),
            ("baseline_bikes", (1, False)),
            ("lower", (0.0, 1)),
            ("upper", (7, 7.0)),
        ],
    )
    def test_budgets_and_bounds_must_be_integers(self, solver, field, value):
        # a float budget once ran uncapped but raised TypeError under a cap,
        # and a bool budget ran as 0 or 1
        spec = random_instance(philox(17, 3), n_max=4, budget_max=10, surplus=2)
        constraints = spec.constraints()
        assert (constraints.bike_budget, constraints.dock_budget) == (10, 12)
        assert (constraints.baseline_docks, constraints.baseline_bikes) == ((5, 4), (1, 0))
        assert (constraints.lower, constraints.upper) == ((0, 1), (7, 7))
        constraints = dataclasses.replace(constraints, max_moves=2 if solver == "capped" else None, **{field: value})
        run = optimize_scaled if solver == "scaled" else optimize
        args = (PhasePlan((2,)),) if solver == "scaled" else ()
        with pytest.raises(ValidationError):
            run(constraints, spec.tables(), *args)

