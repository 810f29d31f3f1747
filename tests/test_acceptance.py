"""Acceptance gate: one test per shipped guarantee, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from dockalloc.allocator import optimize
from dockalloc.demand import PoissonProfile
from dockalloc.longrun import LongrunCost
from dockalloc.oracle import (
    brute_force_optimum,
    counterexample_fixtures,
    feasible_within_moves,
    random_finite_profile,
    random_instance,
    simulate_cost,
    synthetic_scenario,
)
from dockalloc.posterior import censored_subsequence
from dockalloc.scaling import PhasePlan, optimize_scaled
from dockalloc.udf import (
    FiniteProfile,
    LazyDailyCost,
    check_multimodular,
    cost_table_from_finite,
    count_stockouts,
)

from conftest import philox


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


N_RANDOM_INSTANCES = 200


@lru_cache(maxsize=1)
def instance_pool():
    return tuple(random_instance(philox(20260809, case)) for case in range(N_RANDOM_INSTANCES))


@lru_cache(maxsize=1)
def greedy_results():
    out = []
    for spec in instance_pool():
        result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
        out.append(result)
    return tuple(out)


def test_criterion_1_reference_instance_exact_values():
    start = time.monotonic()
    spec, extras = counterexample_fixtures()["exchange_trap"]
    tables = {s.id: t for s, t in zip(spec.stations, spec.tables())}
    assert tables["i"].cost(0, 1) == Fraction(1, 2)
    assert tables["i"].cost(1, 0) == Fraction(1, 2)
    assert tables["j"].cost(1, 0) == 0
    assert tables["j"].cost(0, 0) == Fraction(1, 2)
    assert tables["k"].cost(1, 0) == 1
    assert tables["k"].cost(1, 1) == 0

    from dockalloc.allocator import bike_optimal

    start_alloc = bike_optimal((1, 1, 1), 1, spec.tables())
    bike_opt_value = sum(
        t.cost(d, b) for t, d, b in zip(spec.tables(), start_alloc.empty_docks, start_alloc.bikes)
    )
    assert bike_opt_value == Fraction(3, 2)
    result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
    assert result.objective == Fraction(1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"reference station costs and objectives exact (1 vs 3/2) in {elapsed:.3f}s")


def test_criterion_2_prefix_optimality_on_random_instances():
    start = time.monotonic()
    violations = 0
    pairs = 0
    for spec, result in zip(instance_pool(), greedy_results()):
        per_move = {0: result.initial_objective}
        acc = per_move[0]
        for entry in result.log:
            acc += entry.move.delta
            per_move[entry.iteration] = acc
        for z, (_, exact) in brute_force_optimum(spec).items():
            mine = per_move[min(z, len(result.log))]
            pairs += 1
            if mine != exact:
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 300.0
    report(
        2,
        f"{N_RANDOM_INSTANCES} instances / {pairs} move-cap prefixes match exhaustive optima exactly in {elapsed:.1f}s",
    )


def test_criterion_3_multimodularity_of_random_tables():
    finite_checked = 0
    for case in range(100):
        rng = philox(3, case)
        profile = random_finite_profile(rng, max_atoms=4, max_len=6)
        table = cost_table_from_finite(profile, int(rng.integers(2, 9)))
        assert check_multimodular(table, tol=1e-9) == []
        finite_checked += 1
    poisson_checked = 0
    for case in range(20):
        rng = philox(4, case)
        profile = PoissonProfile(
            f"p{case}",
            tuple(float(x) for x in rng.uniform(0, 0.3, 6)),
            tuple(float(x) for x in rng.uniform(0, 0.3, 6)),
        )
        table = LazyDailyCost(profile).materialize(int(rng.integers(5, 21)))
        assert check_multimodular(table, tol=1e-9) == []
        poisson_checked += 1
    report(3, f"{finite_checked} finite and {poisson_checked} Poisson tables pass all inequalities at 1e-9")


def test_criterion_4_poisson_cost_matches_simulation():
    cases = 0
    worst = 0.0
    for case in range(50):
        rng = philox(5, case)
        intervals = int(rng.integers(1, 6))
        profile = PoissonProfile(
            f"sim{case}",
            tuple(float(x) for x in rng.uniform(0, 0.25, intervals)),
            tuple(float(x) for x in rng.uniform(0, 0.25, intervals)),
        )
        cap = int(rng.integers(0, 11))
        b = int(rng.integers(0, cap + 1))
        d = cap - b
        analytic = LazyDailyCost(profile).cost(d, b)
        mean, stderr = simulate_cost(profile, d, b, 100_000, seed=1000 + case)
        gap = abs(analytic - mean)
        assert gap <= 3 * stderr + 1e-9, (case, analytic, mean, stderr)
        if stderr > 0:
            worst = max(worst, gap / stderr)
        cases += 1
    report(4, f"{cases} randomized day costs within 3 standard errors of 100k-trial simulation (worst {worst:.2f})")


def test_criterion_5_solver_family_agreement():
    mismatches = 0
    max_phase_ratio = 0.0
    for spec, greedy in zip(instance_pool(), greedy_results()):
        n_system = len(spec.stations) + 1  # includes the internal depot
        for plan in (PhasePlan.powers_of_two(spec.dock_budget), PhasePlan.hybrid()):
            scaled = optimize_scaled(spec.constraints(), spec.tables(), plan, improvement_threshold=0.0)
            if scaled.objective != greedy.objective:
                mismatches += 1
            for phase in scaled.phases:
                assert phase.iterations <= 5 * n_system, (phase.step, phase.iterations, n_system)
                max_phase_ratio = max(max_phase_ratio, phase.iterations / n_system)
    assert mismatches == 0
    report(
        5,
        f"greedy, power-of-two, and 8/4/1 objectives agree exactly on all {N_RANDOM_INSTANCES} instances; "
        f"max per-phase iterations {max_phase_ratio:.2f}n <= 5n",
    )


def test_criterion_6_longrun_structure():
    profile = PoissonProfile(
        "lr",
        (0.12, 0.03, 0.2, 0.05),
        (0.04, 0.18, 0.02, 0.15),
    )
    source = LongrunCost(profile)
    table = source.materialize(12)
    for s in range(13):
        values = {table.cost(s - b, b) for b in range(s + 1)}
        assert len(values) == 1  # capacity alone decides the cost
    assert check_multimodular(table, tol=1e-9) == []

    rentals_only = LongrunCost(FiniteProfile((((-1, -1, -1), 1.0),)))
    for cap in range(0, 11):
        for b in range(cap + 1):
            assert rentals_only.cost(cap - b, b) == pytest.approx(3.0, abs=1e-9)
    report(6, "long-run cost depends only on capacity, stays multimodular, and pins rentals-only demand at k")


def test_criterion_7_censored_replay_identity():
    rng = philox(7, 0)
    for _ in range(10_000):
        length = int(rng.integers(0, 16))
        events = tuple(int(x) for x in rng.choice([-1, 1], size=length))
        d = int(rng.integers(0, 6))
        b = int(rng.integers(0, 6))
        d_small = int(rng.integers(0, d + 1))
        b_small = int(rng.integers(0, b + 1))
        lhs = count_stockouts(events, d_small, b_small)[0] - count_stockouts(events, d, b)[0]
        rhs = count_stockouts(censored_subsequence(events, d, b), d_small, b_small)[0]
        assert lhs == rhs
    report(7, "10000 random (sequence, shrink) draws satisfy the censored-replay identity exactly")


def test_criterion_8_move_cap_breaks_midpoint_structure():
    spec, extras = counterexample_fixtures()["midpoint_gap"]
    z = spec.max_moves
    assert extras["baseline"] == spec.constraints().baseline_capacities
    for caps in extras["feasible"]:
        assert feasible_within_moves(spec, caps, z)
    for caps in extras["infeasible"]:
        assert not feasible_within_moves(spec, caps, z)
    # in running-total coordinates, the rounded-up midpoint of the two
    # feasible vectors is exactly the infeasible one
    a, b = extras["feasible"][0], extras["feasible"][1]
    cum_a = list(np.cumsum(a))
    cum_b = list(np.cumsum(b))
    up_cum = [-(-(x + y) // 2) for x, y in zip(cum_a, cum_b)]
    up = tuple(np.diff([0] + up_cum))
    assert list(up) == list(extras["infeasible"][0])
    report(8, "one-move feasibility pattern (midpoint infeasible between feasible pair) pinned")


def test_criterion_9_city_scale_scenario_diminishing_returns():
    start = time.monotonic()
    spec = synthetic_scenario(n_stations=50, seed=2026, max_moves=150)
    result = optimize(spec.constraints(), spec.tables())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert len(result.log) == 150
    deltas = [float(e.move.delta) for e in result.log]
    assert all(d < 0 for d in deltas)
    for earlier, later in zip(deltas, deltas[1:]):
        assert later >= earlier - 1e-9  # improvements never grow
    initial = float(result.initial_objective)
    report(
        9,
        f"50-station scenario: objective {initial:.1f} -> {float(result.objective):.1f} over 150 moves "
        f"with non-increasing gains in {elapsed:.1f}s",
    )
