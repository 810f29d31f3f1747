"""Self-contained verification suite behind the ``verify`` subcommand.

Each check pits the solver against an independent computation: exhaustive
enumeration, event-level simulation, or pinned reference instances.  The
report lists every check with details; any failed check is a violation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .allocator import optimize, optimize_tradeoff
from .errors import ValidationError
from .longrun import LongrunCost, stationary
from .oracle import (
    brute_force_optimum,
    brute_force_tradeoff,
    counterexample_fixtures,
    day_matrix_path,
    feasible_within_moves,
    posterior_replay_path,
    random_decreased_day,
    random_finite_profile,
    random_instance,
    simulate_cost,
)
from .demand import PoissonProfile
from .posterior import REBALANCING_MODES, RULES, censored_subsequence, decreased_capacity_impact
from .scaling import PhasePlan, optimize_scaled
from .udf import LazyDailyCost, check_multimodular, cost_table_from_finite, count_stockouts


def _rng(seed, stream) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _check_exchange_trap() -> dict:
    spec, extras = counterexample_fixtures()["exchange_trap"]
    tables = spec.tables()
    failures = []
    stuck = extras["stuck"]
    stuck_objective = sum(
        t.cost(d, b) for t, d, b in zip(tables, stuck.empty_docks, stuck.bikes)
    )
    if stuck_objective != extras["stuck_objective"]:
        failures.append(f"stalled allocation costs {stuck_objective}, expected {extras['stuck_objective']}")
    for neighbor in extras["exchange_neighbors"]:
        alloc = neighbor["allocation"]
        if sum(alloc.capacities) > spec.dock_budget:
            if neighbor["feasible"]:
                failures.append("neighbor marked feasible but breaks the dock budget")
            continue
        value = sum(t.cost(d, b) for t, d, b in zip(tables, alloc.empty_docks, alloc.bikes))
        if value < stuck_objective:
            failures.append(f"single exchange to {alloc} improves to {value}; descent should not stall")
    result = optimize(spec.constraints(), tables, improvement_threshold=0.0)
    if result.objective != extras["optimal_objective"]:
        failures.append(f"dock-move descent reached {result.objective}, expected {extras['optimal_objective']}")
    return {"name": "exchange_trap_fixture", "passed": not failures, "details": failures or "exact values reproduced"}


def _check_midpoint_gap() -> dict:
    spec, extras = counterexample_fixtures()["midpoint_gap"]
    failures = []
    z = spec.max_moves
    for caps in extras["feasible"]:
        if not feasible_within_moves(spec, caps, z):
            failures.append(f"{caps} should be reachable within {z} moves")
    for caps in extras["infeasible"]:
        if feasible_within_moves(spec, caps, z):
            failures.append(f"{caps} should NOT be reachable within {z} moves")
    return {"name": "midpoint_gap_fixture", "passed": not failures, "details": failures or "feasibility pattern holds"}


def _check_prefix_optimality(seed: int, instances: int) -> dict:
    failures = []
    checked = 0
    for case in range(instances):
        rng = _rng(seed, 1000 + case)
        spec = random_instance(rng)
        result = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
        exact = brute_force_optimum(spec)
        objectives = {0: result.initial_objective}
        running = objectives[0]
        for entry in result.log:
            running += entry.move.delta
            objectives[entry.iteration] = running
        for z, (_, best) in exact.items():
            mine = objectives.get(min(z, len(result.log)), result.objective)
            checked += 1
            if mine != best:
                failures.append(f"case {case}: {z} moves gives {mine}, enumeration gives {best}")
    return {
        "name": "prefix_optimality_vs_enumeration",
        "passed": not failures,
        "details": failures or f"{checked} (instance, move-cap) pairs match exactly",
    }


def _check_surplus_tradeoff(seed: int, instances: int) -> dict:
    failures = []
    checked = 0
    for case in range(instances):
        rng = _rng(seed, 7000 + case)
        surplus = int(rng.integers(1, 6))
        spec = random_instance(rng, n_max=4, budget_max=8, surplus=surplus)
        tables = spec.tables()
        exact = brute_force_optimum(spec)
        for z in range(6):
            capped = optimize(replace(spec.constraints(), max_moves=z), tables, improvement_threshold=0.0)
            best = exact[min(z, max(exact))][1]
            checked += 1
            if capped.objective != best:
                failures.append(f"case {case}: {z} moves with surplus {surplus} gives {capped.objective}, enumeration gives {best}")
        traded = replace(spec, tradeoff=(int(rng.integers(1, 4)), int(rng.integers(0, 8))))
        trade = optimize_tradeoff(traded.constraints(), tables, improvement_threshold=0.0)
        best = brute_force_tradeoff(traded)[3]
        checked += 1
        if trade.result.objective != best:
            failures.append(f"case {case}: trade-off {traded.tradeoff} gives {trade.result.objective}, enumeration gives {best}")
    return {
        "name": "surplus_tradeoff_vs_enumeration",
        "passed": not failures,
        "details": failures or f"{checked} (surplus instance, move cap or trade-off) pairs match exactly",
    }


def _check_solver_agreement(seed: int, instances: int) -> dict:
    failures = []
    for case in range(instances):
        rng = _rng(seed, 2000 + case)
        spec = random_instance(rng)
        greedy = optimize(spec.constraints(), spec.tables(), improvement_threshold=0.0)
        for plan in (PhasePlan.powers_of_two(spec.dock_budget), PhasePlan.hybrid()):
            scaled = optimize_scaled(spec.constraints(), spec.tables(), plan, improvement_threshold=0.0)
            if scaled.objective != greedy.objective:
                failures.append(
                    f"case {case} plan {plan.step_sizes}: {scaled.objective} != greedy {greedy.objective}"
                )
    capped = 0
    for case in range(instances):
        rng = _rng(seed, 2500 + case)
        spec = random_instance(rng, n_max=5, budget_max=12, surplus=int(rng.integers(0, 4)) * (case % 2))
        tables = spec.tables()
        plans = (
            PhasePlan.powers_of_two(spec.dock_budget),
            PhasePlan.hybrid(),
            PhasePlan.hybrid().truncate(4),
            PhasePlan((8, 4)),
            PhasePlan((4, 2)),
        )
        for z in range(6):
            constraints = replace(spec.constraints(), max_moves=z)
            greedy = optimize(constraints, tables, improvement_threshold=0.0)
            alone = {}
            for plan in plans:
                scaled = optimize_scaled(constraints, tables, plan, improvement_threshold=0.0)
                capped += 1
                last = plan.step_sizes[-1]
                if last not in alone:
                    alone[last] = optimize_scaled(constraints, tables, PhasePlan((last,)), improvement_threshold=0.0)
                if scaled != alone[last]:
                    failures.append(f"capped case {case} z={z} plan {plan.step_sizes}: differs from stride {last} alone")
                relocations = sum(entry.move.i != len(tables) for entry in scaled.log)
                if relocations > z // last:
                    failures.append(f"capped case {case} z={z} plan {plan.step_sizes}: {relocations} moves logged")
                if last == 1 and scaled.log != greedy.log:
                    failures.append(f"capped case {case} z={z} plan {plan.step_sizes}: log differs from greedy")
    return {
        "name": "scaled_solvers_match_greedy",
        "passed": not failures,
        "details": failures
        or f"{instances} instances agree across plans; {capped} capped plans equal their last stride alone, "
        "log at most z // last stride moves, and greedy's own when the last stride is 1",
    }


def _check_multimodularity(seed: int, instances: int) -> dict:
    failures = []
    for case in range(instances):
        rng = _rng(seed, 3000 + case)
        profile = random_finite_profile(rng, max_atoms=4, max_len=6)
        table = cost_table_from_finite(profile, capacity=int(rng.integers(2, 8)))
        violations = check_multimodular(table)
        if violations:
            failures.append(f"finite case {case}: {violations[0]}")
    for case in range(max(3, instances // 5)):
        rng = _rng(seed, 3500 + case)
        profile = PoissonProfile(
            station_id=f"p{case}",
            rental_rates=tuple(float(r) for r in rng.uniform(0, 0.3, 4)),
            return_rates=tuple(float(r) for r in rng.uniform(0, 0.3, 4)),
            minutes_per_interval=30.0,
        )
        table = LazyDailyCost(profile).materialize(int(rng.integers(3, 12)))
        violations = check_multimodular(table)
        if violations:
            failures.append(f"poisson case {case}: {violations[0]}")
    return {"name": "tabulated_costs_multimodular", "passed": not failures, "details": failures or "no violations"}


def _check_simulation_agreement(seed: int, cases: int, trials: int) -> dict:
    failures = []
    for case in range(cases):
        rng = _rng(seed, 4000 + case)
        intervals = int(rng.integers(1, 5))
        profile = PoissonProfile(
            station_id=f"sim{case}",
            rental_rates=tuple(float(r) for r in rng.uniform(0, 0.25, intervals)),
            return_rates=tuple(float(r) for r in rng.uniform(0, 0.25, intervals)),
            minutes_per_interval=30.0,
        )
        cap = int(rng.integers(0, 11))
        b = int(rng.integers(0, cap + 1))
        d = cap - b
        analytic = LazyDailyCost(profile).cost(d, b)
        mean, stderr = simulate_cost(profile, d, b, trials, seed=seed + case)
        if abs(analytic - mean) > 3 * stderr + 1e-9:
            failures.append(f"case {case}: analytic {analytic:.5f} vs simulated {mean:.5f} +/- {stderr:.5f}")
    return {
        "name": "transient_analysis_vs_simulation",
        "passed": not failures,
        "details": failures or f"{cases} cases within 3 standard errors",
    }


def _kernel_cases(seed: int) -> list[tuple[PoissonProfile, list[int]]]:
    """Random Poisson profiles with the capacities to check: ordinary ones,
    one sparse profile (rates up to 3e-6 per minute in all 48 intervals,
    a nearly decomposable day chain) and one interval with about 5,000
    expected arrivals."""
    def random_profile(name, rng, intervals, top):
        rates = [tuple(float(r) for r in rng.uniform(0, top, intervals)) for _ in range(2)]
        return PoissonProfile(name, *rates, minutes_per_interval=30.0)

    cases = []
    for case in range(4):
        rng = _rng(seed, 8000 + case)
        profile = random_profile(f"kernel{case}", rng, int(rng.integers(1, 9)), 0.3)
        cases.append((profile, [int(c) for c in rng.integers(0, 30, 3)]))
    rng = _rng(seed, 8100)
    cases.append((random_profile("sparse", rng, 48, 3e-6), [int(c) for c in rng.integers(1, 46, 3)]))
    rng = _rng(seed, 8200)
    rate = rng.uniform(4900, 5100) / 30.0
    share = float(rng.uniform(0.3, 0.7))
    heavy = PoissonProfile("heavy", (rate * share,), (rate * (1 - share),), minutes_per_interval=30.0)
    cases.append((heavy, [int(rng.integers(0, 12))]))
    return cases


def _check_kernel_vs_matrix_path(seed: int) -> dict:
    failures = []
    checked = 0
    for profile, capacities in _kernel_cases(seed):
        source = LongrunCost(profile)
        for capacity in capacities:
            cost, rho = day_matrix_path(profile, capacity)
            transition = source.daily.day_transition(capacity)
            cost_gap = np.max(np.abs(source.daily.cost_vector(capacity) - cost) / np.maximum(1.0, np.abs(cost)))
            rho_gap = np.max(np.abs(transition - rho))
            expected = float(stationary(rho)[0] @ cost)
            longrun_gap = abs(source.cost(capacity, 0) - expected) / expected
            checked += 1
            if max(cost_gap, rho_gap, longrun_gap) > 1e-12:
                failures.append(
                    f"{profile.station_id} capacity {capacity}: cost {cost_gap:.3g}, "
                    f"transition {rho_gap:.3g}, long-run {longrun_gap:.3g} from the matrix path"
                )
    return {
        "name": "kernel_vs_matrix_path",
        "passed": not failures,
        "details": failures or f"{checked} (profile, capacity) pairs within 1e-12 of the dense matrix chain",
    }


def _check_censoring_identity(seed: int, samples: int) -> dict:
    rng = _rng(seed, 5000)
    failures = 0
    for _ in range(samples):
        length = int(rng.integers(0, 15))
        events = tuple(int(x) for x in rng.choice([-1, 1], size=length))
        d = int(rng.integers(0, 5))
        b = int(rng.integers(0, 5))
        d2 = int(rng.integers(0, d + 1))
        b2 = int(rng.integers(0, b + 1))
        lhs = count_stockouts(events, d2, b2)[0] - count_stockouts(events, d, b)[0]
        rhs = count_stockouts(censored_subsequence(events, d, b), d2, b2)[0]
        if lhs != rhs:
            failures += 1
    return {
        "name": "censored_replay_identity",
        "passed": failures == 0,
        "details": f"{failures} mismatches over {samples} random draws",
    }


def _check_posterior_replay(seed: int, days: int, resamples: int) -> dict:
    failures = []
    for case in range(days):
        day, profile = random_decreased_day(_rng(seed, 6000 + case))
        for rule in RULES:
            for mode in REBALANCING_MODES:
                args = (day, profile, rule, seed + case, resamples, mode)
                fast, slow = decreased_capacity_impact(*args), posterior_replay_path(*args)
                if fast != slow:
                    failures.append(f"day {case} {rule}/{mode}: {fast} != replay {slow}")
    return {
        "name": "posterior_replay",
        "passed": not failures,
        "details": failures or f"{days} random days x {len(RULES) * len(REBALANCING_MODES)} columns equal the replay",
    }


def run_verification(seed: int = 0, instances: int = 25, trials: int = 20000) -> dict:
    if instances < 1 or trials < 1:
        raise ValidationError("instances and trials must be positive")
    checks = [
        _check_exchange_trap(),
        _check_midpoint_gap(),
        _check_prefix_optimality(seed, instances),
        _check_surplus_tradeoff(seed, instances),
        _check_solver_agreement(seed, max(5, instances // 3)),
        _check_multimodularity(seed, instances),
        _check_simulation_agreement(seed, cases=max(5, instances // 3), trials=trials),
        _check_kernel_vs_matrix_path(seed),
        _check_censoring_identity(seed, samples=2000),
        _check_posterior_replay(seed, days=60, resamples=50),
    ]
    return {
        "seed": seed,
        "rng": "philox",
        "checks": checks,
        "violations": sum(0 if c["passed"] else 1 for c in checks),
    }
