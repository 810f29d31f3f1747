"""Independent verification tools: exhaustive search, event simulation, and
reference instances.

Everything here deliberately avoids the solver's machinery: the brute-force
optimum enumerates allocations directly, the simulator plays out arrival
streams event by event, and the fixtures pin down small instances whose
exact values are known.  The ``verify`` CLI subcommand drives these checks.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .allocator import Allocation, DockMove, dock_move_distance
from .demand import PoissonProfile
from .errors import ValidationError
from .instance import InstanceSpec, StationSpec
from .posterior import (
    ImpactEstimate,
    ObservedDay,
    _decreased_impact,
    rebalancing_adjustment,
)
from .udf import (
    CostSource,
    FiniteProfile,
    Number,
    bike_trajectory,
    count_stockouts,
)

SEARCH_SPACE_GUARD = 10_000_000
TAIL_TOL = 1e-10  # the kernel's jump-count tail cut, kept here on its own


def _best_bikes(caps: Sequence[int], bike_budget: int, tables: Sequence[CostSource]):
    """Exact cheapest placement of at most ``bike_budget`` bikes onto fixed
    capacities, by dynamic programming over stations (no convexity used)."""
    n = len(caps)
    budget = bike_budget
    value = [0] * (budget + 1)
    choice: list[list[int]] = []
    for i in range(n):
        row_choice = [0] * (budget + 1)
        new_value = [None] * (budget + 1)
        for beta in range(budget + 1):
            best = None
            best_b = 0
            for b in range(min(caps[i], beta) + 1):
                v = tables[i].cost(caps[i] - b, b) + value[beta - b]
                if best is None or v < best:
                    best = v
                    best_b = b
            new_value[beta] = best
            row_choice[beta] = best_b
        value = new_value
        choice.append(row_choice)
    bikes = [0] * n
    beta = budget
    for i in range(n - 1, -1, -1):
        bikes[i] = choice[i][beta]
        beta -= bikes[i]
    return value[budget], tuple(bikes)


def _capacity_vectors(lower, upper, total_max):
    """All capacity vectors within the box with sum at most ``total_max``."""
    n = len(lower)

    def rec(i, remaining):
        if i == n:
            yield ()
            return
        # prune: the rest must at least reach its lower bounds
        rest_lower = sum(lower[i + 1 :])
        for c in range(lower[i], min(upper[i], remaining - rest_lower) + 1):
            for tail in rec(i + 1, remaining - c):
                yield (c,) + tail

    yield from rec(0, total_max)


def _guard_search_space(spec: InstanceSpec) -> None:
    size = spec.bike_budget + 1
    for s in spec.stations:
        size *= s.upper - s.lower + 1
    if size > SEARCH_SPACE_GUARD:
        raise ValidationError(
            f"instance search space ~{size:.3g} exceeds the enumeration guard {SEARCH_SPACE_GUARD:.0g}"
        )


def brute_force_optimum(
    spec: InstanceSpec,
    z_values: Sequence[int] | None = None,
) -> dict[int, tuple[Allocation, Number]]:
    """Exact optimum for every moved-dock cap ``z`` by full enumeration.

    Enumerates all capacity vectors within the box with total at most the
    dock budget, prices each by the exact bike placement DP, and takes, for
    each ``z``, the best vector within dock-move distance ``2z`` of the
    baseline.
    """
    _guard_search_space(spec)
    constraints = spec.constraints()
    constraints.validate(len(spec.stations))
    tables = spec.tables()
    baseline = constraints.baseline_capacities

    entries = []  # (distance, value, caps)
    for caps in _capacity_vectors(constraints.lower, constraints.upper, constraints.dock_budget):
        value, _ = _best_bikes(caps, constraints.bike_budget, tables)
        entries.append((dock_move_distance(caps, baseline), value, caps))
    entries.sort(key=lambda e: e[0])

    if z_values is None:
        max_z = (entries[-1][0] + 1) // 2 if entries else 0
        z_values = range(max_z + 1)

    out: dict[int, tuple[Allocation, Number]] = {}
    for z in z_values:
        best = None
        for dist, value, caps in entries:
            if dist > 2 * z:
                break
            if best is None or value < best[0]:
                best = (value, caps)
        if best is None:
            raise ValidationError(f"no feasible allocation within {z} moves")
        value, caps = best
        _, bikes = _best_bikes(caps, constraints.bike_budget, tables)
        docks = tuple(c - b for c, b in zip(caps, bikes))
        out[z] = (Allocation(docks, bikes), value)
    return out


def brute_force_tradeoff(spec: InstanceSpec) -> tuple[int, int, Allocation, Number]:
    """Exhaustive optimum of the joint move/buy problem: for every feasible
    count of newly bought docks, enumerate allocations under the enlarged
    dock budget and the combined distance allowance."""
    if spec.tradeoff is None:
        raise ValidationError("instance has no tradeoff parameters")
    k, joint = spec.tradeoff
    base = spec.constraints()
    best = None
    for new in range(joint // k + 1):
        z = joint - k * new
        inner = replace(
            spec,
            dock_budget=spec.dock_budget + new,
            max_moves=None,
            tradeoff=None,
        )
        _guard_search_space(inner)
        constraints = inner.constraints()
        tables = inner.tables()
        baseline = constraints.baseline_capacities
        allowance = 2 * z + new
        for caps in _capacity_vectors(constraints.lower, constraints.upper, constraints.dock_budget):
            if dock_move_distance(caps, baseline) > allowance:
                continue
            value, bikes = _best_bikes(caps, constraints.bike_budget, tables)
            if best is None or value < best[0]:
                docks = tuple(c - b for c, b in zip(caps, bikes))
                best = (value, new, z, Allocation(docks, bikes))
    value, new, z, alloc = best
    return new, z, alloc, value


def stride_lattice(spec: InstanceSpec, g: int) -> list[tuple[int, Number]]:
    """(dock distance, objective) of every allocation whose capacities and
    bikes, the depot's included, differ from the baseline by multiples of
    ``g``: the reference for a plan that moves ``g`` docks at a time."""
    constraints = spec.constraints()
    baseline_caps = constraints.baseline_capacities
    baseline_bikes = constraints.baseline_bikes
    depot = (spec.bike_budget - sum(baseline_bikes)) % g
    tables = spec.tables()
    out = []
    for vec in _capacity_vectors(constraints.lower, constraints.upper, spec.dock_budget):
        if any((c - b) % g for c, b in zip(vec, baseline_caps)):
            continue
        lattices = [range(base % g, cap + 1, g) for base, cap in zip(baseline_bikes, vec)]
        for bikes in product(*lattices):
            if sum(bikes) > spec.bike_budget or (spec.bike_budget - sum(bikes)) % g != depot:
                continue
            value = sum(t.cost(c - b, b) for t, c, b in zip(tables, vec, bikes))
            out.append((dock_move_distance(vec, baseline_caps), value))
    return out


def enumerate_moves(
    sources: Sequence[CostSource],
    lower: Sequence[int],
    upper: Sequence[int],
    docks: Sequence[int],
    bikes: Sequence[int],
    *,
    stride: int = 1,
) -> list[DockMove]:
    """Every feasible dock move from a state with its cost change, by direct
    O(n^3) enumeration: the reference for the descent's heap search.

    Each move shifts ``stride`` docks (and bikes) at two or three distinct
    stations.  It is feasible when every station it touches keeps
    non-negative docks and bikes and a capacity within its bounds, and its
    change sums the stations' cost changes in i, j, h order."""
    a, n = stride, len(sources)
    out: list[DockMove] = []

    def change(s: int, dd: int, db: int) -> Number | None:
        d, b = docks[s] + dd, bikes[s] + db
        if d < 0 or b < 0 or not lower[s] <= d + b <= upper[s]:
            return None
        return sources[s].cost(d, b) - sources[s].cost(docks[s], bikes[s])

    def add(kind: str, i: int, j: int, h: int | None, *shifts: tuple[int, int, int]) -> None:
        deltas = [change(*shift) for shift in shifts]
        if not any(delta is None for delta in deltas):
            out.append(DockMove(kind, i, j, h, sum(deltas[1:], deltas[0])))

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            add("o", i, j, None, (i, -a, 0), (j, a, 0))  # an empty dock moves
            add("e", i, j, None, (i, 0, -a), (j, 0, a))  # a dock moves with its bike
            for h in range(n):
                if h not in (i, j):
                    add("E", i, j, h, (i, -a, 0), (j, 0, a), (h, a, -a))  # h's bike fills the dock at j
                    add("O", i, j, h, (i, 0, -a), (j, a, 0), (h, -a, a))  # i's bike goes to h
    return out


def expected_cost_finite(profile: FiniteProfile, d: int, b: int) -> Number:
    """Probability-weighted stockout count over the profile's sequences, one
    ``count_stockouts`` replay per atom: the reference for finite cost
    tables. Exact when the probabilities are ``Fraction``s (the
    per-sequence counts are integers)."""
    total = 0
    for events, p in profile.atoms:
        if p == 0:
            continue
        total += p * count_stockouts(events, d, b)
    return total


def simulate_cost(
    profile: PoissonProfile,
    d: int,
    b: int,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the daily cost: sample the merged rental and
    return streams interval by interval and count failed arrivals.

    Uses the counter-based Philox generator so runs are reproducible from
    the seed alone.  Returns (mean, standard error).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if d < 0 or b < 0:
        raise ValidationError(f"negative state d={d}, b={b}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cap = d + b
    minutes = profile.minutes_per_interval
    bikes = np.full(trials, b, dtype=np.int64)
    misses = np.zeros(trials, dtype=np.int64)
    for mu, lam in zip(profile.rental_rates, profile.return_rates):
        rem_rent = rng.poisson(mu * minutes, trials)
        rem_ret = rng.poisson(lam * minutes, trials)
        while True:
            total = rem_rent + rem_ret
            active = total > 0
            if not active.any():
                break
            u = rng.random(trials)
            # the next event is a rental with probability rem_rent / total
            is_rent = active & (u * total < rem_rent)
            is_ret = active & ~is_rent
            misses += (is_rent & (bikes == 0)) + (is_ret & (bikes == cap))
            bikes -= is_rent & (bikes > 0)
            bikes += is_ret & (bikes < cap)
            rem_rent -= is_rent
            rem_ret -= is_ret
    mean = float(misses.mean())
    if trials == 1:
        return mean, 0.0
    stderr = float(misses.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def _poisson_weights(mean: float) -> tuple[list[float], list[float]]:
    """Poisson pmf at 0, 1, ... jumps, each from its closed form
    ``exp(k log(mean) - mean - lgamma(k + 1))``, and the tail mass
    ``1 - cdf`` past each, up to the first count whose tail is at most
    ``TAIL_TOL``."""
    pmfs, tails, cdf = [], [], 0.0
    while not tails or tails[-1] > TAIL_TOL:
        k = len(pmfs)
        pmfs.append(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)))
        cdf += pmfs[-1]
        tails.append(1.0 - cdf)
    return pmfs, tails


def day_matrix_path(profile: PoissonProfile, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected daily events per start count and the end-of-day transition
    by the dense matrix chain: per interval, the uniformized jump matrix's
    powers summed with ``_poisson_weights`` into the transition (rows
    renormalized over the kept jumps) and the occupancy integral, then
    accumulated backward.  The reference for both outputs of
    ``LazyDailyCost``; it shares none of the kernel's weights or cuts."""
    m = capacity + 1
    v, rho = np.zeros(m), np.eye(m)
    for mu, lam in reversed(list(zip(profile.rental_rates, profile.return_rates))):
        rate = mu + lam
        if rate == 0:
            continue
        step = np.zeros((m, m))
        for y in range(m):
            step[y, min(y + 1, capacity)] += lam / rate
            step[y, max(y - 1, 0)] += mu / rate
        transition, occupancy, power = np.zeros((m, m)), np.zeros((m, m)), np.eye(m)
        pmfs, tails = _poisson_weights(rate * profile.minutes_per_interval)
        for pmf, tail in zip(pmfs, tails):
            transition += pmf * power
            occupancy += (tail / rate) * power
            power = power @ step
        transition /= transition.sum(axis=1, keepdims=True)
        misses = occupancy[:, 0] * mu + occupancy[:, capacity] * lam
        v, rho = misses + transition @ v, transition @ rho
    return v, rho


def posterior_replay_path(
    day: ObservedDay,
    profile: PoissonProfile | None = None,
    rule: str = "same_bikes",
    seed: int = 0,
    resamples: int = 1000,
    rebalancing: str = "none",
) -> ImpactEstimate:
    """``decreased_capacity_impact`` by replaying every resample event by
    event: the filled day is rebuilt with one scalar Poisson draw per
    censored period and counted by ``count_stockouts`` under both
    configurations.  The reference for the posterior's segment tables."""
    return _decreased_impact(day, profile, rule, seed, resamples, rebalancing, _replay_each_resample)


def _replay_each_resample(events, exempt, configs, spots, lams, rng, resamples) -> np.ndarray:
    diffs = np.empty(resamples)
    for r in range(resamples):
        filled: list[int] = []
        mask: list[bool] = []
        cursor = 0
        for (pos, _, _, kind), lam in zip(spots, lams):
            filled.extend(events[cursor:pos])
            mask.extend(exempt[cursor:pos])
            count = int(rng.poisson(lam))
            filled.extend([1 if kind == "full" else -1] * count)
            mask.extend([False] * count)
            cursor = pos
        filled.extend(events[cursor:])
        mask.extend(exempt[cursor:])
        after, before = (count_stockouts(filled, c - b, b, mask) for c, b in configs)
        diffs[r] = after - before
    return diffs


def random_decreased_day(rng: np.random.Generator, max_capacity: int = 8, max_events: int = 14):
    """A random day after a capacity cut and a 3-interval profile to fill
    it: random events with tied timestamps, crew moves among them, and up
    to three full/empty periods where the crew-spliced trajectory reaches
    those states.  Returns ``(day, profile)``."""
    after = int(rng.integers(0, max_capacity + 1))
    bikes = int(rng.integers(0, after + 1))
    n = int(rng.integers(0, max_events + 1))
    events = tuple(int(x) for x in rng.choice([-1, 1], size=n))
    stamps = tuple(float(t) for t in np.sort(rng.integers(0, 20, n)))
    crews = tuple(sorted((float(rng.integers(0, 20)), int(rng.integers(-3, 4))) for _ in range(rng.integers(0, 3))))
    day = ObservedDay("r", after + int(rng.integers(0, 5)), after, bikes, events, stamps, rebalancing_events=crews)
    states = bike_trajectory(rebalancing_adjustment(day, "optimistic")[0], after - bikes, bikes)
    reached = [q for q, x in enumerate(states) if x in (0, after)]
    chosen = np.sort(rng.choice(reached, size=min(len(reached), int(rng.integers(0, 4))), replace=False))
    full, empty = [], []
    for interval, q in enumerate(chosen):
        kind = full if states[q] == after and (states[q] != 0 or rng.random() < 0.5) else empty
        kind.append((interval, float(rng.integers(0, 31))))
    profile = PoissonProfile(
        station_id="r",
        rental_rates=tuple(float(r) for r in rng.uniform(0, 0.4, 3) * (rng.random(3) < 0.8)),
        return_rates=tuple(float(r) for r in rng.uniform(0, 0.4, 3) * (rng.random(3) < 0.8)),
        minutes_per_interval=30.0,
    )
    return replace(day, full_periods=tuple(full), empty_periods=tuple(empty)), profile


def exchange_trap_instance() -> tuple[InstanceSpec, dict]:
    """Three stations where single-exchange descent from the bike-optimal
    baseline stalls above the true optimum, so dock-moves (which also carry
    a bike) are genuinely needed.  Extras name the relevant allocations."""
    half = Fraction(1, 2)
    stations = (
        StationSpec("i", FiniteProfile((((-1,), half), ((1, -1), half))), 0, 3, 0, 1),
        StationSpec("j", FiniteProfile((((1,), half),)), 0, 3, 1, 0),
        StationSpec("k", FiniteProfile((((1, -1, -1), Fraction(1)),)), 0, 3, 1, 0),
    )
    spec = InstanceSpec(stations=stations, bike_budget=1, dock_budget=3)
    extras = {
        "stuck": Allocation((0, 1, 1), (1, 0, 0)),
        "optimal": Allocation((1, 0, 1), (0, 0, 1)),
        "stuck_objective": Fraction(3, 2),
        "optimal_objective": Fraction(1),
        # Single coordinate exchanges from the stuck allocation: one more
        # empty dock at i (breaks the dock budget), the bike coordinate
        # shifted i->k, or a dock coordinate shifted j->i.  None improves.
        "exchange_neighbors": [
            {"allocation": Allocation((1, 1, 1), (1, 0, 0)), "feasible": False},
            {"allocation": Allocation((0, 1, 1), (0, 0, 1)), "feasible": True},
            {"allocation": Allocation((1, 0, 1), (1, 0, 0)), "feasible": True},
        ],
    }
    return spec, extras


def midpoint_gap_instance() -> tuple[InstanceSpec, dict]:
    """Four stations and a one-move cap: two feasible allocations whose
    componentwise midpoints include an infeasible one, so the constrained
    feasible set has no discrete midpoint structure."""
    empty = FiniteProfile(())
    stations = tuple(
        StationSpec(f"s{i}", empty, 0, 2, d, 0) for i, d in enumerate((0, 1, 0, 1))
    )
    spec = InstanceSpec(stations=stations, bike_budget=0, dock_budget=2, max_moves=1)
    extras = {
        "baseline": (0, 1, 0, 1),
        "feasible": [(1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)],
        "infeasible": [(1, 0, 1, 0)],
    }
    return spec, extras


def counterexample_fixtures() -> dict[str, tuple[InstanceSpec, dict]]:
    return {
        "exchange_trap": exchange_trap_instance(),
        "midpoint_gap": midpoint_gap_instance(),
    }


def feasible_within_moves(spec: InstanceSpec, caps: Sequence[int], z: int) -> bool:
    """Whether a capacity vector is reachable within ``z`` dock moves and
    respects budgets and box bounds."""
    constraints = spec.constraints()
    if sum(caps) > constraints.dock_budget:
        return False
    if any(not l <= c <= u for l, c, u in zip(constraints.lower, caps, constraints.upper)):
        return False
    return dock_move_distance(caps, constraints.baseline_capacities) <= 2 * z


def random_finite_profile(rng: np.random.Generator, max_atoms: int = 3, max_len: int = 5, denom: int = 8) -> FiniteProfile:
    """Random finite profile with dyadic probabilities, so every expected
    cost is exactly representable in binary floating point."""
    remaining = denom
    atoms = []
    for _ in range(int(rng.integers(0, max_atoms + 1))):
        if remaining == 0:
            break
        num = int(rng.integers(1, remaining + 1))
        remaining -= num
        length = int(rng.integers(1, max_len + 1))
        events = tuple(int(x) for x in rng.choice([-1, 1], size=length))
        atoms.append((events, num / denom))
    return FiniteProfile(tuple(atoms))


def random_instance(
    rng: np.random.Generator,
    n_max: int = 4,
    budget_max: int = 10,
    max_atoms: int = 3,
    max_len: int = 5,
    surplus: int = 0,
) -> InstanceSpec:
    """Small random instance with dyadic finite profiles and random box
    bounds.  The baseline uses the whole dock budget but ``surplus`` spare
    docks, clipped to what the upper bounds can take."""
    n = int(rng.integers(2, n_max + 1))
    dock_budget = int(rng.integers(n, budget_max + 1))
    bike_budget = int(rng.integers(0, dock_budget + 1))
    caps = rng.multinomial(dock_budget, [1.0 / n] * n)
    stations = []
    bikes_left = int(rng.integers(0, bike_budget + 1))
    for i in range(n):
        cap = int(caps[i])
        lower = int(rng.integers(0, cap + 1))
        upper = cap + int(rng.integers(0, 4))
        b = min(bikes_left, int(rng.integers(0, cap + 1)))
        bikes_left -= b
        stations.append(
            StationSpec(
                id=f"s{i}",
                profile=random_finite_profile(rng, max_atoms, max_len),
                lower=lower,
                upper=upper,
                baseline_docks=cap - b,
                baseline_bikes=b,
            )
        )
    spare = min(surplus, sum(s.upper for s in stations) - dock_budget)
    return InstanceSpec(tuple(stations), bike_budget, dock_budget + spare)


def synthetic_scenario(n_stations: int = 50, seed: int = 2026, max_moves: int = 150) -> InstanceSpec:
    """Seeded city-scale scenario with commuter-shaped Poisson demand.

    Stations lean toward morning rentals, morning returns, or balanced
    traffic; capacities and fill levels vary, and the dock budget equals the
    allocated total so the run is a pure reallocation.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    intervals = 48
    hours = (np.arange(intervals) + 0.5) * 0.5

    def bump(center, width):
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    stations = []
    for i in range(n_stations):
        kind = i % 3
        base = rng.uniform(0.01, 0.05)
        peak = rng.uniform(0.1, 0.35)
        if kind == 0:  # residential: rentals out in the morning, returns back at night
            rentals = base + peak * bump(8.5, 1.5)
            returns = base + peak * bump(18.0, 2.0)
        elif kind == 1:  # office: the mirror image
            rentals = base + peak * bump(18.0, 2.0)
            returns = base + peak * bump(8.5, 1.5)
        else:  # mixed traffic
            rentals = base + peak * 0.5 * (bump(12.0, 4.0))
            returns = base + peak * 0.5 * (bump(13.0, 4.0))
        cap = int(rng.integers(15, 36))
        bikes = int(round(cap * rng.uniform(0.25, 0.75)))
        stations.append(
            StationSpec(
                id=f"st{i:03d}",
                profile=PoissonProfile(
                    station_id=f"st{i:03d}",
                    rental_rates=tuple(float(r) for r in rentals),
                    return_rates=tuple(float(r) for r in returns),
                    minutes_per_interval=30.0,
                    start_hour=0.0,
                ),
                lower=8,
                upper=45,
                baseline_docks=cap - bikes,
                baseline_bikes=bikes,
            )
        )
    dock_budget = sum(s.baseline_docks + s.baseline_bikes for s in stations)
    bike_budget = sum(s.baseline_bikes for s in stations)
    return InstanceSpec(tuple(stations), bike_budget, dock_budget, max_moves=max_moves)
