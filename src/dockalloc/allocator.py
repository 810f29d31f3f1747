"""Discrete gradient descent over dock and bike allocations.

The system state is a per-station split into open docks and bikes.  One
step of the descent moves a single dock between stations, carrying at most
one bike along, chosen to maximize the objective decrease.  Because each
station's cost satisfies the second-difference inequalities checked by
``udf.check_multimodular``, running the descent from the bike-optimal
current allocation yields, after any number of iterations ``t``, the best
allocation reachable by moving at most ``t`` docks, so a cap on moved docks
is enforced simply by capping iterations.

Budget inequalities are turned into equalities with an internal zero-cost
depot station that absorbs bike slack and holds not-yet-deployed dock
inventory; depot capacity changes never count toward the moved-dock bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleError, ValidationError
from .udf import CostSource, CountingSource, Number, ZeroCost

DEFAULT_IMPROVEMENT_THRESHOLD = 1e-11

KIND_RANK = {"o": 0, "e": 1, "E": 2, "O": 3}


@dataclass(frozen=True)
class Allocation:
    """Per-station split into open docks and bikes."""

    empty_docks: tuple[int, ...]
    bikes: tuple[int, ...]

    def __post_init__(self):
        if len(self.empty_docks) != len(self.bikes):
            raise ValidationError("empty_docks and bikes must have the same length")
        if any(v < 0 for v in self.empty_docks) or any(v < 0 for v in self.bikes):
            raise ValidationError("allocations must be non-negative")

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(d + b for d, b in zip(self.empty_docks, self.bikes))


def dock_move_distance(caps_a: Sequence[int], caps_b: Sequence[int]) -> int:
    """Total docks that differ between two capacity vectors; two allocations
    are reachable from each other in half this many dock moves."""
    if len(caps_a) != len(caps_b):
        raise ValidationError("capacity vectors must have the same length")
    return sum(abs(a - b) for a, b in zip(caps_a, caps_b))


@dataclass(frozen=True)
class DockMove:
    """One applied transformation: a dock leaves ``i`` for ``j``; ``h`` is
    the third station when a bike rides along separately."""

    kind: str  # "o" | "e" | "E" | "O"
    i: int
    j: int
    h: int | None
    delta: Number


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    move: DockMove
    objective_after: Number


@dataclass(frozen=True)
class Constraints:
    """Budgets, box bounds and operational limits for one optimization run.

    ``dock_budget`` is the total number of docks available (bikes included);
    ``max_moves`` bounds the number of docks moved away from the baseline
    (None = unbounded); ``tradeoff`` optionally trades moved docks against
    newly acquired ones under a joint budget: (unit_cost, joint_budget).
    """

    bike_budget: int
    dock_budget: int
    baseline_docks: tuple[int, ...]
    baseline_bikes: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    max_moves: int | None = None
    tradeoff: tuple[int, int] | None = None

    @property
    def baseline_capacities(self) -> tuple[int, ...]:
        return tuple(d + b for d, b in zip(self.baseline_docks, self.baseline_bikes))

    def validate(self, n: int) -> None:
        for name, vec in (
            ("baseline_docks", self.baseline_docks),
            ("baseline_bikes", self.baseline_bikes),
            ("lower", self.lower),
            ("upper", self.upper),
        ):
            if len(vec) != n:
                raise ValidationError(f"{name} has length {len(vec)}, expected {n}")
            if any(v < 0 for v in vec):
                raise ValidationError(f"{name} must be non-negative")
        if self.bike_budget < 0:
            raise ValidationError(f"bike budget must be non-negative, got {self.bike_budget}")
        if self.dock_budget < self.bike_budget:
            raise InfeasibleError(
                "dock budget below bike budget",
                dock_budget=self.dock_budget,
                bike_budget=self.bike_budget,
            )
        if any(l > u for l, u in zip(self.lower, self.upper)):
            bad = next(i for i, (l, u) in enumerate(zip(self.lower, self.upper)) if l > u)
            raise InfeasibleError("lower bound exceeds upper bound", station=bad)
        if sum(self.lower) > self.dock_budget or self.dock_budget > sum(self.upper):
            raise InfeasibleError(
                "dock budget outside the box-bound range",
                dock_budget=self.dock_budget,
                lower_total=sum(self.lower),
                upper_total=sum(self.upper),
            )
        caps = self.baseline_capacities
        for i, cap in enumerate(caps):
            if not self.lower[i] <= cap <= self.upper[i]:
                raise InfeasibleError(
                    "baseline capacity outside box bounds",
                    station=i,
                    capacity=cap,
                    lower=self.lower[i],
                    upper=self.upper[i],
                )
        if sum(caps) > self.dock_budget:
            raise InfeasibleError(
                "dock budget below current allocated capacity",
                dock_budget=self.dock_budget,
                current_total=sum(caps),
            )
        if sum(self.baseline_bikes) > self.bike_budget:
            raise InfeasibleError(
                "bike budget below current bike count",
                bike_budget=self.bike_budget,
                current_bikes=sum(self.baseline_bikes),
            )
        # an int and not a bool, as for PhasePlan strides: budgets slice move lists
        if self.max_moves is not None and (type(self.max_moves) is not int or self.max_moves < 0):
            raise ValidationError(f"max_moves must be a non-negative integer, got {self.max_moves}")
        if self.tradeoff is not None and not (
            len(self.tradeoff) == 2
            and all(type(v) is int for v in self.tradeoff)
            and self.tradeoff[0] >= 1
            and self.tradeoff[1] >= 0
        ):
            raise ValidationError(f"tradeoff must be integers (unit_cost >= 1, joint_budget >= 0), got {self.tradeoff}")


@dataclass(frozen=True)
class PhaseStats:
    """One stride of the descent that reached the chosen state: its moves,
    the bikes it placed or moved at its start, and its cost evaluations
    grouped by station capacity.  Under a cap the chosen moves are a prefix
    of one run that serves every move budget, and the evaluations count
    that whole run.  The surplus deployment is not a phase."""

    step: int
    iterations: int
    bike_moves: int
    evaluations_by_capacity: dict[int, int]


@dataclass(frozen=True)
class OptimizeResult:
    allocation: Allocation
    objective: Number
    initial_objective: Number
    log: tuple[LogEntry, ...]
    station_costs: tuple[Number, ...]
    depot_bikes: int
    deployed_docks: int
    phases: tuple[PhaseStats, ...] = ()


@dataclass(frozen=True)
class TradeoffResult:
    result: OptimizeResult
    chosen_moves: int
    chosen_new_docks: int


def bike_optimal(
    capacities: Sequence[int],
    bike_budget: int,
    tables: Sequence[CostSource],
) -> Allocation:
    """Place exactly ``bike_budget`` bikes over fixed station capacities.

    Starts from zero bikes and adds them one at a time where the marginal
    cost change is smallest; per-station convexity of the cost in the bike
    count makes this greedy exact.  Ties break toward the lowest station
    index for reproducibility.
    """
    n = len(capacities)
    if len(tables) != n:
        raise ValidationError(f"{len(tables)} tables for {n} capacities")
    if bike_budget < 0:
        raise ValidationError(f"bike budget must be non-negative, got {bike_budget}")
    if bike_budget > sum(capacities):
        raise InfeasibleError(
            "bike budget exceeds total capacity",
            bike_budget=bike_budget,
            total_capacity=sum(capacities),
        )
    bikes = [0] * n
    heap: list[tuple[Number, int]] = []
    for i, cap in enumerate(capacities):
        if cap >= 1:
            heapq.heappush(heap, (tables[i].cost(cap - 1, 1) - tables[i].cost(cap, 0), i))
    for _ in range(bike_budget):
        _, i = heapq.heappop(heap)
        bikes[i] += 1
        if bikes[i] < capacities[i]:
            cap = capacities[i]
            k = bikes[i]
            marginal = tables[i].cost(cap - k - 1, k + 1) - tables[i].cost(cap - k, k)
            heapq.heappush(heap, (marginal, i))
    docks = tuple(cap - k for cap, k in zip(capacities, bikes))
    return Allocation(docks, tuple(bikes))


# Per-station one-sided effects a move is assembled from.
_REMOVE_EMPTY = "RE"
_REMOVE_FULL = "RF"
_ADD_EMPTY = "AE"
_ADD_FULL = "AF"
_REMOVE_BIKE = "RB"
_ADD_BIKE = "AB"
_SIDES = (_REMOVE_EMPTY, _REMOVE_FULL, _ADD_EMPTY, _ADD_FULL, _REMOVE_BIKE, _ADD_BIKE)


def _shift(d: list[int], b: list[int], move: DockMove, a: int) -> None:
    """Apply ``move`` with stride ``a`` to the dock and bike lists in place."""
    i, j, h = move.i, move.j, move.h
    if move.kind == "o":
        d[i] -= a
        d[j] += a
    elif move.kind == "e":
        b[i] -= a
        b[j] += a
    elif move.kind == "E":
        d[i] -= a
        d[h] += a
        b[h] -= a
        b[j] += a
    elif move.kind == "O":
        b[i] -= a
        d[j] += a
        d[h] -= a
        b[h] += a
    else:
        raise AssertionError(move.kind)


class _Descent:
    """Best-move search over the four dock-move kinds via six side heaps.

    Each heap ranks stations by the cost change of one side effect (losing
    an empty dock, gaining a full one, ...).  Entries carry a version stamp;
    stale entries are discarded lazily when popped, and only stations
    touched by a move are re-pushed.
    """

    def __init__(
        self,
        sources: Sequence[CostSource],
        lower: Sequence[int],
        upper: Sequence[int],
        docks: Sequence[int],
        bikes: Sequence[int],
        *,
        stride: int = 1,
        threshold: float = DEFAULT_IMPROVEMENT_THRESHOLD,
    ):
        self.sources = list(sources)
        self.n = len(self.sources)
        self.lower = list(lower)
        self.upper = list(upper)
        self.d = list(docks)
        self.b = list(bikes)
        self.stride = stride
        self.threshold = threshold
        self.version = [0] * self.n
        self.heaps: dict[str, list[tuple[Number, int, int]]] = {k: [] for k in _SIDES}
        self.objective: Number = sum(self.sources[s].cost(self.d[s], self.b[s]) for s in range(self.n))
        for s in range(self.n):
            self._push_station(s)

    def _side_delta(self, s: int, side: str) -> Number | None:
        """Cost change of the side effect at station ``s``, or None if the
        state or box bounds forbid it."""
        a = self.stride
        d, b = self.d[s], self.b[s]
        cap = d + b
        cost = self.sources[s].cost
        if side == _REMOVE_EMPTY:
            if d < a or cap - a < self.lower[s]:
                return None
            return cost(d - a, b) - cost(d, b)
        if side == _REMOVE_FULL:
            if b < a or cap - a < self.lower[s]:
                return None
            return cost(d, b - a) - cost(d, b)
        if side == _ADD_EMPTY:
            if cap + a > self.upper[s]:
                return None
            return cost(d + a, b) - cost(d, b)
        if side == _ADD_FULL:
            if cap + a > self.upper[s]:
                return None
            return cost(d, b + a) - cost(d, b)
        if side == _REMOVE_BIKE:
            if b < a:
                return None
            return cost(d + a, b - a) - cost(d, b)
        if side == _ADD_BIKE:
            if d < a:
                return None
            return cost(d - a, b + a) - cost(d, b)
        raise AssertionError(side)

    def _push_station(self, s: int) -> None:
        v = self.version[s]
        for side in _SIDES:
            delta = self._side_delta(s, side)
            if delta is not None:
                heapq.heappush(self.heaps[side], (delta, s, v))

    def _top(self, side: str, k: int) -> list[tuple[Number, int]]:
        """The ``k`` best current entries of a side heap (lazy deletion)."""
        heap = self.heaps[side]
        found: list[tuple[Number, int, int]] = []
        while heap and len(found) < k:
            delta, s, v = heapq.heappop(heap)
            if v == self.version[s]:
                found.append((delta, s, v))
        for entry in found:
            heapq.heappush(heap, entry)
        return [(delta, s) for delta, s, _ in found]

    def _station_entry(self, s: int, side: str) -> list[tuple[Number, int]]:
        delta = self._side_delta(s, side)
        return [] if delta is None else [(delta, s)]

    def best_move(self, from_station: int | None = None) -> DockMove | None:
        """Most improving feasible move, or None.  Ties break on the lowest
        (kind, i, j, h).  ``from_station`` restricts the dock-losing side."""
        if from_station is None:
            remove_empty = self._top(_REMOVE_EMPTY, 3)
            remove_full = self._top(_REMOVE_FULL, 3)
        else:
            remove_empty = self._station_entry(from_station, _REMOVE_EMPTY)
            remove_full = self._station_entry(from_station, _REMOVE_FULL)
        add_empty = self._top(_ADD_EMPTY, 3)
        add_full = self._top(_ADD_FULL, 3)
        remove_bike = self._top(_REMOVE_BIKE, 3)
        add_bike = self._top(_ADD_BIKE, 3)

        best: tuple | None = None

        def consider(kind: str, i: int, j: int, h: int | None, delta: Number) -> None:
            nonlocal best
            key = (delta, KIND_RANK[kind], i, j, -1 if h is None else h)
            if best is None or key < best[0]:
                best = (key, DockMove(kind, i, j, h, delta))

        for di, i in remove_empty:
            for dj, j in add_empty:
                if i != j:
                    consider("o", i, j, None, di + dj)
            for dj, j in add_full:
                if i == j:
                    continue
                for dh, h in remove_bike:
                    if h != i and h != j:
                        consider("E", i, j, h, di + dj + dh)
        for di, i in remove_full:
            for dj, j in add_full:
                if i != j:
                    consider("e", i, j, None, di + dj)
            for dj, j in add_empty:
                if i == j:
                    continue
                for dh, h in add_bike:
                    if h != i and h != j:
                        consider("O", i, j, h, di + dj + dh)

        if best is None or not best[1].delta < -self.threshold:
            return None
        return best[1]

    def apply(self, move: DockMove) -> None:
        _shift(self.d, self.b, move, self.stride)
        i, j, h = move.i, move.j, move.h
        self.objective = self.objective + move.delta
        for s in {i, j} | ({h} if h is not None else set()):
            self.version[s] += 1
            self._push_station(s)

    def optimize_bikes_pairwise(self) -> int:
        """Move ``stride`` bikes between station pairs while it helps; used
        to restore bike-optimality on the stride lattice at phase starts."""
        count = 0
        while True:
            givers = self._top(_REMOVE_BIKE, 2)
            takers = self._top(_ADD_BIKE, 2)
            best = None
            for dg, g in givers:
                for dt, t in takers:
                    if g == t:
                        continue
                    key = (dg + dt, g, t)
                    if best is None or key < best:
                        best = key
            if best is None or not best[0] < -self.threshold:
                return count
            delta, g, t = best
            a = self.stride
            self.d[g] += a
            self.b[g] -= a
            self.d[t] -= a
            self.b[t] += a
            self.objective = self.objective + delta
            for s in (g, t):
                self.version[s] += 1
                self._push_station(s)
            count += 1

    def run(
        self, max_iterations: int | None = None, from_station: int | None = None
    ) -> list[tuple[DockMove, Number]]:
        """Apply best moves until stuck or capped; returns each move with the
        objective value right after it."""
        applied: list[tuple[DockMove, Number]] = []
        while max_iterations is None or len(applied) < max_iterations:
            move = self.best_move(from_station)
            if move is None:
                break
            self.apply(move)
            applied.append((move, self.objective))
        return applied


def _extended_problem(constraints: Constraints, tables: Sequence[CostSource]):
    """Append the depot: holds all slack bikes plus, later, any undeployed
    extra dock inventory; its capacity never enters the move distance."""
    n = len(tables)
    constraints.validate(n)
    bikes = constraints.bike_budget
    sources = list(tables) + [ZeroCost("depot")]
    lower = list(constraints.lower) + [bikes]
    upper = list(constraints.upper) + [bikes]
    caps = list(constraints.baseline_capacities) + [bikes]
    return sources, lower, upper, caps


def _run_additions(
    sources,
    lower,
    upper,
    docks,
    bikes,
    extra: int,
    *,
    threshold: float,
) -> tuple[Number, list[tuple[DockMove, Number]]]:
    """Deploy up to ``extra`` fresh docks out of the depot, best station
    first.  Each step is one greedy depot-outgoing move, which tracks the
    optimum as the dock budget grows one dock at a time.  Returns the
    objective at the start and each move with the objective after it.

    The depot's side deltas are all 0 and each of its moves stays feasible
    while stock remains, so the first ``D`` moves and their objectives are
    the same for any ``extra >= D``: one run serves every smaller stock by
    its prefix."""
    depot = len(sources) - 1
    docks = list(docks)
    upper = list(upper)
    docks[depot] += extra
    upper[depot] += extra
    engine = _Descent(sources, lower, upper, docks, bikes, threshold=threshold)
    start = engine.objective
    return start, engine.run(max_iterations=extra, from_station=depot)


def _stride_descent(sources, lower, upper, docks, bikes, threshold, max_budget, step=1):
    """The plain descent at stride ``step``: one run of ``max_budget //
    step`` moves of ``step`` docks each.  It starts by placing the bikes:
    ``bike_optimal`` at stride 1, pairwise stride-``step`` bike moves above.
    The state for budget ``t`` is the one after the run's first ``t //
    step`` moves (at stride 1, by prefix optimality, the best within ``t``
    moves), so one run serves every budget, and its phase stats count the
    evaluations of the whole run."""
    tally: dict[int, int] = {}
    counted = [CountingSource(s, tally) for s in sources]
    if step == 1:
        start = bike_optimal([d + b for d, b in zip(docks, bikes)], sum(bikes), counted)
        docks, bikes, bike_moves = start.empty_docks, start.bikes, sum(start.bikes)
    else:
        pre = _Descent(counted, lower, upper, docks, bikes, stride=step, threshold=threshold)
        bike_moves = pre.optimize_bikes_pairwise()
        docks, bikes = pre.d, pre.b
    engine = _Descent(counted, lower, upper, docks, bikes, stride=step, threshold=threshold)
    initial = engine.objective
    applied = engine.run(max_iterations=None if max_budget is None else max_budget // step)

    def reach(budget: int | None):
        moves = applied[: None if budget is None else budget // step]
        d, b = list(docks), list(bikes)
        for move, _ in moves:
            _shift(d, b, move, step)
        phase = PhaseStats(step, len(moves), bike_moves, dict(sorted(tally.items())))
        return d, b, moves, (phase,)

    return initial, reach


def _sweep(
    constraints: Constraints,
    tables: Sequence[CostSource],
    descend,
    threshold: float,
    tradeoff: tuple[int, int] | None = None,
) -> tuple[OptimizeResult, int | None, int]:
    """The one solver core: every public solver is this sweep.

    Each candidate buys ``new`` docks (only with ``tradeoff = (k, M)``,
    which leaves ``z = M - k*new`` moves; otherwise ``z`` is the move cap)
    and deploys ``deployed`` surplus docks.  Moved docks count twice and
    new or deployed ones once against the distance allowance ``2z + new``,
    so the descent gets the budget ``(2z + new - deployed) // 2``.  The
    state ``descend`` reaches for that budget then deploys the surplus from
    the depot, and the cheapest candidate wins, ties going to fewer new and
    then fewer deployed docks.  Without a cap there is one candidate: the
    uncapped descent, then all the surplus.  Returns the result with the
    chosen ``z`` and ``new``.

    The additions are prefix-optimal, so each distinct budget gets one
    depot run, stocked for the largest ``deployed`` among its candidates,
    and every candidate of that budget reads its objective off the run
    after its ``deployed``-th move.  Only the winner's state is rebuilt.

    ``descend(sources, lower, upper, docks, bikes, threshold, max_budget)``
    gets the extended problem, its baseline state and the largest budget
    any candidate asks for.  It returns the objective at its start state and
    ``reach(budget)``, which gives the docks, bikes, moves (each with the
    objective after it) and phase stats for a move budget (None: uncapped).
    The sweep calls ``reach`` once per distinct budget.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"improvement threshold must be finite and >= 0, got {threshold}")
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
    by_budget: dict[int | None, list[tuple[int, int | None, int]]] = {}
    if joint is None:
        by_budget[None] = [(0, None, extra)]
    else:
        for new in purchases:
            z = joint - unit_cost * new
            allowance = 2 * z + new
            for deployed in range(min(extra + new, headroom, allowance) + 1):
                by_budget.setdefault((allowance - deployed) // 2, []).append((new, z, deployed))

    bikes = list(constraints.baseline_bikes) + [constraints.bike_budget - sum(constraints.baseline_bikes)]
    docks = [c - b for c, b in zip(caps, bikes)]
    initial, reach = descend(sources, lower, upper, docks, bikes, threshold, joint)
    best = None
    for budget, group in by_budget.items():
        d, b, moves, phases = reach(budget)
        stock = max(deployed for _, _, deployed in group)
        start, additions = _run_additions(sources, lower, upper, d, b, stock, threshold=threshold)
        for new, z, deployed in group:
            added = min(deployed, len(additions))
            key = (additions[added - 1][1] if added else start, new, deployed)
            if best is None or key < best[0]:
                best = (key, z, new, d, b, moves, additions[:added], phases)

    _, z, new, docks, bikes, moves, additions, phases = best
    # replayed without the depot's stock: its dock count is not reported
    for move, _ in additions:
        _shift(docks, bikes, move, 1)
    station_costs = tuple(sources[s].cost(docks[s], bikes[s]) for s in range(n))
    result = OptimizeResult(
        allocation=Allocation(tuple(docks[:n]), tuple(bikes[:n])),
        objective=sum(station_costs),
        initial_objective=initial,
        log=tuple(LogEntry(it, move, value) for it, (move, value) in enumerate(moves + additions, start=1)),
        station_costs=station_costs,
        depot_bikes=bikes[n],
        deployed_docks=len(additions),
        phases=phases,
    )
    return result, z, new


def optimize(
    constraints: Constraints,
    tables: Sequence[CostSource],
    *,
    improvement_threshold: float = DEFAULT_IMPROVEMENT_THRESHOLD,
) -> OptimizeResult:
    """Minimize total cost under budgets, box bounds and the moved-dock cap.

    Starts from the bike-optimal placement on the baseline capacities and
    applies best dock-moves; with a cap of ``z`` moves the search stops
    after ``z`` iterations, which already yields the optimum among
    allocations within ``z`` moves of the baseline.  When the dock budget
    exceeds the currently allocated capacity, the surplus is deployed
    greedily out of the depot, each deployment consuming half a move of the
    operational budget.
    """
    return _sweep(constraints, tables, _stride_descent, improvement_threshold)[0]


def optimize_tradeoff(
    constraints: Constraints,
    tables: Sequence[CostSource],
    *,
    improvement_threshold: float = DEFAULT_IMPROVEMENT_THRESHOLD,
) -> TradeoffResult:
    """Jointly choose how many docks to move and how many new ones to buy.

    With unit cost ``k`` per new dock and a joint budget ``M``, buying
    ``new`` docks leaves ``M - k*new`` moves; each candidate count warm
    starts from the shared greedy move trajectory, then deploys purchases
    one best station at a time.  Candidates with the same move budget share
    one deployment run and each takes its prefix of it.  Returns the best
    candidate; ``constraints.max_moves`` plays no part.
    """
    if constraints.tradeoff is None:
        raise ValidationError("constraints.tradeoff must be set for optimize_tradeoff")
    result, z, new = _sweep(constraints, tables, _stride_descent, improvement_threshold, constraints.tradeoff)
    return TradeoffResult(result=result, chosen_moves=z, chosen_new_docks=new)


def enumerate_moves(
    sources: Sequence[CostSource],
    lower: Sequence[int],
    upper: Sequence[int],
    docks: Sequence[int],
    bikes: Sequence[int],
    *,
    stride: int = 1,
) -> list[DockMove]:
    """All feasible moves with their deltas, by direct O(n^3) enumeration.

    Reference implementation used to cross-check the heap-based search."""
    eng = _Descent(sources, lower, upper, docks, bikes, stride=stride, threshold=float("inf"))
    out: list[DockMove] = []
    n = len(sources)
    sides = {
        side: {s: eng._side_delta(s, side) for s in range(n)}
        for side in _SIDES
    }
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if sides[_REMOVE_EMPTY][i] is not None and sides[_ADD_EMPTY][j] is not None:
                out.append(DockMove("o", i, j, None, sides[_REMOVE_EMPTY][i] + sides[_ADD_EMPTY][j]))
            if sides[_REMOVE_FULL][i] is not None and sides[_ADD_FULL][j] is not None:
                out.append(DockMove("e", i, j, None, sides[_REMOVE_FULL][i] + sides[_ADD_FULL][j]))
            for h in range(n):
                if h in (i, j):
                    continue
                if (
                    sides[_REMOVE_EMPTY][i] is not None
                    and sides[_ADD_FULL][j] is not None
                    and sides[_REMOVE_BIKE][h] is not None
                ):
                    out.append(
                        DockMove("E", i, j, h, sides[_REMOVE_EMPTY][i] + sides[_ADD_FULL][j] + sides[_REMOVE_BIKE][h])
                    )
                if (
                    sides[_REMOVE_FULL][i] is not None
                    and sides[_ADD_EMPTY][j] is not None
                    and sides[_ADD_BIKE][h] is not None
                ):
                    out.append(
                        DockMove("O", i, j, h, sides[_REMOVE_FULL][i] + sides[_ADD_EMPTY][j] + sides[_ADD_BIKE][h])
                    )
    return out


def best_move(
    constraints: Constraints,
    tables: Sequence[CostSource],
    allocation: Allocation,
    *,
    improvement_threshold: float = DEFAULT_IMPROVEMENT_THRESHOLD,
) -> DockMove | None:
    """Best single dock-move from a bike-optimal allocation, or None.

    The depot is appended as in ``optimize``; indices in the returned move
    refer to the input stations, with ``len(tables)`` standing for the
    depot."""
    n = len(tables)
    sources, lower, upper, _ = _extended_problem(constraints, tables)
    docks = list(allocation.empty_docks)
    bikes = list(allocation.bikes)
    depot_bikes = constraints.bike_budget - sum(bikes)
    if depot_bikes < 0:
        raise ValidationError("allocation places more bikes than the budget")
    docks.append(constraints.bike_budget - depot_bikes)
    bikes.append(depot_bikes)
    engine = _Descent(sources, lower, upper, docks, bikes, threshold=improvement_threshold)
    return engine.best_move()
