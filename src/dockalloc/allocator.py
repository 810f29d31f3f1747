"""Discrete gradient descent over dock and bike allocations.

The system state is a per-station split into open docks and bikes.  One
step of the descent moves a single dock between stations, carrying at most
one bike along, chosen to maximize the objective decrease.  Because each
station's cost satisfies the second-difference inequalities checked by
``udf.check_multimodular``, running the descent from the bike-optimal
current allocation yields, after any number of iterations ``t``, the best
allocation reachable by moving at most ``t`` docks, so a cap on moved docks
is enforced simply by capping iterations.

Every move is the sum of per-station side effects (an empty dock lost, a
full one gained, a bike handed over, ...).  ``_KINDS`` defines the four
moves once as those sides; the search, its state updates and the log
replays all read that table.

Budget inequalities are turned into equalities with an internal zero-cost
depot station that absorbs bike slack and holds not-yet-deployed dock
inventory; depot capacity changes never count toward the moved-dock bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import InfeasibleError, ValidationError
from .udf import CostSource, CountingSource, Number, ZeroCost

DEFAULT_IMPROVEMENT_THRESHOLD = 1e-11

# The six per-station side effects a move is the sum of, as (change in
# open docks, change in bikes) per unit of stride.
_SIDES = _LOSE_EMPTY, _LOSE_FULL, _GAIN_EMPTY, _GAIN_FULL, _GIVE_BIKE, _TAKE_BIKE = (
    (-1, 0), (0, -1), (1, 0), (0, 1), (1, -1), (-1, 1)
)
# The four dock moves: their sides at i, j and h, in tie-break rank order.
_KINDS = {
    "o": (_LOSE_EMPTY, _GAIN_EMPTY),  # an empty dock moves from i to j
    "e": (_LOSE_FULL, _GAIN_FULL),  # a dock moves from i to j with its bike
    "E": (_LOSE_EMPTY, _GAIN_FULL, _GIVE_BIKE),  # an empty dock leaves i; h's bike fills it at j
    "O": (_LOSE_FULL, _GAIN_EMPTY, _TAKE_BIKE),  # a full dock leaves i; its bike goes to h
}
KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


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
        # counts are ints and not bools (nor floats or numpy integers), as
        # for PhasePlan strides: the descent moves whole docks and bikes
        for name, vec in (
            ("baseline_docks", self.baseline_docks),
            ("baseline_bikes", self.baseline_bikes),
            ("lower", self.lower),
            ("upper", self.upper),
        ):
            if len(vec) != n:
                raise ValidationError(f"{name} has length {len(vec)}, expected {n}")
            if any(type(v) is not int for v in vec):
                raise ValidationError(f"{name} must hold integers, got {vec}")
            if any(v < 0 for v in vec):
                raise ValidationError(f"{name} must be non-negative")
        for name, budget in (("bike budget", self.bike_budget), ("dock budget", self.dock_budget)):
            if type(budget) is not int:
                raise ValidationError(f"{name} must be an integer, got {budget!r}")
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
        # budgets slice move lists
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


def _shift(d: list[int], b: list[int], stations, sides, a: int) -> None:
    """Apply each side effect, ``a`` units of it, at its station in place;
    ``zip`` drops the unused ``h`` of an o or e move."""
    for s, (dd, db) in zip(stations, sides):
        d[s] += a * dd
        b[s] += a * db


def _replay(d: list[int], b: list[int], moves, a: int) -> None:
    """Apply each logged ``(move, objective)`` at stride ``a`` in place."""
    for move, _ in moves:
        _shift(d, b, (move.i, move.j, move.h), _KINDS[move.kind], a)


class _Descent:
    """Best-move search over the four dock-move kinds via six side heaps.

    A move is the sum of its per-station side effects, read from
    ``_KINDS``.  Each side heap ranks stations by the cost change of one
    side effect (losing an empty dock, gaining a full one, ...), so a
    kind's best move pairs a few top entries of its sides' heaps.  Entries
    carry a version stamp; stale entries are discarded lazily when popped,
    and only stations touched by a move are re-priced.
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
        self.steps = [(side, stride * side[0], stride * side[1]) for side in _SIDES]
        self.threshold = threshold
        self.version = [0] * self.n
        self.heaps: dict[tuple[int, int], list[tuple[Number, int, int]]] = {side: [] for side in _SIDES}
        self.sides: list[dict[tuple[int, int], Number]] = [{} for _ in range(self.n)]
        self.objective: Number = sum(self._price(s) for s in range(self.n))

    def _price(self, s: int) -> Number:
        """Price every side effect station ``s`` allows and push it; returns
        the station's current cost.  A side is allowed when it leaves the
        state non-negative and the capacity within the box bounds.  That
        presumes the current capacity is within them, which holds on every
        run: ``Constraints.validate`` checks it at the baseline, and no
        allowed side leaves the bounds."""
        d, b, lower, upper, v = self.d[s], self.b[s], self.lower[s], self.upper[s], self.version[s]
        cost = self.sources[s].cost
        here = cost(d, b)
        priced = self.sides[s] = {}
        for side, dd, db in self.steps:
            nd, nb = d + dd, b + db
            if nd >= 0 and nb >= 0 and lower <= nd + nb <= upper:
                priced[side] = delta = cost(nd, nb) - here
                heapq.heappush(self.heaps[side], (delta, s, v))
        return here

    def _top(self, side: tuple[int, int], k: int) -> list[tuple[Number, int]]:
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

    def best_move(self, from_station: int | None = None) -> DockMove | None:
        """Most improving feasible move, or None.  Ties break on the lowest
        (kind, i, j, h).  ``from_station`` restricts the dock-losing side.

        A move's stations are distinct, so each of its three roles needs
        only its side's top 3 stations.  The key is (delta, rank, i, j) or,
        with a third station, (delta, rank, i, j, h), the delta summed in
        that station order."""
        tops = {}
        for side in _SIDES:
            if from_station is not None and sum(side) < 0:  # a dock-losing side
                own = self.sides[from_station]
                tops[side] = [(own[side], from_station)] if side in own else []
            else:
                tops[side] = self._top(side, 3)
        best = None
        for rank, (kind, sides) in enumerate(_KINDS.items()):
            firsts, seconds, *third = [tops[side] for side in sides]
            for di, i in firsts:
                for dj, j in seconds:
                    if i == j:
                        continue
                    if not third:
                        key = (di + dj, rank, i, j)
                        if best is None or key < best[0]:
                            best = (key, kind)
                        continue
                    for dh, h in third[0]:
                        if h != i and h != j:
                            key = (di + dj + dh, rank, i, j, h)
                            if best is None or key < best[0]:
                                best = (key, kind)
        if best is None or not best[0][0] < -self.threshold:
            return None
        (delta, _, i, j, *h), kind = best
        return DockMove(kind, i, j, h[0] if h else None, delta)

    def _step(self, stations, sides, delta: Number) -> None:
        _shift(self.d, self.b, stations, sides, self.stride)
        self.objective = self.objective + delta
        for s, _ in zip(stations, sides):
            self.version[s] += 1
            self._price(s)

    def apply(self, move: DockMove) -> None:
        self._step((move.i, move.j, move.h), _KINDS[move.kind], move.delta)

    def optimize_bikes_pairwise(self) -> int:
        """Move ``stride`` bikes between station pairs while it helps; used
        to restore bike-optimality on the stride lattice at phase starts."""
        count = 0
        while True:
            givers, takers = self._top(_GIVE_BIKE, 2), self._top(_TAKE_BIKE, 2)
            pairs = [(dg + dt, g, t) for dg, g in givers for dt, t in takers if g != t]
            if not pairs or not min(pairs)[0] < -self.threshold:
                return count
            delta, g, t = min(pairs)
            self._step((g, t), (_GIVE_BIKE, _TAKE_BIKE), delta)
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


def as_is_objective(constraints: Constraints, tables: Sequence[CostSource]) -> Number:
    """The objective at the baseline docks and bikes (the as-is state),
    summed as the solvers sum theirs.  Every solver reports the objective
    at the bike-optimal placement on the baseline capacities as
    ``initial_objective``."""
    bikes = constraints.baseline_bikes
    return sum(table.cost(c - b, b) for table, c, b in zip(tables, constraints.baseline_capacities, bikes))


def _bike_optimal_objective(sources, capacities, bike_budget) -> Number:
    """The objective at the bike-optimal placement on ``capacities``,
    summed as the descent sums it."""
    start = bike_optimal(capacities, bike_budget, sources)
    return sum(source.cost(d, b) for source, d, b in zip(sources, start.empty_docks, start.bikes))


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


def _stride_descent(sources, lower, upper, docks, bikes, threshold, max_budget, step):
    """The plain descent at stride ``step``: one run of ``max_budget //
    step`` moves of ``step`` docks each.  It starts by placing the bikes:
    ``bike_optimal`` at stride 1, pairwise stride-``step`` bike moves above.
    Returns the objective at that start, the start's docks and bikes, each
    move with the objective after it, and the run's phase stats.  The state
    for budget ``t`` is the start after the run's first ``t // step`` moves
    (at stride 1, by prefix optimality, the best within ``t`` moves), so one
    run serves every budget, and its stats count the whole run's
    evaluations."""
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
    phase = PhaseStats(step, len(applied), bike_moves, dict(sorted(tally.items())))
    return initial, list(docks), list(bikes), applied, phase


def _sweep(
    constraints: Constraints,
    tables: Sequence[CostSource],
    strides: tuple[int, ...],
    threshold: float,
    tradeoff: tuple[int, int] | None = None,
) -> tuple[OptimizeResult, int | None, int]:
    """The one solver core: every public solver is this sweep.

    Each candidate buys ``new`` docks (only with ``tradeoff = (k, M)``,
    which leaves ``z = M - k*new`` moves; otherwise ``z`` is the move cap)
    and deploys ``deployed`` surplus docks.  Moved docks count twice and
    new or deployed ones once against the distance allowance ``2z + new``,
    so the descent gets the budget ``(2z + new - deployed) // 2``.  The
    state the descent reaches for that budget then deploys the surplus from
    the depot, and the cheapest candidate wins, ties going to fewer new and
    then fewer deployed docks.  Without a cap there is one candidate: the
    uncapped descent, then all the surplus.  Returns the result with the
    chosen ``z`` and ``new``.

    The descent runs the decreasing ``strides`` (greedy is the plan
    ``(1,)``).  Without a cap each stride starts where the one before
    stopped.  Under a cap only the last stride runs, from the baseline,
    since the cap counts docks moved from the baseline, and each budget
    reads a prefix of that one run; the tests check that it ends at the
    best allocation within its moves on the baseline's stride lattice.
    ``initial_objective`` is the bike-optimal baseline's, which a lone
    stride-1 run starts at.

    The additions are prefix-optimal, so each distinct budget gets one
    depot run, stocked for the largest ``deployed`` among its candidates,
    and every candidate of that budget reads its objective off the run
    after its ``deployed``-th move.  Only the winner's state is rebuilt.
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
    *earlier, last = strides if joint is None else strides[-1:]
    alone = not earlier and last == 1  # the one run starts at the bike-optimal baseline
    initial = None if alone else _bike_optimal_objective(sources, caps, constraints.bike_budget)
    log, phases = [], ()
    for step in earlier:
        _, docks, bikes, moves, phase = _stride_descent(sources, lower, upper, docks, bikes, threshold, None, step)
        _replay(docks, bikes, moves, step)
        log += moves
        phases += (phase,)
    start, docks, bikes, applied, phase = _stride_descent(sources, lower, upper, docks, bikes, threshold, joint, last)
    best = None
    for budget, group in by_budget.items():
        moves = applied[: None if budget is None else budget // last]
        d, b = list(docks), list(bikes)
        _replay(d, b, moves, last)
        stock = max(deployed for _, _, deployed in group)
        first, additions = _run_additions(sources, lower, upper, d, b, stock, threshold=threshold)
        for new, z, deployed in group:
            added = min(deployed, len(additions))
            key = (additions[added - 1][1] if added else first, new, deployed)
            if best is None or key < best[0]:
                best = (key, z, new, d, b, moves, additions[:added])

    _, z, new, docks, bikes, moves, additions = best
    # replayed without the depot's stock: its dock count is not reported
    _replay(docks, bikes, additions, 1)
    station_costs = tuple(sources[s].cost(docks[s], bikes[s]) for s in range(n))
    result = OptimizeResult(
        allocation=Allocation(tuple(docks[:n]), tuple(bikes[:n])),
        objective=sum(station_costs),
        initial_objective=start if alone else initial,
        log=tuple(LogEntry(it, move, value) for it, (move, value) in enumerate(log + moves + additions, start=1)),
        station_costs=station_costs,
        depot_bikes=bikes[n],
        deployed_docks=len(additions),
        phases=phases + (replace(phase, iterations=len(moves)),),
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
    return _sweep(constraints, tables, (1,), improvement_threshold)[0]


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
    result, z, new = _sweep(constraints, tables, (1,), improvement_threshold, constraints.tradeoff)
    return TradeoffResult(result=result, chosen_moves=z, chosen_new_docks=new)
