"""Scaled variants of the descent: move docks in large strides first.

A phase with stride ``a`` only considers moves of ``a`` docks (and ``a``
bikes) at a time; the cost grid restricted to an ``a``-spaced lattice keeps
the second-difference structure, so each phase is the plain descent on a
coarser problem.  Halving the stride phase by phase reaches the exact
optimum in far fewer iterations than the unit-stride descent when budgets
are large, and stopping before stride 1 yields allocations that move docks
only in multiples of the last stride (useful when docks come in banks of
four).

Under a cap on moved docks only the plan's last stride runs: it starts
from the baseline state and may make ``max_moves // stride`` moves.  A
capped plan that ends at stride 1 thus logs the moves of the unit-stride
descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .allocator import (
    Constraints,
    DockMove,
    OptimizeResult,
    PhaseStats,
    _Descent,
    _sweep,
    bike_optimal,
    DEFAULT_IMPROVEMENT_THRESHOLD,
)
from .errors import ValidationError
from .udf import CostSource, CountingSource, Number

@dataclass(frozen=True)
class PhasePlan:
    """Descending stride sizes, one per phase."""

    step_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.step_sizes:
            raise ValidationError("a phase plan needs at least one stride")
        if any(type(s) is not int or s < 1 for s in self.step_sizes):
            raise ValidationError(f"strides must be positive integers, got {self.step_sizes}")
        if any(a <= b for a, b in zip(self.step_sizes, self.step_sizes[1:])):
            raise ValidationError(f"strides must be strictly decreasing, got {self.step_sizes}")

    @classmethod
    def powers_of_two(cls, budget: int) -> "PhasePlan":
        """Strides 2^k, 2^(k-1), ..., 1 with 2^k the largest power not
        exceeding the dock budget."""
        if budget < 1:
            return cls((1,))
        top = 1
        while top * 2 <= budget:
            top *= 2
        sizes = []
        while top >= 1:
            sizes.append(top)
            top //= 2
        return cls(tuple(sizes))

    @classmethod
    def hybrid(cls) -> "PhasePlan":
        """The 8/4/1 plan; skips the intermediate powers of two, which pays
        off on realistic demand data."""
        return cls((8, 4, 1))

    def truncate(self, granularity: int) -> "PhasePlan":
        """Keep the strides that are multiples of ``granularity`` (else the
        one stride ``granularity``) so docks move in multiples of it; the
        final allocation then respects physical dock-bank sizes."""
        if granularity < 1:
            raise ValidationError(f"granularity must be >= 1, got {granularity}")
        kept = tuple(s for s in self.step_sizes if s % granularity == 0)
        if not kept:
            kept = (granularity,)
        return PhasePlan(kept)


def _cascade(
    sources,
    lower,
    upper,
    start_docks,
    start_bikes,
    plan: PhasePlan,
    max_moves: int | None,
    threshold: float,
):
    """Run the phase sequence from the start state; returns final state, log
    and stats.  Under a cap only the last stride runs, with the budget
    ``max_moves // step``: the cap counts docks moved from the baseline, so
    a capped stride cannot start where an earlier one stopped."""
    docks = list(start_docks)
    bikes = list(start_bikes)
    log: list[tuple[DockMove, Number]] = []
    phases: list[PhaseStats] = []
    for step in plan.step_sizes if max_moves is None else plan.step_sizes[-1:]:
        tally: dict[int, int] = {}
        counted = [CountingSource(s, tally) for s in sources]
        if step == 1:
            # exact bike re-optimization: take every bike out, add back greedily
            alloc = bike_optimal([d + b for d, b in zip(docks, bikes)], sum(bikes), counted)
            docks, bikes = list(alloc.empty_docks), list(alloc.bikes)
            bike_moves = sum(bikes)
        else:
            pre = _Descent(counted, lower, upper, docks, bikes, stride=step, threshold=threshold)
            bike_moves = pre.optimize_bikes_pairwise()
            docks, bikes = list(pre.d), list(pre.b)
        engine = _Descent(counted, lower, upper, docks, bikes, stride=step, threshold=threshold)
        moves = engine.run(max_iterations=None if max_moves is None else max_moves // step)
        docks, bikes = list(engine.d), list(engine.b)
        log.extend(moves)
        phases.append(
            PhaseStats(
                step=step,
                iterations=len(moves),
                bike_moves=bike_moves,
                evaluations_by_capacity=dict(sorted(tally.items())),
            )
        )
    return docks, bikes, log, tuple(phases)


def _scaled_descent(plan: PhasePlan, sources, lower, upper, docks, bikes, threshold, max_budget):
    """The stride cascade as the sweep's descent: it starts from the
    baseline state itself and runs once per move budget."""
    n = len(sources) - 1
    initial = sum(sources[s].cost(docks[s], bikes[s]) for s in range(n))
    return initial, partial(_cascade, sources, lower, upper, docks, bikes, plan, threshold=threshold)


def optimize_scaled(
    constraints: Constraints,
    tables: Sequence[CostSource],
    plan: PhasePlan | None = None,
    *,
    improvement_threshold: float = DEFAULT_IMPROVEMENT_THRESHOLD,
) -> OptimizeResult:
    """Phase-scaled descent, with or without a moved-dock cap.

    Ends at the same objective as the unit-stride descent whenever the plan
    finishes at stride 1.  Under a finite ``constraints.max_moves`` only the
    plan's last stride runs: it starts from the baseline state and makes at
    most ``max_moves // stride`` moves, each of ``stride`` docks, and
    ``phases`` holds that one stride.  Without a cap each phase starts where
    the one before stopped, and the log holds every phase's moves.  The
    default plan is powers of two up to the dock budget.
    """
    plan = plan or PhasePlan.powers_of_two(constraints.dock_budget)
    return _sweep(constraints, tables, partial(_scaled_descent, plan), improvement_threshold)[0]


# The same solver under the name of its capped use.
optimize_scaled_constrained = optimize_scaled
