"""Scaled variants of the descent: move docks in large strides first.

A phase with stride ``a`` only considers moves of ``a`` docks (and ``a``
bikes) at a time; it is ``allocator._stride_descent`` at that stride.
Halving the stride phase by phase reaches the exact optimum in far fewer
iterations than the unit-stride descent when budgets are large, and
stopping before stride 1 yields allocations that move docks only in
multiples of the last stride (useful when docks come in banks of four).

Without a cap the strides chain: each starts where the one before
stopped.  Under a cap on moved docks only the plan's last stride runs: it
starts from the baseline state and may make ``max_moves // stride``
moves.  The tests check that it ends at the best allocation within that
many moves whose capacities and bikes (the depot's included) lie on the
baseline's stride lattice, and that a capped plan ending at stride 1 is
the greedy descent, phase stats included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .allocator import (
    Constraints,
    OptimizeResult,
    _stride_descent,
    _sweep,
    DEFAULT_IMPROVEMENT_THRESHOLD,
)
from .errors import ValidationError
from .udf import CostSource

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


def _scaled_descent(plan: PhasePlan, sources, lower, upper, docks, bikes, threshold, max_budget):
    """The phase plan as the sweep's descent, reporting the as-is baseline
    objective.  Under a cap only the last stride runs, from the baseline:
    the cap counts docks moved from the baseline, so a capped stride cannot
    start where an earlier one stopped.  Without a cap the earlier strides
    run to a standstill, and their moves and phases come first."""
    n = len(sources) - 1
    initial = sum(sources[s].cost(docks[s], bikes[s]) for s in range(n))
    *earlier, last = plan.step_sizes if max_budget is None else plan.step_sizes[-1:]
    log, phases = [], ()
    for step in earlier:
        _, reach = _stride_descent(sources, lower, upper, docks, bikes, threshold, None, step)
        docks, bikes, moves, done = reach(None)
        log += moves
        phases += done
    _, reach = _stride_descent(sources, lower, upper, docks, bikes, threshold, max_budget, last)

    def chained(budget: int | None):
        d, b, moves, done = reach(budget)
        return d, b, log + moves, phases + done

    return initial, chained


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
    ``phases`` holds that one stride.  That stride runs once and every move
    budget of the sweep reads a prefix of it; a plan that ends at stride 1
    returns greedy ``optimize``'s result but for ``initial_objective``,
    which is the as-is baseline here.  Without a cap each phase starts where
    the one before stopped, and the log holds every phase's moves.  The
    default plan is powers of two up to the dock budget.
    """
    plan = plan or PhasePlan.powers_of_two(constraints.dock_budget)
    return _sweep(constraints, tables, partial(_scaled_descent, plan), improvement_threshold)[0]


# The same solver under the name of its capped use.
optimize_scaled_constrained = optimize_scaled
