"""Long-run average station cost under the no-overnight-rebalancing regime.

With no rebalancing, the bike count at the start of a day is whatever the
previous day left behind.  Day-to-day bike counts form a Markov chain; the
long-run average cost of a station is the single-day cost averaged over that
chain's stationary distribution.  It depends only on the station's total
capacity, never on how the capacity is split on any particular morning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import PoissonProfile
from .errors import ValidationError
from .udf import CostTable, FiniteProfile, LazyDailyCost

ROW_SUM_TOL = 1e-9
RANK_TOL = 1e-10
FIXED_POINT_TOL = 1e-8
DAMPING = 0.99


@dataclass(frozen=True)
class DayChain:
    """Day-to-day bike-count chain for one station capacity."""

    rho: np.ndarray  # rho[x, y] = P(end day with y bikes | start with x)
    pi: np.ndarray  # stationary distribution over bike counts
    ergodic: bool  # False when the stationary solve was degenerate


def _state_reductions(rhos: list[np.ndarray]) -> list[np.ndarray | None]:
    """Unnormalised stationary laws of several chains at once by the
    Grassmann-Taksar-Heyman state reduction: censor each chain on ever
    fewer states, taking each pivot ``1 - rho[k, k]`` as the sum of the
    row's other entries, so no step subtracts.  ``None`` for a chain that
    meets a zero pivot, where state k cannot reach any state below it.

    When every pivot is positive every state reaches state 0, so the chain
    has one closed class and its law is unique (Grassmann, Taksar & Heyman
    1985).  The chains are padded to the largest size with states that go
    to state 0 at once and that no state enters: their pivots are 1 and
    their columns 0, so they add exact zeros and leave each chain's law as
    its reduction alone gives it.
    """
    count, m = len(rhos), max(len(rho) for rho in rhos)
    a = np.zeros((count, m, m))
    for chain, rho in zip(a, rhos):
        chain[: len(rho), : len(rho)] = rho
        chain[len(rho) :, 0] = 1.0
    healthy = np.ones(count, dtype=bool)
    for k in range(m - 1, 0, -1):
        pivot = a[:, k, :k].sum(axis=1)
        positive = pivot > 0.0
        healthy &= positive
        if not healthy.any():
            return [None] * count
        pivot[~positive] = 1.0  # that chain's law is dropped; this keeps the stack finite
        a[:, :k, k] /= pivot[:, None]
        a[:, :k, :k] += a[:, :k, k, None] * a[:, k, None, :k]
    pi = np.zeros((count, 1, m))
    pi[:, 0, 0] = 1.0
    for k in range(1, m):
        np.matmul(pi[:, :, :k], a[:, :k, k, None], pi[:, :, k, None])
    return [law[0, : len(rho)] if ok else None for law, rho, ok in zip(pi, rhos, healthy)]


def _state_reduction(rho: np.ndarray) -> np.ndarray | None:
    """``_state_reductions`` of one chain."""
    return _state_reductions([rho])[0]


def stationary(rho: np.ndarray, law: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Stationary distribution of a row-stochastic matrix.

    Reduces the chain state by state (see ``_state_reductions``), which
    keeps full relative accuracy even on nearly decomposable chains;
    ``law`` is that reduction's answer when a block of chains already ran
    it (a chain that met a zero pivot there meets it again here, alone).
    Only after a zero pivot does the chain need its singular values:
    with transient states and one closed class it goes to a least-squares
    solve.  If the chain is degenerate (stationary distribution not unique),
    or the law found is not a fixed point, returns the fixed point of power
    iteration damped toward the uniform distribution and flags the result
    non-ergodic.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {rho.shape}")
    if np.any(rho < -1e-12):
        raise ValidationError("transition matrix has negative entries")
    if np.any(np.abs(rho.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ValidationError("transition matrix rows must sum to 1")

    m = rho.shape[0]
    if m == 1:
        return np.ones(1), True

    pi = _state_reduction(rho) if law is None else law
    if pi is None:
        a = rho.T - np.eye(m)
        singular_values = np.linalg.svd(a, compute_uv=False)
        if np.sum(singular_values < max(1.0, singular_values[0]) * RANK_TOL) <= 1:
            system = np.vstack([a, np.ones((1, m))])
            rhs = np.zeros(m + 1)
            rhs[-1] = 1.0
            pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if pi is not None:
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        if np.max(np.abs(pi @ rho - pi)) <= FIXED_POINT_TOL:
            return pi, True

    # Degenerate chain: exact fixed point of pi <- DAMPING*pi@rho + (1-DAMPING)*uniform.
    uniform = np.full(m, 1.0 / m)
    pi = np.linalg.solve((np.eye(m) - DAMPING * rho).T, (1.0 - DAMPING) * uniform)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi, False


def day_chain(rho: np.ndarray, law: np.ndarray | None = None) -> DayChain:
    """The day-to-day chain of an end-of-day transition matrix; ``law`` as
    for ``stationary``."""
    pi, ergodic = stationary(rho, law)
    return DayChain(rho, pi, ergodic)


class LongrunCost:
    """Long-run average cost exposed through the same interface as the
    single-day tables, so the allocator runs unchanged on either objective.

    The cost of capacity d + b is the day's expected events averaged over
    the stationary day-start distribution; the split between d and b is
    irrelevant.
    """

    def __init__(self, profile: PoissonProfile | FiniteProfile):
        self.daily = LazyDailyCost(profile)
        self.station_id = self.daily.station_id
        self._by_capacity: dict[int, float] = {}
        self.chains: dict[int, DayChain] = {}  # every chain built so far, by capacity

    def chain(self, capacity: int) -> DayChain:
        """The day chain of ``capacity``, built with the others of its
        transition block: one state reduction for the block's chains."""
        if capacity not in self.chains:
            rhos = self.daily.day_transitions(capacity)
            laws = _state_reductions(list(rhos.values()))
            for (c, rho), law in zip(rhos.items(), laws):
                self.chains[c] = day_chain(rho, law)
        return self.chains[capacity]

    def cost(self, d: int, b: int) -> float:
        if d < 0 or b < 0:
            raise ValidationError(f"negative state d={d}, b={b}")
        capacity = d + b
        if capacity not in self._by_capacity:
            pi = self.chain(capacity).pi
            daily = self.daily.cost_vector(capacity)
            self._by_capacity[capacity] = float(sum(pi[k] * float(daily[k]) for k in range(capacity + 1)))
        return self._by_capacity[capacity]

    def materialize(self, capacity: int) -> CostTable:
        if capacity < 0:
            raise ValidationError(f"station {self.station_id!r}: table capacity must be non-negative, got {capacity}")
        values = tuple(tuple(self.cost(s - b, b) for b in range(s + 1)) for s in range(capacity + 1))
        return CostTable(self.station_id, capacity, values, provenance="longrun")
