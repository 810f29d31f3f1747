"""Station cost functions: expected out-of-stock events over a horizon.

A station starts the day with ``d`` open docks and ``b`` bikes.  Customers
arrive one at a time to rent (-1) or return (+1) a bike; an arrival that
cannot be served leaves the state unchanged and counts as one out-of-stock
event.  The cost of a demand description is the expected number of such
events as a function of (d, b).  Three demand descriptions are supported:

* a single explicit arrival sequence,
* a finite distribution over sequences (probabilities may be ``Fraction``
  for exact arithmetic; missing mass is the empty sequence),
* piecewise-constant Poisson rental/return rates over day intervals.

Costs on the (d, b) grid satisfy a set of second-difference inequalities
(multimodularity) that the solver relies on; ``check_multimodular`` verifies
them for any tabulated cost.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .demand import PoissonProfile
from .errors import CapacityLimitError, ValidationError, read_json, whole_number

Number = int | float | Fraction

COST_BLOCK = 8  # capacities per cost pass, bound by per-jump call overhead
DEFAULT_CAPACITY_LIMIT = 512
JUMP_TAIL_TOL = 1e-10
MAX_POWERS = 16  # most P^j a transition block stores, whatever an interval's jump count
MULTIMODULAR_TOL = 1e-9
PROBABILITY_SLACK = 1e-12
TRANSITION_BLOCK = 4  # capacities per transition pass, bound by matmul work that grows as m^3


def bike_trajectory(events: Sequence[int], d: int, b: int) -> list[int]:
    """The bike count of a station that opens with ``d`` open docks and
    ``b`` bikes, before the first of ``events`` (+1 return, -1 rental) and
    after each.  A return needs an open dock and a rental a bike; an arrival
    that finds none fails and leaves the count as it was."""
    if d < 0 or b < 0:
        raise ValidationError(f"negative start state d={d}, b={b}")
    counts = [b]
    for x in events:
        if x not in (1, -1):
            raise ValidationError(f"arrival events must be +1 or -1, got {x!r}")
        counts.append(min(max(counts[-1] + int(x), 0), d + b))
    return counts


def count_stockouts(events: Sequence[int], d: int, b: int, exempt: Sequence[bool] | None = None) -> int:
    """Feed ``events`` through a station starting with ``d`` open docks and
    ``b`` bikes; return the out-of-stock count.  An event flagged in
    ``exempt`` moves the state when it succeeds, but its failure is not
    counted.  Total function: any sequence and any non-negative start is
    valid.  ``bike_trajectory`` gives the states the replay passes through."""
    counts = bike_trajectory(events, d, b)
    steps = zip(counts[:-1], counts[1:], [False] * len(events) if exempt is None else exempt, strict=True)
    return sum(before == after and not skip for before, after, skip in steps)


def replay_from_every_start(
    events: Sequence[int], capacity: int, exempt: Sequence[bool] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``count_stockouts`` from every start bike count 0..capacity at once:
    the bike count at the end and the misses charged, both indexed by the
    start count.  A run of ``n`` same-sign events moves the count by as much
    as the room allows, ``k = min(room, n)``, and its last ``n - k`` events
    fail; ``charged[k]`` counts the non-exempt ones among them."""
    bikes = np.arange(capacity + 1)
    misses = np.zeros(capacity + 1, dtype=np.int64)
    flags = itertools.repeat(False) if exempt is None else exempt
    for sign, run in itertools.groupby(zip(events, flags), key=lambda event: event[0]):
        if sign not in (1, -1):
            raise ValidationError(f"arrival events must be +1 or -1, got {sign!r}")
        charged = np.cumsum([0] + [not skip for _, skip in run][::-1])[::-1]
        moved = np.minimum(capacity - bikes if sign == 1 else bikes, len(charged) - 1)
        misses += charged[moved]
        bikes += moved if sign == 1 else -moved
    return bikes, misses


@dataclass(frozen=True)
class FiniteProfile:
    """Finite distribution over arrival sequences.

    ``atoms`` maps sequences to probabilities summing to at most 1; the
    residual mass stands for the empty sequence (zero cost).
    """

    atoms: tuple[tuple[tuple[int, ...], Number], ...]

    def __post_init__(self):
        total = 0
        for events, p in self.atoms:
            if not p >= 0:
                raise ValidationError(f"atom probability {p} must be a non-negative number")
            for x in events:
                if x not in (1, -1):
                    raise ValidationError(f"arrival events must be +1 or -1, got {x!r}")
            total += p
        if total > 1 + PROBABILITY_SLACK:
            raise ValidationError(f"atom probabilities sum to {total}, exceeding 1")

    @property
    def residual(self) -> Number:
        return 1 - sum(p for _, p in self.atoms)


def _finite_day(profile: FiniteProfile, capacity: int) -> tuple[list[Number], list[tuple[Number, np.ndarray]]]:
    """Expected misses at ``capacity`` by start count, and each atom of
    positive probability with its end counts.  Each atom is replayed once,
    by ``replay_from_every_start``, and its misses are summed as the
    reference ``oracle.expected_cost_finite`` sums them: in the
    probabilities' own number type and in atom order."""
    cost: list[Number] = [0] * (capacity + 1)
    ends = []
    for events, p in profile.atoms:
        if p != 0:
            end, misses = replay_from_every_start(events, capacity)
            cost = [t + p * k for t, k in zip(cost, misses.tolist())]
            ends.append((p, end))
    return cost, ends


class CostSource(Protocol):
    """Anything that prices a station state; the solver only needs this."""

    station_id: str

    def cost(self, d: int, b: int) -> Number: ...


@dataclass(frozen=True)
class ZeroCost:
    """Free station; used internally for the budget-slack depot."""

    station_id: str = "depot"

    def cost(self, d: int, b: int) -> Number:
        return 0


@dataclass(frozen=True)
class IntervalResult:
    """Transient analysis of one constant-rate interval.

    ``transition[x, y]`` is the probability of ending the interval with y
    bikes after starting with x; ``expected_events[x]`` the expected number
    of failed arrivals over the interval starting from x.
    """

    transition: np.ndarray
    expected_events: np.ndarray


def _poisson_jumps(jump_mean: float) -> tuple[list[float], list[float]]:
    """Poisson pmf and cdf at 0, 1, ... jumps, up to the first count whose
    tail mass is at most ``JUMP_TAIL_TOL``."""
    if jump_mean > 1e5:
        raise ValidationError(f"interval has {jump_mean:.3g} expected arrivals; rates are implausibly large")
    log_pmf = -jump_mean  # log Poisson pmf at k jumps
    cdf = math.exp(log_pmf)
    pmfs, cdfs = [math.exp(log_pmf)], [cdf]
    k = 0
    while 1.0 - cdf > JUMP_TAIL_TOL:
        k += 1
        log_pmf += math.log(jump_mean) - math.log(k)
        pmf = math.exp(log_pmf)
        cdf += pmf
        pmfs.append(pmf)
        cdfs.append(cdf)
    return pmfs, cdfs


def interval_cost_poisson(rental_rate: float, return_rate: float, minutes: float, capacity: int) -> IntervalResult:
    """Analyze the bike count as a birth-death process on {0..capacity}
    (births = returns at rate ``return_rate``, deaths = rentals at
    ``rental_rate``, both per minute) via uniformization.

    Failed arrivals occur at rate ``return_rate`` while full and
    ``rental_rate`` while empty; their time integral is accumulated inside
    the uniformization sum, so the only tolerance is the Poisson jump-count
    tail cut at ``JUMP_TAIL_TOL``.
    """
    for name, r in (("rental_rate", rental_rate), ("return_rate", return_rate)):
        if not (math.isfinite(r) and r >= 0):
            raise ValidationError(f"{name} must be finite and non-negative, got {r}")
    if not (math.isfinite(minutes) and minutes > 0):
        raise ValidationError(f"interval length must be positive, got {minutes}")
    if capacity < 0:
        raise ValidationError(f"capacity must be non-negative, got {capacity}")

    m = capacity + 1
    rate = rental_rate + return_rate
    if rate == 0:
        return IntervalResult(np.eye(m), np.zeros(m))

    pmfs, cdfs = _poisson_jumps(rate * minutes)

    # Uniformized jump chain: attempts that cannot be served self-loop.
    step = np.zeros((m, m))
    p_up = return_rate / rate
    p_down = rental_rate / rate
    for y in range(m):
        step[y, y + 1 if y < capacity else y] += p_up
        step[y, y - 1 if y > 0 else y] += p_down

    # Failure rate by state: returns fail at full, rentals fail at empty.
    boundary = np.zeros(m)
    boundary[0] += rental_rate
    boundary[capacity] += return_rate

    transition = np.zeros((m, m))
    occupancy = np.zeros((m, m))  # integral over the interval of the state distribution
    power = np.eye(m)
    for k, (pmf, cdf) in enumerate(zip(pmfs, cdfs)):
        if k:
            power = power @ step
        transition += pmf * power
        occupancy += ((1.0 - cdf) / rate) * power

    transition /= transition.sum(axis=1, keepdims=True)
    return IntervalResult(transition, occupancy @ boundary)


@functools.lru_cache(maxsize=4096)
def _horner_split(jumps: int, width: int) -> tuple[int, int]:
    """The power ``s`` and the Horner step count ``G = ceil(jumps / s) - 1``
    for a degree-``jumps`` polynomial in ``width``-state chains: the ``s``
    up to ``MAX_POWERS`` with the least work, ``s`` stencil passes plus
    ``G`` batched products.  A product with its add counts as
    ``max(2, width / 48)`` passes: about two while both are bound by memory
    traffic, then growing with the product's ``width**3`` work against the
    pass's ``width**2``.  Cached: every block asks for each of its
    intervals."""
    product = max(2.0, width / 48)
    splits = [(s, max(jumps - 1, 0) // s) for s in range(1, min(max(jumps, 1), MAX_POWERS) + 1)]
    return min(splits, key=lambda split: split[0] + product * split[1])


def _aligned_block(capacity: int, width: int) -> list[int]:
    """The capacities priced with ``capacity``: its aligned block of
    ``width``, cut at ``DEFAULT_CAPACITY_LIMIT``."""
    first = capacity - capacity % width
    return list(range(first, min(first + width - 1, DEFAULT_CAPACITY_LIMIT) + 1))


class LazyDailyCost:
    """A station's day model: for each total capacity, the expected daily
    events per start count and the end-of-day bike-count distribution, both
    computed on demand and kept for the life of this object.

    Poisson profiles price an aligned block of ``COST_BLOCK`` neighbouring
    capacities at once in one backward recursion on vectors (see
    ``_price_block``); when ``day_transition`` asks, the day transitions of
    an aligned block of ``TRANSITION_BLOCK`` follow from the same jump
    weights as matrix polynomials (see ``_day_transitions``).  Finite
    profiles replay every atom from every start count at once (residual
    mass leaves the state unchanged).
    """

    def __init__(self, profile: PoissonProfile | FiniteProfile):
        self.profile = profile
        self._finite = isinstance(profile, FiniteProfile)
        self.station_id = "" if self._finite else profile.station_id
        self._day_cost: dict[int, np.ndarray] = {}
        self._day_transition: dict[int, np.ndarray] = {}
        self._jumps: list[tuple[float, float, np.ndarray]] | None = None

    def _jump_weights(self) -> list[tuple[float, float, np.ndarray]]:
        """Per interval with demand, its rental and return rates and one row
        ``[p_up, p_down, w_k, o_k]`` per jump count k, last jump first:
        ``w_k = pmf_k / cdf_K`` and ``o_k = (1 - cdf_k) / rate``.  Zero-rate
        intervals leave the day's costs unchanged and are left out."""
        if self._jumps is None:
            p = self.profile
            jumps = []
            for mu, lam in zip(p.rental_rates, p.return_rates):
                rate = mu + lam
                if rate == 0:
                    continue
                pmfs, cdfs = _poisson_jumps(rate * p.minutes_per_interval)
                cdf = np.array(cdfs)
                rows = np.empty((len(cdfs), 4))
                rows[:, 0] = lam / rate
                rows[:, 1] = mu / rate
                rows[:, 2] = np.array(pmfs) / cdf[-1]
                rows[:, 3] = (1.0 - cdf) / rate
                jumps.append((mu, lam, rows[::-1]))
            self._jumps = jumps
        return self._jumps

    def _price_block(self, capacities: list[int]) -> list[np.ndarray]:
        """Daily cost vectors of several capacities in one backward pass.

        The capacities' bike counts sit side by side in one vector; ``up``
        and ``dn`` index each state's neighbours, a capacity's own end
        standing in for the neighbour it does not have (the self-loops of
        the uniformized chain).  Per interval, ``v <- e + T v`` is one
        Horner pass over the jump counts, last jump first:
        ``r <- p_up r[up] + p_down r[dn] + w_k v + o_k bnd``, where ``bnd``
        holds the failure rates at each capacity's empty and full ends.
        Each jump is one gather into ``terms`` and one BLAS dot with the
        jump's row, so the pass costs about the same per jump whatever the
        block's width.  BLAS may round an entry by its place in the block,
        so a capacity's vectors are a function of the profile and the
        capacity, which fix its aligned block.
        """
        sizes = np.array(capacities) + 1
        lows = np.cumsum(sizes) - sizes
        highs = lows + sizes - 1
        n = int(sizes.sum())
        up = np.arange(1, n + 1)
        up[highs] = highs
        dn = np.arange(-1, n - 1)
        dn[lows] = lows
        neighbours = np.concatenate([up, dn])
        terms = np.empty((4, n))  # rows r[up], r[dn], v, bnd
        shifted = terms[:2].reshape(-1)
        r = np.zeros(n)
        take, dot = r.take, np.dot
        for mu, lam, rows in reversed(self._jump_weights()):
            terms[2] = r
            terms[3] = 0.0
            terms[3, lows] += mu
            terms[3, highs] += lam
            r.fill(0.0)
            for row in rows:
                take(neighbours, None, shifted, "wrap")  # in range: wrap only skips the bounds check
                dot(row, terms, r)
        return np.split(r, lows[1:])

    def _day_transitions(self, capacities: list[int]) -> list[np.ndarray]:
        """Day transitions ``T_1 ... T_I`` of several capacities, from the
        same jump weights as the cost pass.

        The chains sit in one stack of ``(m, m)`` matrices, ``m`` the
        largest size, each zero past its own size; ``up`` and ``dn`` are the
        cost pass's neighbours in this layout, a padding state its own
        neighbour.  Per interval, ``T = sum_k w_k P^k`` is evaluated as a
        polynomial in ``P^s`` (Paterson & Stockmeyer, SIAM J. Comput. 2(1),
        1973): the powers ``P^1 ... P^s`` by the stencil (one gather and one
        BLAS dot each), the coefficients ``B_g = sum_j w_{gs+j} P^j`` by one
        gemm, the top one running to ``j = s``, and Horner in ``P^s`` by one
        batched matmul per step, ``T = B_0 + P^s (B_1 + P^s (...))``.  Then
        ``rho <- T rho``.  ``_horner_split`` picks ``s``.  The products cost
        about ``m^3`` per chain, so a narrow block builds fewer unused
        states; the bits of a transition depend on ``m``, which its aligned
        block fixes.
        """
        sizes = np.array(capacities) + 1
        count, m = len(sizes), int(sizes.max())
        n = count * m
        states = np.arange(n)
        place, size = states % m, np.repeat(sizes, m)
        up = np.where(place < size - 1, states + 1, states)
        dn = np.where((place > 0) & (place < size), states - 1, states)
        neighbours = np.concatenate([up, dn])
        plans = [(rows, *_horner_split(len(rows) - 1, m)) for _, _, rows in reversed(self._jump_weights())]
        most = max((s for _, s, _ in plans), default=0)
        powers = np.zeros((most + 1, count, m, m))
        powers[0].reshape(n, m)[states, place] = place < size
        flat = powers.reshape(most + 1, -1)
        shifted = np.empty((2, n * m))  # rows P^j[up], P^j[dn]
        coefs = np.empty((most + 1, count, m, m))
        rho, t, u = powers[0].copy(), np.empty_like(powers[0]), np.empty_like(powers[0])
        for rows, s, steps in plans:
            for j in range(1, s + 1):
                powers[j - 1].reshape(n, m).take(neighbours, 0, shifted.reshape(2 * n, m), "wrap")
                np.dot(rows[0, :2], shifted, flat[j])
            weights = np.zeros((steps + 1) * s + 1)
            weights[: len(rows)] = rows[::-1, 2]
            matrix = np.zeros((steps + 1, s + 1))  # row g: w_{gs} ... w_{gs+s-1}, and w_{gs+s} at the top
            matrix[:, :s] = weights[:-1].reshape(steps + 1, s)
            matrix[steps, s] = weights[-1]
            for top in range(steps, -1, -(most + 1)):  # coefficients in chunks no larger than the powers
                low = max(top - most, 0)
                np.dot(matrix[low : top + 1], flat[: s + 1], coefs[: top - low + 1].reshape(top - low + 1, -1))
                for g in range(top, low - 1, -1):
                    if g == steps:
                        t[...] = coefs[g - low]
                        continue
                    np.matmul(powers[s], t, u)
                    u += coefs[g - low]
                    t, u = u, t
            np.matmul(t, rho, u)
            rho, u = u, rho
        return [block[:k, :k] for block, k in zip(rho, sizes)]

    def _build(self, capacity: int, transition: bool) -> None:
        if capacity < 0:
            raise ValidationError(f"capacity must be non-negative, got {capacity}")
        if capacity > DEFAULT_CAPACITY_LIMIT:
            raise CapacityLimitError(
                f"station {self.station_id!r}: capacity {capacity} exceeds the limit {DEFAULT_CAPACITY_LIMIT}"
            )
        if self._finite:
            cost, ends = _finite_day(self.profile, capacity)
            self._day_cost.setdefault(capacity, np.array([float(t) for t in cost]))
            if transition:
                starts = np.arange(capacity + 1)
                rho = np.zeros((capacity + 1, capacity + 1))
                for prob, end in ends:
                    rho[starts, end] += float(prob)
                rho[starts, starts] += float(self.profile.residual)
                self._day_transition[capacity] = rho
            return
        if capacity not in self._day_cost:
            block = _aligned_block(capacity, COST_BLOCK)
            self._day_cost.update(zip(block, self._price_block(block)))
        if transition:
            block = _aligned_block(capacity, TRANSITION_BLOCK)
            self._day_transition.update(zip(block, self._day_transitions(block)))

    def cost_vector(self, capacity: int) -> np.ndarray:
        """Expected daily events indexed by the number of bikes at open."""
        if capacity not in self._day_cost:
            self._build(capacity, transition=False)
        return self._day_cost[capacity]

    def day_transition(self, capacity: int) -> np.ndarray:
        """End-of-day bike-count distribution per start count."""
        if capacity not in self._day_transition:
            self._build(capacity, transition=True)
        return self._day_transition[capacity]

    def day_transitions(self, capacity: int) -> dict[int, np.ndarray]:
        """``day_transition`` of ``capacity`` and of every capacity built
        with it, by capacity: its aligned block of ``TRANSITION_BLOCK`` for
        a Poisson profile, itself alone for a finite one."""
        self.day_transition(capacity)
        block = [capacity] if self._finite else _aligned_block(capacity, TRANSITION_BLOCK)
        return {c: self._day_transition[c] for c in block}

    def cost(self, d: int, b: int) -> float:
        if d < 0 or b < 0:
            raise ValidationError(f"negative state d={d}, b={b}")
        return float(self.cost_vector(d + b)[b])

    def materialize(self, capacity: int) -> "CostTable":
        """Tabulate the day-long expected events for every split d + b <= capacity."""
        if capacity < 0:
            raise ValidationError(f"station {self.station_id!r}: table capacity must be non-negative, got {capacity}")
        values = tuple(tuple(float(x) for x in self.cost_vector(s)) for s in range(capacity + 1))
        return CostTable(self.station_id, capacity, values, "finite" if self._finite else "poisson")


@dataclass(frozen=True)
class CostTable:
    """Tabulated station cost for every d + b <= max_capacity.

    ``values[s][b]`` is the cost with ``b`` bikes and ``s - b`` open docks,
    i.e. rows are anti-diagonals of the (d, b) grid grouped by total
    capacity.  Values may be floats or ``Fraction``s.
    """

    station_id: str
    max_capacity: int
    values: tuple[tuple[Number, ...], ...]
    provenance: str = "finite"

    def validate(self) -> None:
        if len(self.values) != self.max_capacity + 1:
            raise ValidationError(f"table {self.station_id!r}: expected {self.max_capacity + 1} rows")
        for s, row in enumerate(self.values):
            if len(row) != s + 1:
                raise ValidationError(f"table {self.station_id!r}: row {s} has {len(row)} entries, expected {s + 1}")
            for v in row:
                if not 0 <= v < math.inf:
                    raise ValidationError(f"table {self.station_id!r}: cost {v} must be finite and non-negative")

    def cost(self, d: int, b: int) -> Number:
        if d < 0 or b < 0:
            raise ValidationError(f"negative state d={d}, b={b}")
        s = d + b
        if s > self.max_capacity:
            raise CapacityLimitError(f"table {self.station_id!r} covers capacity {self.max_capacity}, asked for {s}")
        return self.values[s][b]

    def to_json(self) -> dict:
        return {
            "station_id": self.station_id,
            "max_capacity": self.max_capacity,
            "provenance": self.provenance,
            "values": [[_num_to_json(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CostTable":
        try:
            table = cls(
                station_id=str(doc["station_id"]),
                max_capacity=whole_number(doc["max_capacity"], "max_capacity"),
                values=tuple(tuple(_num_from_json(v) for v in row) for row in doc["values"]),
                provenance=str(doc.get("provenance", "finite")),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed cost table document: {exc}") from exc
        table.validate()
        return table


def _num_to_json(v: Number):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def _num_from_json(v) -> Number:
    if isinstance(v, str):
        # Fraction would build 10**exponent, and it reads "1e1_000" as 1e1000
        if re.search(r"[eE][+-]?0*\d{4}", v.replace("_", "")):
            raise ValidationError(f"number {v!r} has an exponent beyond 999")
        try:
            return Fraction(v)
        except ZeroDivisionError as exc:
            raise ValidationError(f"number {v!r} divides by zero") from exc
    return float(v)


def save_cost_table(path: str | Path, table: CostTable) -> None:
    Path(path).write_text(json.dumps(table.to_json(), indent=2, sort_keys=True))


def load_cost_table(path: str | Path) -> CostTable:
    return CostTable.from_json(read_json(path, "cost table"))


def cost_table_from_finite(
    profile: FiniteProfile, capacity: int, station_id: str = "", provenance: str = "finite"
) -> CostTable:
    """Tabulate a finite profile exactly over the capacity triangle."""
    values = tuple(tuple(_finite_day(profile, s)[0]) for s in range(capacity + 1))
    return CostTable(station_id, capacity, values, provenance)


@dataclass(frozen=True)
class Violation:
    """One failed second-difference inequality at a grid point."""

    inequality: int
    d: int
    b: int
    amount: float  # positive slack that is missing

    def __str__(self) -> str:
        return f"inequality ({self.inequality}) fails at d={self.d}, b={self.b} by {self.amount:.3g}"


def check_multimodular(table: CostTable, tol: float = MULTIMODULAR_TOL) -> list[Violation]:
    """Evaluate the six second-difference inequalities at every grid point
    where all terms are defined; return the violations beyond ``tol``, by
    grid point ``(d, b)`` and then in the order 1, 4, 5, 6, 2, 3.

    Inequalities (1) and (6) are algebraically the same constraint and (4),
    (5) follow from the first three; all six are still reported separately
    so a failure names every broken form.
    """
    cap = table.max_capacity
    floats = all(isinstance(v, float) for row in table.values for v in row)
    # grid[1 + d, 1 + b] = f(d, b), padded so every shifted term is a slice
    grid = np.zeros((cap + 4, cap + 4), dtype=np.float64 if floats else object)
    for s, row in enumerate(table.values):
        b = np.arange(s + 1)
        grid[1 + s - b, 1 + b] = row

    def f(dd: int, db: int) -> np.ndarray:
        """``f(d + dd, b + db)`` at every ``(d, b)`` of the square."""
        return grid[1 + dd : 2 + dd + cap, 1 + db : 2 + db + cap]

    d, b = np.indices((cap + 1, cap + 1))
    inner, corner = d + b + 2 <= cap, (d >= 1) & (b >= 1) & (d + b <= cap)
    gaps = [  # (lhs - rhs, where it is defined), in the reported order
        ((f(1, 1) - f(1, 0)) - (f(0, 1) - f(0, 0)), inner),
        ((f(2, 0) - f(1, 0)) - (f(1, 0) - f(0, 0)), inner),
        ((f(0, 2) - f(0, 1)) - (f(0, 1) - f(0, 0)), inner),
        ((f(1, 1) - f(0, 1)) - (f(1, 0) - f(0, 0)), inner),
        ((f(-1, 1) - f(-1, 0)) - (f(0, 0) - f(0, -1)), corner),
        ((f(1, -1) - f(0, -1)) - (f(0, 0) - f(-1, 0)), corner),
    ]
    failed = np.stack([(gap < -tol) & defined for gap, defined in gaps], axis=-1)
    return [
        Violation((1, 4, 5, 6, 2, 3)[k], d, b, float(-gaps[k][0][d, b]))
        for d, b, k in zip(*(index.tolist() for index in np.nonzero(failed)))
    ]


class CountingSource:
    """Wrap a cost source and tally evaluations grouped by total capacity."""

    def __init__(self, inner: CostSource, tally: dict[int, int]):
        self.inner = inner
        self.station_id = getattr(inner, "station_id", "")
        self.tally = tally

    def cost(self, d: int, b: int) -> Number:
        self.tally[d + b] = self.tally.get(d + b, 0) + 1
        return self.inner.cost(d, b)
