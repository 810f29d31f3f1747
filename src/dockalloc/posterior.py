"""After-the-fact impact estimation for implemented capacity changes.

For a station whose capacity grew, the out-of-stock reduction is found by
replaying the observed (successful) arrivals against the old, smaller
configuration: every event the new station absorbed but the old one would
have refused is one avoided failure, and censoring needs no correction.
For a station whose capacity shrank, demand during recorded full/empty
stretches is unobservable, so those stretches are filled in with Poisson
draws from the station's estimated rates before the same replay.

Bikes moved by rebalancing crews can be spliced into the arrival stream as
virtual customers; the optimistic variant exempts them from the failure
count.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .demand import PoissonProfile
from .errors import ValidationError, read_json, reading, row_list, whole_number
from .udf import DEFAULT_CAPACITY_LIMIT, bike_trajectory, count_stockouts, replay_from_every_start

RULES = ("same_bikes", "proportional")
REBALANCING_MODES = ("none", "strict", "optimistic")


@dataclass(frozen=True)
class ObservedDay:
    """One station-day of observations after a capacity change.

    ``observed_events`` are the successful rentals/returns in order;
    ``event_timestamps`` (seconds, same length) are only required when
    rebalancing events must be spliced in.  Full/empty periods record
    (interval_index, minutes) stretches during which returns/rentals were
    censored.  Rebalancing events are (timestamp, signed bike count).
    """

    station_id: str
    capacity_before: int
    capacity_after: int
    bikes_at_open: int
    observed_events: tuple[int, ...] = ()
    event_timestamps: tuple[float, ...] | None = None
    full_periods: tuple[tuple[int, float], ...] = ()
    empty_periods: tuple[tuple[int, float], ...] = ()
    rebalancing_events: tuple[tuple[float, int], ...] = ()

    def validate(self) -> None:
        if self.capacity_before < 0 or self.capacity_after < 0:
            raise ValidationError(f"day at {self.station_id!r}: negative capacity")
        if max(self.capacity_before, self.capacity_after) > DEFAULT_CAPACITY_LIMIT:
            raise ValidationError(f"day at {self.station_id!r}: capacity above the limit {DEFAULT_CAPACITY_LIMIT}")
        if not 0 <= self.bikes_at_open <= self.capacity_after:
            raise ValidationError(
                f"day at {self.station_id!r}: bikes_at_open {self.bikes_at_open} outside 0..{self.capacity_after}"
            )
        for x in self.observed_events:
            if x not in (1, -1):
                raise ValidationError(f"day at {self.station_id!r}: events must be +1/-1, got {x!r}")
        if self.event_timestamps is not None and len(self.event_timestamps) != len(self.observed_events):
            raise ValidationError(f"day at {self.station_id!r}: event_timestamps length mismatch")
        for periods in (self.full_periods, self.empty_periods):
            for interval, minutes in periods:
                if interval < 0 or not 0 <= minutes < math.inf:
                    raise ValidationError(f"day at {self.station_id!r}: bad period ({interval}, {minutes})")
        for what, times in (
            ("event timestamps", list(self.event_timestamps or ())),
            ("rebalancing events", [t for t, _ in self.rebalancing_events]),
        ):
            if not all(math.isfinite(t) for t in times) or times != sorted(times):
                raise ValidationError(f"day at {self.station_id!r}: {what} must be finite and time-ordered")
        if any(abs(count) > DEFAULT_CAPACITY_LIMIT for _, count in self.rebalancing_events):
            raise ValidationError(
                f"day at {self.station_id!r}: a crew moves at most {DEFAULT_CAPACITY_LIMIT} bikes at once"
            )


def censored_subsequence(events: Sequence[int], d: int, b: int) -> tuple[int, ...]:
    """The events that succeed when replayed from (d, b): exactly what an
    observer at the station would record."""
    counts = bike_trajectory(events, d, b)
    return tuple(x for x, before, after in zip(events, counts, counts[1:]) if before != after)


def resolve_bikes_before(day: ObservedDay, rule: str) -> int:
    """The assumed bike count under the old capacity: either the same count
    (capped by the old capacity) or the same fill proportion, rounded half
    up and clamped."""
    if rule == "same_bikes":
        return min(day.bikes_at_open, day.capacity_before)
    if rule == "proportional":
        if day.capacity_after == 0:
            return 0
        raw = day.bikes_at_open * day.capacity_before / day.capacity_after
        return min(max(int(math.floor(raw + 0.5)), 0), day.capacity_before)
    raise ValidationError(f"unknown bike rule {rule!r}; expected one of {RULES}")


def rebalancing_adjustment(day: ObservedDay, mode: str = "strict") -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Splice rebalanced bikes into the arrival stream as virtual customers.

    Returns the adjusted sequence and a mask marking virtual events; the
    mask is all-False in strict mode (their failures count) and flags them
    in optimistic mode (failures forgiven).  Timestamped observations are
    required to place the splices.  Mode ``none`` leaves the crews out and
    returns the observed events with an all-False mask.
    """
    if mode not in REBALANCING_MODES:
        raise ValidationError(f"unknown rebalancing mode {mode!r}")
    day.validate()
    if mode == "none" or not day.rebalancing_events:
        return day.observed_events, tuple(False for _ in day.observed_events)
    if day.event_timestamps is None:
        raise ValidationError(
            f"day at {day.station_id!r}: rebalancing events need event_timestamps to be placed"
        )
    merged: list[tuple[float, int, int, bool]] = []
    for t, x in zip(day.event_timestamps, day.observed_events):
        merged.append((t, 0, x, False))
    for t, signed in day.rebalancing_events:
        if signed == 0:
            continue
        sign = 1 if signed > 0 else -1
        for _ in range(abs(signed)):
            merged.append((t, 1, sign, mode == "optimistic"))
    merged.sort(key=lambda item: (item[0], item[1]))
    events = tuple(item[2] for item in merged)
    exempt = tuple(item[3] for item in merged)
    return events, exempt


def added_capacity_impact(day: ObservedDay, rule: str = "same_bikes", rebalancing: str = "none") -> int:
    """Avoided stockouts at a station whose capacity grew: replay the
    observed arrivals against the pre-change configuration."""
    day.validate()
    if day.capacity_before > day.capacity_after:
        raise ValidationError(
            f"day at {day.station_id!r}: capacity decreased; use decreased_capacity_impact"
        )
    events, exempt = rebalancing_adjustment(day, rebalancing)
    b_before = resolve_bikes_before(day, rule)
    return count_stockouts(events, day.capacity_before - b_before, b_before, exempt)


@dataclass(frozen=True)
class ImpactEstimate:
    mean: float
    stderr: float
    resamples: int
    seed: int


def _insertion_points(
    day: ObservedDay,
    periods: Sequence[tuple[int, float, str]],
    rebalancing: str,
) -> list[tuple[int, int, float, str]]:
    """Position each censored period on the day's actual trajectory under
    the new capacity: the first index at or after the previous period where
    the recorded state (full or empty) holds.  The trajectory includes the
    crews' bikes whenever their times are known; the ``none`` column, which
    replays only the observed events, gets the same point counted in
    observed events."""
    spliced = bool(day.rebalancing_events) and day.event_timestamps is not None
    events, virtual = rebalancing_adjustment(day, "optimistic") if spliced else (day.observed_events, ())
    capacity = day.capacity_after
    states = bike_trajectory(events, capacity - day.bikes_at_open, day.bikes_at_open)
    out = []
    cursor = 0
    for interval, minutes, kind in sorted(periods, key=lambda p: (p[0], p[2])):
        target = capacity if kind == "full" else 0
        pos = next((q for q in range(cursor, len(states)) if states[q] == target), None)
        if pos is None:
            raise ValidationError(
                f"recorded {kind} period in interval {interval} but the observed day never reaches that state"
            )
        crew_before = sum(virtual[:pos]) if rebalancing == "none" else 0
        out.append((pos - crew_before, interval, minutes, kind))
        cursor = pos
    return out


def decreased_capacity_impact(
    day: ObservedDay,
    profile: PoissonProfile | None = None,
    rule: str = "same_bikes",
    seed: int = 0,
    resamples: int = 1000,
    rebalancing: str = "none",
) -> ImpactEstimate:
    """Extra stockouts caused at a station whose capacity shrank.

    Fills the censored full/empty stretches with Poisson draws of intended
    returns/rentals, then compares the replay under the new (smaller) and
    old configurations; reported as a non-negative increase.  All draws
    come from one array and every resample is priced off segment tables
    (``_price_by_segments``); ``oracle.posterior_replay_path`` replays each
    resample event by event and is the reference.
    """
    return _decreased_impact(day, profile, rule, seed, resamples, rebalancing, _price_by_segments)


def _decreased_impact(day, profile, rule, seed, resamples, rebalancing, price) -> ImpactEstimate:
    """``decreased_capacity_impact`` with the resamples priced by
    ``price(events, exempt, configs, spots, lams, rng, resamples)``, which
    returns the per-resample miss differences (new minus old
    configuration); ``configs`` holds the (capacity, bikes at open) pairs
    after and before the change, and ``lams`` the Poisson mean of each
    spot's inserted block."""
    day.validate()
    if day.capacity_before < day.capacity_after:
        raise ValidationError(
            f"day at {day.station_id!r}: capacity increased; use added_capacity_impact"
        )
    if resamples < 1:
        raise ValidationError(f"resamples must be >= 1, got {resamples}")
    events, exempt = rebalancing_adjustment(day, rebalancing)
    configs = ((day.capacity_after, day.bikes_at_open), (day.capacity_before, resolve_bikes_before(day, rule)))

    periods = [(i, m, "full") for i, m in day.full_periods] + [(i, m, "empty") for i, m in day.empty_periods]
    if not periods:
        resamples = 1  # nothing to draw: one replay is the exact answer
    elif profile is None:
        raise ValidationError(
            f"day at {day.station_id!r} has censored periods; demand rates are required to fill them in"
        )
    else:
        profile.validate()
        for interval, minutes, _ in periods:
            if interval >= profile.intervals:
                raise ValidationError(f"period interval {interval} outside the profile horizon")
            if minutes > profile.minutes_per_interval:
                raise ValidationError(
                    f"day at {day.station_id!r}: a {minutes}-minute period does not fit its"
                    f" {profile.minutes_per_interval}-minute interval {interval}"
                )

    spots = _insertion_points(day, periods, rebalancing)
    lams = [
        (profile.return_rates if kind == "full" else profile.rental_rates)[interval] * minutes
        for _, interval, minutes, kind in spots
    ]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    diffs = price(events, exempt, configs, spots, lams, rng, resamples)
    mean = float(diffs.mean())
    stderr = 0.0 if resamples == 1 else float(diffs.std(ddof=1) / math.sqrt(resamples))
    return ImpactEstimate(mean=mean, stderr=stderr, resamples=resamples, seed=seed)


def _price_by_segments(events, exempt, configs, spots, lams, rng, resamples) -> np.ndarray:
    """Every resample's miss difference in one numpy pass.  The observed
    events between two insertion points replay the same way from the same
    start count, so each such segment is tabulated once per configuration
    by ``replay_from_every_start`` and looked up for all resamples; an
    inserted block of ``n`` returns from ``x`` bikes charges
    ``max(0, x + n - c)`` and leaves ``min(c, x + n)``, rentals mirror it.
    Row-major draws keep the scalar draw order: resample by resample, spot
    by spot."""
    counts = rng.poisson(np.repeat(np.asarray(lams, dtype=float)[None, :], resamples, 0))
    bounds = [0] + [pos for pos, *_ in spots] + [len(events)]
    totals = []
    for capacity, bikes_at_open in configs:
        bikes = np.full(resamples, bikes_at_open)
        misses = np.zeros(resamples, dtype=np.int64)
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            end, charged = replay_from_every_start(events[lo:hi], capacity, exempt[lo:hi])
            misses += charged[bikes]
            bikes = end[bikes]
            if k < len(spots):
                n = counts[:, k]
                full = spots[k][3] == "full"
                moved = np.minimum(capacity - bikes if full else bikes, n)
                misses += n - moved
                bikes = bikes + moved if full else bikes - moved
        totals.append(misses)
    return (totals[0] - totals[1]).astype(float)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def posterior_report(
    days: Sequence[ObservedDay],
    profiles: dict[str, PoissonProfile],
    *,
    resamples: int = 1000,
    seed: int = 0,
    rebalancing_mode: str = "strict",
) -> dict:
    """Station-level and aggregate impact under the four evaluation columns
    (bike rule x rebalancing on/off)."""
    if not _is_int(resamples) or resamples < 1:
        raise ValidationError(f"resamples must be an integer >= 1, got {resamples!r}")
    if not _is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    if rebalancing_mode not in ("strict", "optimistic"):
        raise ValidationError(f"unknown rebalancing mode {rebalancing_mode!r}")
    columns = [
        {"rule": rule, "rebalancing": reb}
        for rule in RULES
        for reb in ("none", rebalancing_mode)
    ]
    col_keys = [f"{c['rule']}/{c['rebalancing']}" for c in columns]
    per_station: dict[str, dict] = {}
    totals_added = {k: 0.0 for k in col_keys}
    totals_removed = {k: 0.0 for k in col_keys}
    counted_days = 0

    for idx, day in enumerate(days):
        day.validate()
        entry = per_station.setdefault(
            day.station_id,
            {"station_id": day.station_id, "days": 0, "added": dict.fromkeys(col_keys, 0.0), "removed": dict.fromkeys(col_keys, 0.0)},
        )
        entry["days"] += 1
        counted_days += 1
        increased = day.capacity_after >= day.capacity_before
        for col, key in zip(columns, col_keys):
            reb = col["rebalancing"]
            if increased:
                value = float(added_capacity_impact(day, col["rule"], reb))
                entry["added"][key] += value
                totals_added[key] += value
            else:
                est = decreased_capacity_impact(
                    day,
                    profiles.get(day.station_id),
                    col["rule"],
                    seed=int(np.random.SeedSequence([seed, idx]).generate_state(1)[0]),
                    resamples=resamples,
                    rebalancing=reb,
                )
                entry["removed"][key] += est.mean
                totals_removed[key] += est.mean

    return {
        "columns": columns,
        "stations": [per_station[k] for k in sorted(per_station)],
        "aggregate": {
            "reduction_where_capacity_added": totals_added,
            "increase_where_capacity_taken": totals_removed,
            "net_reduction": {k: totals_added[k] - totals_removed[k] for k in col_keys},
        },
        "coverage": {"days": counted_days, "stations": len(per_station)},
        "resamples": resamples,
        "seed": seed,
        "rebalancing_mode": rebalancing_mode,
    }


def _periods(pairs) -> tuple[tuple[int, float], ...]:
    return tuple((whole_number(i, "interval"), float(m)) for i, m in pairs)


def _day_from_json(doc: dict) -> ObservedDay:
    try:
        day = ObservedDay(
            station_id=str(doc["station_id"]),
            capacity_before=whole_number(doc["capacity_before"], "capacity_before"),
            capacity_after=whole_number(doc["capacity_after"], "capacity_after"),
            bikes_at_open=whole_number(doc["bikes_at_open"], "bikes_at_open"),
            observed_events=tuple(whole_number(x, "event") for x in doc.get("observed_events", [])),
            event_timestamps=(
                tuple(float(t) for t in doc["event_timestamps"]) if doc.get("event_timestamps") is not None else None
            ),
            full_periods=_periods(doc.get("full_periods", [])),
            empty_periods=_periods(doc.get("empty_periods", [])),
            rebalancing_events=tuple(
                (float(t), whole_number(c, "count")) for t, c in doc.get("rebalancing_events", [])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed observed-day document: {exc}") from exc
    day.validate()
    return day


def days_from_json(doc) -> list[ObservedDay]:
    return [_day_from_json(row) for row in row_list(doc, "days", "observed days")]


def _parse_events(text: str) -> tuple[int, ...]:
    return tuple(1 if ch == "+" else -1 for ch in text.strip() if ch in "+-")


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    out = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, right = chunk.split(":")
        out.append((float(left), float(right)))
    return out


def days_from_csv(path: str | Path) -> list[ObservedDay]:
    """CSV variant of the observed-day schema; events are a +/- string,
    periods ``interval:minutes`` and rebalancing ``timestamp:count`` chunks
    joined by ``|``."""
    days = []
    with reading(path, "days CSV"), open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "capacity_before", "capacity_after", "bikes_at_open"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(f"{path}: days CSV must include {sorted(required)}")
        for row in reader:
            timestamps = None
            try:
                if row.get("event_timestamps"):
                    timestamps = tuple(float(t) for t in row["event_timestamps"].split("|") if t.strip())
                day = ObservedDay(
                    station_id=row["station_id"].strip(),
                    capacity_before=whole_number(row["capacity_before"], "capacity_before"),
                    capacity_after=whole_number(row["capacity_after"], "capacity_after"),
                    bikes_at_open=whole_number(row["bikes_at_open"], "bikes_at_open"),
                    observed_events=_parse_events(row.get("observed_events", "")),
                    event_timestamps=timestamps,
                    full_periods=_periods(_parse_pairs(row.get("full_periods", ""))),
                    empty_periods=_periods(_parse_pairs(row.get("empty_periods", ""))),
                    rebalancing_events=tuple(
                        (t, whole_number(c, "count")) for t, c in _parse_pairs(row.get("rebalancing_events", ""))
                    ),
                )
            except (AttributeError, ValueError) as exc:
                raise ValidationError(f"{path}, line {reader.line_num}: malformed day row: {exc}") from exc
            day.validate()
            days.append(day)
    return days


def load_days(path: str | Path) -> list[ObservedDay]:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return days_from_csv(path)
    return days_from_json(read_json(path, "observed days"))
