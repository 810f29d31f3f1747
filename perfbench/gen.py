"""Seeded synthetic commuter city: every input file the benchmark feeds the program.

The demand model has the same commuter shape as ``oracle.synthetic_scenario``
(residential, office and mixed stations with Gaussian rush-hour bumps) but is
written out here, so the program never generates its own inputs.  Each
station-day is simulated event by event as a capacitated bike count, which
gives the trips and status CSVs real censoring: rentals fail while a station
is empty and returns while it is full, and neither failure is recorded.

Besides the files, ``make_city`` returns the generator's own ground truth
(trip counts and eligible minutes per bucket, the uncensored replay of every
added-capacity observed day) for the correctness checks.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INTERVALS = 48
INTERVAL_SECONDS = 1800
MINUTES_PER_INTERVAL = 30.0
LOWER, UPPER = 8, 45
FIRST_DAY = (2026, 3, 2)  # a Monday; dates only decorate the ISO timestamps
REDRAWS = 50


@dataclass(frozen=True)
class Station:
    id: str
    kind: int  # 0 residential, 1 office, 2 mixed
    capacity: int
    bikes: int
    rentals: tuple[float, ...]  # per minute, one per interval
    returns: tuple[float, ...]
    lat: float
    lon: float


@dataclass
class City:
    """Generated files plus the generator's own view of them."""

    seed: int
    days: int
    stations: list[Station]
    paths: dict[str, Path]
    # (station, kind, interval) -> successful trips over all days
    trip_counts: dict[tuple[str, str, int], int] = field(default_factory=dict)
    # (station, kind, interval) -> eligible minutes over all days
    # (non-empty for rentals, non-full for returns)
    eligible_minutes: dict[tuple[str, str, int], float] = field(default_factory=dict)
    closed: list[tuple[str, int]] = field(default_factory=list)
    # station id -> avoided stockouts of the uncensored replay, per added day
    added_truth: dict[str, int] = field(default_factory=dict)
    removed_ids: list[str] = field(default_factory=list)

    @property
    def zero_minute_buckets(self) -> set[tuple[str, str, int]]:
        return {key for key, minutes in self.eligible_minutes.items() if minutes <= 0}


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *tag])))


def _stations(seed: int, n: int) -> list[Station]:
    rng = _rng(seed, 1)
    hours = (np.arange(INTERVALS) + 0.5) * (MINUTES_PER_INTERVAL / 60.0)

    def bump(center, width):
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    out = []
    for i in range(n):
        kind = i % 3
        base = rng.uniform(0.01, 0.05)
        peak = rng.uniform(0.1, 0.35)
        if kind == 0:
            rentals = base + peak * bump(8.5, 1.5)
            returns = base + peak * bump(18.0, 2.0)
        elif kind == 1:
            rentals = base + peak * bump(18.0, 2.0)
            returns = base + peak * bump(8.5, 1.5)
        else:
            rentals = base + peak * 0.5 * bump(12.0, 4.0)
            returns = base + peak * 0.5 * bump(13.0, 4.0)
        cap = int(rng.integers(15, 36))
        bikes = int(round(cap * rng.uniform(0.25, 0.75)))
        out.append(
            Station(
                id=f"st{i:03d}",
                kind=kind,
                capacity=cap,
                bikes=bikes,
                rentals=tuple(round(float(r), 6) for r in rentals),
                returns=tuple(round(float(r), 6) for r in returns),
                lat=round(42.33 + 0.05 * float(rng.random()), 6),
                lon=round(-71.12 + 0.07 * float(rng.random()), 6),
            )
        )
    return out


def _arrivals(rng, st: Station, closed_intervals=frozenset()):
    """One day of intended arrivals as (second, +1 return / -1 rental),
    in time order; closed intervals get none."""
    events = []
    for k in range(INTERVALS):
        if k in closed_intervals:
            continue
        n_rent = int(rng.poisson(st.rentals[k] * MINUTES_PER_INTERVAL))
        n_ret = int(rng.poisson(st.returns[k] * MINUTES_PER_INTERVAL))
        secs = rng.integers(0, INTERVAL_SECONDS, size=n_rent + n_ret) + k * INTERVAL_SECONDS
        signs = [-1] * n_rent + [1] * n_ret
        order = rng.permutation(n_rent + n_ret)
        events.extend((int(secs[o]), signs[o]) for o in order)
    events.sort(key=lambda e: e[0])  # stable: ties keep their random order
    return events


def _replay(events, capacity: int, bikes: int):
    """Play arrivals through a station; returns the successful events and
    the seconds spent empty/full in each interval.  Failed arrivals leave no
    record, as in a real trip export."""
    kept = []
    empty = [0] * INTERVALS
    full = [0] * INTERVALS
    last = 0

    def hold(until):
        # credit [last, until) to the empty/full tallies, interval by interval
        t = last
        while t < until:
            k = t // INTERVAL_SECONDS
            stop = min(until, (k + 1) * INTERVAL_SECONDS)
            if bikes == 0:
                empty[k] += stop - t
            if bikes == capacity:
                full[k] += stop - t
            t = stop

    for sec, x in events:
        hold(sec)
        last = sec
        if x == 1 and bikes < capacity:
            bikes += 1
            kept.append((sec, 1))
        elif x == -1 and bikes > 0:
            bikes -= 1
            kept.append((sec, -1))
    hold(INTERVALS * INTERVAL_SECONDS)
    return kept, empty, full


def _stamp(day: int, sec: int) -> str:
    y, m, d = FIRST_DAY
    return f"{y:04d}-{m:02d}-{d + day:02d}T{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d}"


def _periods(kept, capacity: int, bikes: int, empty, full):
    """Full/empty stretches as (interval, minutes), one kind per interval:
    the state the trajectory is in first when it sits empty or full during
    that interval.  The posterior loader places each period at the first
    matching state along the observed day, so the periods must come in the
    day's own order, which one kind per interval guarantees."""
    first: dict[int, str] = {}
    marks = sorted([(k * INTERVAL_SECONDS, 0) for k in range(INTERVALS)] + [(sec, x) for sec, x in kept],
                   key=lambda m: (m[0], m[1] != 0))
    state = bikes
    for sec, x in marks:
        state += x
        k = sec // INTERVAL_SECONDS
        if k in first:
            continue
        if state == 0 and empty[k] > 0:
            first[k] = "empty"
        elif state == capacity and full[k] > 0:
            first[k] = "full"
    full_periods, empty_periods = [], []
    for k in sorted(first):
        if first[k] == "empty":
            empty_periods.append([k, empty[k] / 60.0])
        else:
            full_periods.append([k, full[k] / 60.0])
    return full_periods, empty_periods


def _misses(events, docks: int, bikes: int) -> int:
    count = 0
    for x in events:
        if x == 1:
            if docks == 0:
                count += 1
            else:
                docks -= 1
                bikes += 1
        elif bikes == 0:
            count += 1
        else:
            bikes -= 1
            docks += 1
    return count


def _observed_days(seed: int, stations: list[Station], n_added: int, n_removed: int, city: City):
    rng = _rng(seed, 3)
    picks = rng.permutation(len(stations))[: n_added + n_removed]
    days = []
    for rank, idx in enumerate(picks):
        st = stations[int(idx)]
        added = rank < n_added
        if added:
            before = st.capacity
            after = min(UPPER, before + int(rng.integers(3, 9)))
        else:
            after = max(LOWER, st.capacity - int(rng.integers(6, 12)))
            before = st.capacity
        bikes = int(round(after * rng.uniform(0.3, 0.7)))
        # A removed-capacity day is decensored by resampling its full and
        # empty stretches; redraw it until it has one, so every seed gives
        # the posterior the same kind of work.
        for _ in range(REDRAWS):
            intended = _arrivals(rng, st)
            kept, empty, full = _replay(intended, after, bikes)
            full_p, empty_p = _periods(kept, after, bikes, empty, full)
            if added or full_p or empty_p:
                break
        signs = [x for _, x in intended]
        if added:
            b_old = min(bikes, before)
            truth = _misses(signs, before - b_old, b_old) - _misses(signs, after - bikes, bikes)
            city.added_truth[st.id] = city.added_truth.get(st.id, 0) + truth
        else:
            city.removed_ids.append(st.id)
        days.append(
            {
                "station_id": st.id,
                "capacity_before": before,
                "capacity_after": after,
                "bikes_at_open": bikes,
                "observed_events": [x for _, x in kept],
                "event_timestamps": [float(sec) for sec, _ in kept],
                "full_periods": full_p,
                "empty_periods": empty_p,
            }
        )
    return days


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def make_city(
    out: Path,
    seed: int,
    n_stations: int = 50,
    days: int = 14,
    n_closed: int = 6,
    n_added: int = 8,
    n_removed: int = 8,
    district: int = 8,
    observations: bool = True,
) -> City:
    """Write stations.json, profiles.json (true rates) and district.json
    (the true rates of the first ``district`` stations) under ``out``; with
    ``observations`` also trips.csv, status.csv and days.json.  Returns the
    city."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    stations = _stations(seed, n_stations)
    names = ["stations.json", "profiles.json", "district.json"]
    if observations:
        names += ["trips.csv", "status.csv", "days.json"]
    paths = {name: out / name for name in names}
    city = City(seed=seed, days=days, stations=stations, paths=paths)
    _write_json(
        paths["stations.json"],
        [
            {
                "id": st.id,
                "current_docks": st.capacity,
                "current_bikes": st.bikes,
                "l": LOWER,
                "u": UPPER,
                "lat": st.lat,
                "lon": st.lon,
            }
            for st in stations
        ],
    )
    for name, subset in (("profiles.json", stations), ("district.json", stations[:district])):
        _write_json(
            paths[name],
            {
                "horizon": {"intervals": INTERVALS, "minutes_per_interval": MINUTES_PER_INTERVAL, "start_hour": 0.0},
                "stations": [
                    {"id": st.id, "rental_rates": list(st.rentals), "return_rates": list(st.returns), "flags": []}
                    for st in subset
                ],
            },
        )
    if not observations:
        return city

    # Stations closed for night maintenance in a few intervals on every day:
    # those buckets have zero eligible minutes on both sides.
    rng = _rng(seed, 2)
    for idx in rng.permutation(n_stations)[:n_closed]:
        city.closed.append((stations[int(idx)].id, int(rng.integers(2, 10))))
    closed_by_station: dict[str, set[int]] = {}
    for sid, k in city.closed:
        closed_by_station.setdefault(sid, set()).add(k)

    for st in stations:
        for kind in ("rental", "return"):
            for k in range(INTERVALS):
                city.trip_counts[(st.id, kind, k)] = 0
                city.eligible_minutes[(st.id, kind, k)] = 0.0

    trip_rows = []
    status_rows = []
    rng = _rng(seed, 4)
    for day in range(days):
        for st in stations:
            closed = closed_by_station.get(st.id, set())
            kept, empty, full = _replay(_arrivals(rng, st, closed), st.capacity, st.bikes)
            for sec, x in kept:
                kind = "return" if x == 1 else "rental"
                trip_rows.append((day, sec, st.id, kind))
                city.trip_counts[(st.id, kind, sec // INTERVAL_SECONDS)] += 1
            for k in range(INTERVALS):
                if k in closed:
                    nonempty = nonfull = 0.0
                else:
                    nonempty = (INTERVAL_SECONDS - empty[k]) / 60.0
                    nonfull = (INTERVAL_SECONDS - full[k]) / 60.0
                status_rows.append((st.id, k, nonempty, nonfull))
                city.eligible_minutes[(st.id, "rental", k)] += nonempty
                city.eligible_minutes[(st.id, "return", k)] += nonfull
    trip_rows.sort()

    with open(paths["trips.csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "timestamp", "kind"])
        for day, sec, sid, kind in trip_rows:
            writer.writerow([sid, _stamp(day, sec), kind])
    with open(paths["status.csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "interval", "minutes_nonempty", "minutes_nonfull"])
        for sid, k, nonempty, nonfull in status_rows:
            writer.writerow([sid, k, repr(nonempty), repr(nonfull)])

    _write_json(paths["days.json"], {"days": _observed_days(seed, stations, n_added, n_removed, city)})
    return city

