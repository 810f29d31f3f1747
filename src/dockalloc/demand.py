"""Demand ingestion: trip/status records to per-station Poisson rate profiles.

Rates are estimated per interval of the day by dividing observed rentals
(returns) by the number of minutes the station was non-empty (non-full),
which corrects for demand that is unobservable while a station is empty or
full.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ValidationError, read_json, reading, whole_number

RENTAL = "rental"
RETURN = "return"


@dataclass(frozen=True)
class Horizon:
    """Day horizon the rates are indexed by."""

    intervals: int = 48
    minutes_per_interval: float = 30.0
    start_hour: float = 0.0

    def validate(self) -> None:
        if self.intervals < 1:
            raise ValidationError(f"horizon needs at least one interval, got {self.intervals}")
        if not (math.isfinite(self.minutes_per_interval) and self.minutes_per_interval > 0):
            raise ValidationError(f"minutes_per_interval must be finite and positive, got {self.minutes_per_interval}")
        if not 0 <= self.start_hour < 24:
            raise ValidationError(f"start_hour must lie in [0, 24), got {self.start_hour}")


@dataclass(frozen=True)
class TripRecord:
    station_id: str
    timestamp: float  # seconds since local midnight
    kind: str  # "rental" | "return"

    def validate(self) -> None:
        if not 0 <= self.timestamp < 86400:
            raise ValidationError(f"trip at station {self.station_id!r} has timestamp {self.timestamp} outside [0, 86400)")
        if self.kind not in (RENTAL, RETURN):
            raise ValidationError(f"trip at station {self.station_id!r} has unknown kind {self.kind!r}")


@dataclass(frozen=True)
class StatusRecord:
    station_id: str
    interval_index: int
    minutes_nonempty: float
    minutes_nonfull: float

    def validate(self, horizon: Horizon) -> None:
        if not 0 <= self.interval_index < horizon.intervals:
            raise ValidationError(
                f"status for station {self.station_id!r} has interval {self.interval_index} outside 0..{horizon.intervals - 1}"
            )
        for name, minutes in (("minutes_nonempty", self.minutes_nonempty), ("minutes_nonfull", self.minutes_nonfull)):
            if not 0 <= minutes <= horizon.minutes_per_interval:
                raise ValidationError(
                    f"status for station {self.station_id!r} interval {self.interval_index} has {name}={minutes} outside [0, {horizon.minutes_per_interval}]"
                )


@dataclass(frozen=True)
class PoissonProfile:
    """Per-minute rental/return rates, one pair per interval of the day."""

    station_id: str
    rental_rates: tuple[float, ...]
    return_rates: tuple[float, ...]
    minutes_per_interval: float = 30.0
    start_hour: float = 0.0
    flags: tuple[tuple[int, str, str], ...] = ()  # (interval, kind, flag)

    def validate(self) -> None:
        if len(self.rental_rates) != len(self.return_rates):
            raise ValidationError(f"profile {self.station_id!r}: rate vectors differ in length")
        if not self.rental_rates:
            raise ValidationError(f"profile {self.station_id!r}: empty horizon")
        if not (math.isfinite(self.minutes_per_interval) and self.minutes_per_interval > 0):
            raise ValidationError(
                f"profile {self.station_id!r}: minutes_per_interval must be finite and positive, got {self.minutes_per_interval}"
            )
        for rates in (self.rental_rates, self.return_rates):
            for r in rates:
                if not (r >= 0 and r == r and r != float("inf")):
                    raise ValidationError(f"profile {self.station_id!r}: rate {r} is not finite and non-negative")
        for interval, kind, _ in self.flags:
            if not 0 <= interval < self.intervals:
                raise ValidationError(
                    f"profile {self.station_id!r}: flag interval {interval} outside the {self.intervals}-interval horizon"
                )
            if kind not in (RENTAL, RETURN):
                raise ValidationError(f"profile {self.station_id!r}: flag kind {kind!r} is not {RENTAL!r} or {RETURN!r}")

    @property
    def intervals(self) -> int:
        return len(self.rental_rates)


DEFAULT_HORIZON = Horizon()

# Denominator floor, in minutes, for buckets with no eligible observation time.
CENSORED_FALLBACK_MINUTES = 1.0


def estimate_rates(
    trips: Sequence[TripRecord],
    status: Sequence[StatusRecord],
    days: int,
    horizon: Horizon = DEFAULT_HORIZON,
) -> list[PoissonProfile]:
    """Aggregate trips and station-status minutes into Poisson rate profiles.

    ``days`` is the number of days the inputs span; it is recorded for
    provenance but the rates themselves use the raw aggregated minutes.
    Buckets with zero eligible minutes fall back to a one-minute denominator
    and are flagged ``censored_fallback``.
    """
    horizon.validate()
    if days < 1:
        raise ValidationError(f"days must be >= 1, got {days}")
    for rec in status:
        rec.validate(horizon)
    for trip in trips:
        trip.validate()

    covered = {rec.station_id for rec in status}
    for trip in trips:
        if trip.station_id not in covered:
            raise ValidationError(f"trip at station {trip.station_id!r} has no status coverage")

    n = horizon.intervals
    seconds_per_interval = horizon.minutes_per_interval * 60.0
    start_second = horizon.start_hour * 3600.0

    counts: dict[str, list[list[int]]] = {sid: [[0] * n, [0] * n] for sid in covered}
    minutes: dict[str, list[list[float]]] = {sid: [[0.0] * n, [0.0] * n] for sid in covered}

    for trip in trips:
        idx = int((trip.timestamp - start_second) // seconds_per_interval)
        if not 0 <= idx < n:
            continue  # outside the configured horizon
        counts[trip.station_id][0 if trip.kind == RENTAL else 1][idx] += 1
    for rec in status:
        minutes[rec.station_id][0][rec.interval_index] += rec.minutes_nonempty
        minutes[rec.station_id][1][rec.interval_index] += rec.minutes_nonfull

    profiles = []
    for sid in sorted(covered):
        rates: list[list[float]] = [[0.0] * n, [0.0] * n]
        flags: list[tuple[int, str, str]] = []
        for side, kind in ((0, RENTAL), (1, RETURN)):
            for idx in range(n):
                num = counts[sid][side][idx]
                den = minutes[sid][side][idx]
                if den <= 0:
                    den = CENSORED_FALLBACK_MINUTES
                    flags.append((idx, kind, "censored_fallback"))
                rates[side][idx] = num / den
        profiles.append(
            PoissonProfile(
                station_id=sid,
                rental_rates=tuple(rates[0]),
                return_rates=tuple(rates[1]),
                minutes_per_interval=horizon.minutes_per_interval,
                start_hour=horizon.start_hour,
                flags=tuple(flags),
            )
        )
    return profiles


def _parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    # An int literal has no ':' and no '-' past its sign, so an ISO stamp
    # goes straight to fromisoformat instead of raising in int() first.
    if ":" not in raw and "-" not in raw[1:]:
        try:
            return float(int(raw))
        except (ValueError, OverflowError):  # overflow: an integer too large for a float
            pass
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValidationError(f"cannot parse timestamp {raw!r} as seconds or ISO-8601") from exc
    return stamp.hour * 3600 + stamp.minute * 60 + stamp.second + stamp.microsecond / 1e6


def _csv_rows(path: str | Path, what: str, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The ``columns`` fields, in that order, of each non-blank row of the
    ``what`` CSV file at ``path``. The header must name every column exactly
    once; other columns are ignored."""
    with reading(path, f"{what} CSV"), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(columns).issubset(header):
            raise ValidationError(f"{path}: {what} CSV must have header {','.join(columns)}")
        for name in columns:
            if header.count(name) > 1:
                raise ValidationError(f"{path}: column {name!r} appears {header.count(name)} times in the header")
        positions = [header.index(name) for name in columns]
        pick = itemgetter(*positions)
        width = max(positions) + 1
        for row in reader:
            if len(row) >= width:
                yield pick(row)
            elif row:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: short row, {len(row)} fields where the header has {len(header)}"
                )


def load_trips_csv(path: str | Path) -> list[TripRecord]:
    """Read ``station_id,timestamp,kind`` rows; timestamps may be integer
    seconds since midnight or ISO-8601 (auto-detected)."""
    rows = _csv_rows(path, "trips", ("station_id", "timestamp", "kind"))
    return [TripRecord(sid.strip(), _parse_timestamp(stamp), kind.strip()) for sid, stamp, kind in rows]


_STATUS_COLUMNS = ("station_id", "interval", "minutes_nonempty", "minutes_nonfull")


def load_status_csv(path: str | Path) -> list[StatusRecord]:
    """Read ``station_id,interval,minutes_nonempty,minutes_nonfull`` rows."""
    records = []
    for row in _csv_rows(path, "status", _STATUS_COLUMNS):
        sid, interval, nonempty, nonfull = row
        try:
            records.append(StatusRecord(sid.strip(), int(interval), float(nonempty), float(nonfull)))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad status row {dict(zip(_STATUS_COLUMNS, row))}") from exc
    return records


def profiles_to_json(profiles: Sequence[PoissonProfile], horizon: Horizon, days: int | None = None) -> dict:
    doc = {
        "horizon": {
            "intervals": horizon.intervals,
            "minutes_per_interval": horizon.minutes_per_interval,
            "start_hour": horizon.start_hour,
        },
        "stations": [
            {
                "id": p.station_id,
                "rental_rates": list(p.rental_rates),
                "return_rates": list(p.return_rates),
                "flags": [{"interval": i, "kind": k, "flag": f} for i, k, f in p.flags],
            }
            for p in profiles
        ],
    }
    if days is not None:
        doc["days"] = days
    return doc


def profiles_from_json(doc: dict) -> tuple[Horizon, list[PoissonProfile]]:
    try:
        h = doc["horizon"]
        horizon = Horizon(
            intervals=whole_number(h["intervals"], "horizon intervals"),
            minutes_per_interval=float(h["minutes_per_interval"]),
            start_hour=float(h.get("start_hour", 0.0)),
        )
        profiles = [
            PoissonProfile(
                station_id=str(s["id"]),
                rental_rates=tuple(float(r) for r in s["rental_rates"]),
                return_rates=tuple(float(r) for r in s["return_rates"]),
                minutes_per_interval=horizon.minutes_per_interval,
                start_hour=horizon.start_hour,
                flags=tuple(
                    (whole_number(f["interval"], "flag interval"), str(f["kind"]), str(f["flag"]))
                    for f in s.get("flags", [])
                ),
            )
            for s in doc["stations"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed profiles document: {exc}") from exc
    horizon.validate()
    for p in profiles:
        p.validate()
        if p.intervals != horizon.intervals:
            raise ValidationError(f"profile {p.station_id!r} has {p.intervals} intervals, horizon says {horizon.intervals}")
    return horizon, profiles


def save_profiles(path: str | Path, profiles: Sequence[PoissonProfile], horizon: Horizon, days: int | None = None) -> None:
    Path(path).write_text(json.dumps(profiles_to_json(profiles, horizon, days), indent=2, sort_keys=True))


def load_profiles(path: str | Path) -> tuple[Horizon, list[PoissonProfile]]:
    return profiles_from_json(read_json(path, "profiles"))
