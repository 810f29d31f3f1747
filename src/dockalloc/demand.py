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
import numbers
import os
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError, csv_lines, read_json, real_number, reading, whole_number

RENTAL = "rental"
RETURN = "return"


def _is_real(value) -> bool:
    """A real number and not a ``bool``; a float first, as the ABC check is slow."""
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _check_clock(owner, prefix: str) -> None:
    """The checks a ``Horizon`` and a ``PoissonProfile`` share, each message
    behind ``prefix``: real minutes, finite and positive, and a real start hour in [0, 24)."""
    for name in ("minutes_per_interval", "start_hour"):
        if not _is_real(getattr(owner, name)):
            raise ValidationError(f"{prefix}{name} must be a real number, got {getattr(owner, name)!r}")
    if not (math.isfinite(owner.minutes_per_interval) and owner.minutes_per_interval > 0):
        raise ValidationError(f"{prefix}minutes_per_interval must be finite and positive, got {owner.minutes_per_interval}")
    if not 0 <= owner.start_hour < 24:
        raise ValidationError(f"{prefix}start_hour must lie in [0, 24), got {owner.start_hour}")


@dataclass(frozen=True)
class Horizon:
    """Day horizon the rates are indexed by."""

    intervals: int = 48
    minutes_per_interval: float = 30.0
    start_hour: float = 0.0

    def __post_init__(self):
        # a whole count, as for the solver's counts: neither a float nor a bool
        if type(self.intervals) is not int:
            raise ValidationError(f"horizon intervals must be an integer, got {self.intervals!r}")
        if self.intervals < 1:
            raise ValidationError(f"horizon needs at least one interval, got {self.intervals}")
        _check_clock(self, "")


@dataclass(frozen=True, eq=False)
class Trips:
    """Trip rows as columns. Row ``i`` is a ``kinds[kind[i]]`` trip at
    station ``stations[station[i]]``, ``seconds[i]`` seconds after local
    midnight."""

    stations: tuple[str, ...]
    station: np.ndarray  # index into ``stations``
    seconds: np.ndarray  # float64
    kinds: tuple[str, ...]
    kind: np.ndarray  # index into ``kinds``

    def __len__(self) -> int:
        return len(self.seconds)


@dataclass(frozen=True, eq=False)
class StatusRows:
    """Station-status rows as columns: station ``stations[station[i]]`` was
    non-empty for ``minutes_nonempty[i]`` and non-full for
    ``minutes_nonfull[i]`` minutes of interval ``interval[i]`` of one day."""

    stations: tuple[str, ...]
    station: np.ndarray  # index into ``stations``
    interval: np.ndarray  # int64; object for an integer past int64
    minutes_nonempty: np.ndarray  # float64
    minutes_nonfull: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.interval)


@dataclass(frozen=True)
class PoissonProfile:
    """Per-minute rental/return rates, one pair per interval of the day."""

    station_id: str
    rental_rates: tuple[float, ...]
    return_rates: tuple[float, ...]
    minutes_per_interval: float = 30.0
    start_hour: float = 0.0
    flags: tuple[tuple[int, str, str], ...] = ()  # (interval, kind, flag)

    def __post_init__(self):
        if len(self.rental_rates) != len(self.return_rates):
            raise ValidationError(f"profile {self.station_id!r}: rate vectors differ in length")
        if not self.rental_rates:
            raise ValidationError(f"profile {self.station_id!r}: empty horizon")
        _check_clock(self, f"profile {self.station_id!r}: ")
        for r in (*self.rental_rates, *self.return_rates):
            if not _is_real(r):
                raise ValidationError(f"profile {self.station_id!r}: rate {r!r} is not a real number")
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


_SIDES = {RENTAL: 0, RETURN: 1}


def _trip_intervals(trips: Trips, horizon: Horizon) -> np.ndarray:
    """The interval of the horizon each trip falls in, as a float; a trip
    outside the horizon gets a value outside ``0..intervals - 1``."""
    return np.floor_divide(trips.seconds - horizon.start_hour * 3600.0, horizon.minutes_per_interval * 60.0)


def trips_outside_horizon(trips: Trips, horizon: Horizon) -> int:
    """How many trips fall before or after the horizon, which
    ``estimate_rates`` leaves out of every count."""
    index = _trip_intervals(trips, horizon)
    return int(np.count_nonzero(~((0 <= index) & (index < horizon.intervals))))


def _raise_first(faults) -> None:
    """Raise the message of the first faulty row in file order. ``faults``
    are ``(mask, message)`` pairs in the order a row is checked, where
    ``message(i)`` describes the fault of row ``i``."""
    rows = [int(mask.argmax()) for mask, _ in faults if mask.any()]
    if rows:
        row = min(rows)
        raise ValidationError(next(message(row) for mask, message in faults if mask[row]))


def _validate_status(status: StatusRows, horizon: Horizon) -> None:
    n, limit = horizon.intervals, horizon.minutes_per_interval

    def row(i):
        return f"status for station {status.stations[status.station[i]]!r}"

    def minutes_fault(name, minutes):
        def message(i):
            return f"{row(i)} interval {int(status.interval[i])} has {name}={float(minutes[i])} outside [0, {limit}]"

        return ~((0 <= minutes) & (minutes <= limit)), message

    _raise_first(
        [
            (
                ~((0 <= status.interval) & (status.interval < n)),
                lambda i: f"{row(i)} has interval {int(status.interval[i])} outside 0..{n - 1}",
            ),
            minutes_fault("minutes_nonempty", status.minutes_nonempty),
            minutes_fault("minutes_nonfull", status.minutes_nonfull),
        ]
    )


def estimate_rates(
    trips: Trips,
    status: StatusRows,
    days: int,
    horizon: Horizon = DEFAULT_HORIZON,
) -> list[PoissonProfile]:
    """Aggregate trips and station-status minutes into Poisson rate profiles.

    ``days`` is the number of days the inputs span; it is recorded for
    provenance but the rates themselves use the raw aggregated minutes.
    Trips outside the horizon count nowhere (``trips_outside_horizon``).
    Buckets with zero eligible minutes fall back to a one-minute denominator
    and are flagged ``censored_fallback``.  A bad row raises for the first
    one in file order: status rows, then trips, then trips at stations
    without status.
    """
    if days < 1:
        raise ValidationError(f"days must be >= 1, got {days}")
    _validate_status(status, horizon)

    def trip_sid(i):
        return trips.stations[trips.station[i]]

    side = np.array([_SIDES.get(kind, -1) for kind in trips.kinds], dtype=np.intp)[trips.kind]
    _raise_first(
        [
            (
                ~((0 <= trips.seconds) & (trips.seconds < 86400)),
                lambda i: f"trip at station {trip_sid(i)!r} has timestamp {float(trips.seconds[i])} outside [0, 86400)",
            ),
            (side < 0, lambda i: f"trip at station {trip_sid(i)!r} has unknown kind {trips.kinds[trips.kind[i]]!r}"),
        ]
    )

    covered = sorted({status.stations[code] for code in np.unique(status.station).tolist()})
    position = {sid: p for p, sid in enumerate(covered)}
    trip_profile = np.array([position.get(sid, -1) for sid in trips.stations], dtype=np.intp)[trips.station]
    _raise_first([(trip_profile < 0, lambda i: f"trip at station {trip_sid(i)!r} has no status coverage")])

    # One bucket per (station, side, interval); weighted bincount adds in
    # row order, so each bucket's minutes are summed in file order.
    n = horizon.intervals
    buckets = len(covered) * 2 * n
    index = _trip_intervals(trips, horizon)
    inside = (0 <= index) & (index < n)
    counts = np.bincount(
        ((trip_profile * 2 + side) * n)[inside] + index[inside].astype(np.intp), minlength=buckets
    ).reshape(-1, 2, n)
    status_profile = np.array([position.get(sid, -1) for sid in status.stations], dtype=np.intp)[status.station]
    nonempty = status_profile * 2 * n + status.interval.astype(np.intp)
    minutes = np.bincount(
        np.concatenate([nonempty, nonempty + n]),
        np.concatenate([status.minutes_nonempty, status.minutes_nonfull]),
        minlength=buckets,
    ).reshape(-1, 2, n)

    fallback = minutes <= 0
    rates = counts / np.where(fallback, CENSORED_FALLBACK_MINUTES, minutes)
    kinds = tuple(_SIDES)
    return [
        PoissonProfile(
            station_id=sid,
            rental_rates=tuple(rates[p, 0].tolist()),
            return_rates=tuple(rates[p, 1].tolist()),
            minutes_per_interval=horizon.minutes_per_interval,
            start_hour=horizon.start_hour,
            flags=tuple((idx, kinds[s], "censored_fallback") for s, idx in np.argwhere(fallback[p]).tolist()),
        )
        for p, sid in enumerate(covered)
    ]


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


def _csv_columns(path: str | Path, what: str, columns: Sequence[str]) -> tuple[list[list[str]], ValidationError | None]:
    """The ``columns`` fields of each non-blank row of the ``what`` CSV file
    at ``path``, read by ``csv.reader``, one list per column, and the fault
    that cut the reading short, if any. The header must name every column
    exactly once; other columns are ignored."""
    rows: list[tuple[str, ...]] = []  # tuples of str, which the garbage collector soon stops tracking
    fault = None
    try:
        with reading(path, f"{what} CSV"), open(path, newline="") as fh:
            reader = csv.reader(csv_lines(fh, path))
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
                    rows.append(pick(row))
                elif row:
                    raise ValidationError(
                        f"{path}, line {reader.line_num}: short row, {len(row)} fields where the header has {len(header)}"
                    )
    except ValidationError as exc:
        fault = exc
    return [list(map(itemgetter(k), rows)) for k in range(len(columns))], fault


# The widest field, in bytes, that the byte pass gathers.
_WINDOW = 64


def _plain_columns(path: str | Path, columns: Sequence[str]) -> list[np.ndarray] | None:
    """The ``columns`` fields of each data row of the CSV file at ``path``,
    one ``S`` array per column, from vector passes over the file's bytes; or
    None unless the file is plain. A plain file holds printable ASCII but
    '"' and line ends that are all LF or all CRLF, has no blank line, has a
    header that names every column once and at least one data row, and each
    of its rows has the header's field count. Its fields are at most
    ``_WINDOW`` bytes. On a plain file ``csv.reader`` reads the same fields."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buffer = np.zeros(size + _WINDOW, dtype=np.uint8)  # the padding keeps every window inside
            if fh.readinto(buffer[:size]) != size or fh.read(1):
                return None
    except OSError:
        return None
    text = buffer[:size]
    if text.max(initial=0) > ord("~") or (text == ord('"')).any():
        return None
    ends, returns, commas = (np.flatnonzero(text == ord(c)) for c in "\n\r,")
    if np.count_nonzero(text < ord(" ")) != len(ends) + len(returns):
        return None
    crlf = len(returns) > 0
    if crlf and not np.array_equal(returns + 1, ends):
        return None
    stops = ends - crlf
    if size and text[-1] != ord("\n"):
        stops = np.append(stops, size)
    starts = np.concatenate(([0], ends + 1))[: len(stops)]
    if len(stops) < 2 or (starts == stops).any():
        return None
    header = text[: stops[0]].tobytes().decode("ascii").split(",")
    if any(header.count(name) != 1 for name in columns):
        return None
    # Every line has the header's field count when each line holds its own
    # block of that many commas and no comma is left over.
    last = len(header) - 1
    if len(commas) != len(stops) * last:
        return None
    commas = commas.reshape(len(stops), last)
    if last and ((commas[:, 0] < starts) | (commas[:, -1] >= stops)).any():
        return None
    commas = commas[1:]
    fields = []
    for position in map(header.index, columns):
        lo = starts[1:] if position == 0 else commas[:, position - 1] + 1
        length = (stops[1:] if position == last else commas[:, position]) - lo
        if length.max() > _WINDOW:
            return None
        width = 8 * max(1, -(-int(length.max()) // 8))  # whole words, for ``_codes``
        field = sliding_window_view(buffer, width)[lo]
        for byte in range(int(length.min()), width):  # zero the bytes past each field's end
            field[:, byte] *= length > byte
        fields.append(field.view(f"S{width}")[:, 0])
    return fields


def _read_columns(path: str | Path, what: str, columns: Sequence[str]) -> tuple[list, ValidationError | None]:
    """The ``columns`` fields of the ``what`` CSV file at ``path``, and the
    fault that cut the reading short, if any. A plain file takes the byte
    pass, which gives one ``S`` array per column; any other file is read by
    ``csv.reader`` into one list of ``str`` per column, up to its first
    fault."""
    fields = _plain_columns(path, columns)
    if fields is not None:
        return fields, None
    return _csv_columns(path, what, columns)


def _texts(column) -> list[str]:
    """The fields of an ``S`` array or a list of ``str``, as ``str``."""
    return column.astype(str).tolist() if isinstance(column, np.ndarray) else column


def _codes(column) -> tuple[tuple[str, ...], np.ndarray]:
    """Codes of the fields of ``column`` by their stripped value, in order of
    first appearance, and the stripped values by code."""
    if isinstance(column, list):  # a dict, as np.unique sorts ``str`` objects slowly
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__
        key = np.fromiter(map(index.__getitem__, column), dtype=np.intp, count=len(column))
        raws = list(index)
    else:  # grouped by raw bytes, which sort faster than ``S``; one word as an integer
        width = column.dtype.itemsize
        raw, inverse = np.unique(column.view(np.uint64 if width == 8 else f"V{width}"), return_inverse=True)
        inverse = inverse.reshape(-1)
        first = np.full(len(raw), len(column))
        np.minimum.at(first, inverse, np.arange(len(column)))
        order = np.argsort(first)
        key = np.argsort(order)[inverse]
        raws = _texts(column[first[order]])
    names: dict[str, int] = {}
    code = np.array([names.setdefault(raw.strip(), len(names)) for raw in raws], dtype=np.intp)
    return tuple(names), code[key]


# Positions of the digits of a strict YYYY-MM-DD[T ]HH:MM:SS stamp.
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]


def _strict_seconds(stamps) -> np.ndarray | None:
    """Seconds since midnight of every stamp, in one vector pass, if each is
    exactly ``YYYY-MM-DD[T ]HH:MM:SS`` with a valid date and time; else
    None. ``stamps`` is an ``S`` array or a list of ``str``. Each
    distinct date is checked by the parser the row path uses."""
    if isinstance(stamps, np.ndarray):
        text = stamps.view(np.uint8).reshape(len(stamps), stamps.dtype.itemsize)
        if text.shape[1] < 19 or text[:, 19:].any():
            return None
        text = text[:, :19]
    else:
        if set(map(len, stamps)) != {19}:
            return None
        try:
            text = np.frombuffer("".join(stamps).encode("ascii"), dtype=np.uint8).reshape(-1, 19)
        except UnicodeEncodeError:
            return None
    digit = text - np.uint8(ord("0"))  # wraps past 9 for any non-digit byte
    if (digit[:, _STAMP_DIGITS] > 9).any():
        return None
    sep = text[:, 10]
    if not (
        (text[:, [4, 7]] == ord("-")).all()
        and (text[:, [13, 16]] == ord(":")).all()
        and ((sep == ord("T")) | (sep == ord(" "))).all()
    ):
        return None

    def number(first: int, width: int) -> np.ndarray:
        value = digit[:, first].astype(np.int32)
        for k in range(first + 1, first + width):
            value = value * 10 + digit[:, k]
        return value

    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    if (hour > 23).any() or (minute > 59).any() or (second > 59).any():
        return None
    day = number(0, 4) * 10000 + number(5, 2) * 100 + number(8, 2)
    try:
        for row in np.unique(day, return_index=True)[1].tolist():
            datetime.fromisoformat(text[row].tobytes().decode())
    except ValueError:
        return None
    return (hour * 3600 + minute * 60 + second).astype(np.float64)


def _seconds(stamps) -> np.ndarray:
    """Seconds since midnight of each stamp: one vector pass when every stamp
    is strict, else ``_parse_timestamp`` stamp by stamp, raising for the first
    bad stamp."""
    seconds = _strict_seconds(stamps)
    if seconds is None:
        seconds = np.array([_parse_timestamp(stamp) for stamp in _texts(stamps)], dtype=np.float64)
    return seconds


def _numbers(column, parse, dtype) -> tuple[np.ndarray, int]:
    """``column`` parsed by ``parse`` into a ``dtype`` array, and the row of
    the first field that ``parse`` rejects (``len(column)`` if none). Each
    distinct stripped field is parsed once, in order of first appearance, up
    to the first one rejected. An integer past int64 turns the column into
    Python ints."""
    names, code = _codes(column)
    parsed: list = []
    try:
        for name in names:
            parsed.append(parse(name))
    except ValueError:  # ``parsed`` holds the fields before the rejected one
        pass
    values = np.zeros(len(names), dtype=dtype)
    try:
        values[: len(parsed)] = parsed
    except OverflowError:  # kept exact, so its validation error names it
        values = values.astype(object)
        values[: len(parsed)] = parsed
    return values[code], int((code == len(parsed)).argmax()) if len(parsed) < len(names) else len(code)


_TRIP_COLUMNS = ("station_id", "timestamp", "kind")


def load_trips_csv(path: str | Path) -> Trips:
    """Read ``station_id,timestamp,kind`` rows; timestamps may be integer
    seconds since midnight or ISO-8601 (auto-detected)."""
    (station, stamp, kind), fault = _read_columns(path, "trips", _TRIP_COLUMNS)
    seconds = _seconds(stamp)  # a bad stamp above the fault is the first fault
    if fault is not None:
        raise fault
    return Trips(*_codes(station), seconds, *_codes(kind))


_STATUS_COLUMNS = ("station_id", "interval", "minutes_nonempty", "minutes_nonfull")


def load_status_csv(path: str | Path) -> StatusRows:
    """Read ``station_id,interval,minutes_nonempty,minutes_nonfull`` rows."""
    columns, fault = _read_columns(path, "status", _STATUS_COLUMNS)
    values, rows = zip(*map(_numbers, columns[1:], (int, float, float), (np.int64, np.float64, np.float64)))
    if (bad := min(rows)) < len(columns[0]):
        row = [_texts(column[bad : bad + 1])[0] for column in columns]
        raise ValidationError(f"{path}: bad status row {dict(zip(_STATUS_COLUMNS, row))}")
    if fault is not None:
        raise fault
    return StatusRows(*_codes(columns[0]), *values)


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
            minutes_per_interval=real_number(h["minutes_per_interval"], "minutes_per_interval"),
            start_hour=real_number(h.get("start_hour", 0.0), "start_hour"),
        )
        profiles = [
            PoissonProfile(
                station_id=str(s["id"]),
                rental_rates=tuple(real_number(r, "rate") for r in s["rental_rates"]),
                return_rates=tuple(real_number(r, "rate") for r in s["return_rates"]),
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
    for p in profiles:
        if p.intervals != horizon.intervals:
            raise ValidationError(f"profile {p.station_id!r} has {p.intervals} intervals, horizon says {horizon.intervals}")
    return horizon, profiles


def save_profiles(path: str | Path, profiles: Sequence[PoissonProfile], horizon: Horizon, days: int | None = None) -> None:
    Path(path).write_text(json.dumps(profiles_to_json(profiles, horizon, days), indent=2, sort_keys=True))


def load_profiles(path: str | Path) -> tuple[Horizon, list[PoissonProfile]]:
    return profiles_from_json(read_json(path, "profiles"))
