import csv
import dataclasses
import io
import json
import math
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockalloc.demand import (
    Horizon,
    PoissonProfile,
    StatusRows,
    Trips,
    _strict_seconds,
    estimate_rates,
    load_profiles,
    load_status_csv,
    load_trips_csv,
    _parse_timestamp,
    save_profiles,
    trips_outside_horizon,
)
from dockalloc import demand
from dockalloc.cli import main
from dockalloc.errors import ValidationError, reading


def coded(values):
    names = list(dict.fromkeys(values))
    return tuple(names), np.array([names.index(v) for v in values], dtype=np.intp)


def trips_of(rows):
    """Trips from ``(station, seconds, kind)`` rows."""
    stations, station = coded([r[0] for r in rows])
    kinds, kind = coded([r[2] for r in rows])
    return Trips(stations, station, np.array([r[1] for r in rows], dtype=np.float64), kinds, kind)


def status_of(rows):
    """StatusRows from ``(station, interval, minutes_nonempty, minutes_nonfull)`` rows."""
    stations, station = coded([r[0] for r in rows])
    columns = [np.array([r[k] for r in rows], dtype=dtype) for k, dtype in ((1, np.int64), (2, np.float64), (3, np.float64))]
    return StatusRows(stations, station, *columns)


def rates(trips, status, days, horizon=Horizon()):
    return estimate_rates(trips_of(trips), status_of(status), days, horizon)


def status(sid, interval, nonempty, nonfull=30.0):
    return (sid, interval, nonempty, nonfull)


def trips_in_bucket(sid, interval, count, kind="rental"):
    base = interval * 1800
    return [(sid, base + 10 * i, kind) for i in range(count)]


def test_rate_is_count_over_minutes():
    trips = trips_in_bucket("a", 4, 10)
    profiles = rates(trips, [status("a", 4, 20.0)], days=1)
    assert profiles[0].rental_rates[4] == pytest.approx(0.5)


def test_zero_numerator_gives_zero_rate():
    profiles = rates([], [status("a", 0, 30.0)], days=1)
    assert profiles[0].rental_rates[0] == 0.0


def test_zero_minutes_falls_back_to_one_minute_and_flags():
    trips = trips_in_bucket("a", 7, 5)
    profiles = rates(trips, [status("a", 7, 0.0)], days=1)
    p = profiles[0]
    assert p.rental_rates[7] == pytest.approx(5.0)
    assert (7, "rental", "censored_fallback") in p.flags


def test_aggregation_depends_only_on_totals():
    trips = trips_in_bucket("a", 3, 6) + trips_in_bucket("a", 3, 2, kind="return")
    one_day = rates(trips, [status("a", 3, 12.0, 18.0)], days=1)
    # same trips attributed across two days whose minutes sum to the same totals
    two_days = rates(trips, [status("a", 3, 5.0, 10.0), status("a", 3, 7.0, 8.0)], days=2)
    assert one_day[0].rental_rates == two_days[0].rental_rates
    assert one_day[0].return_rates == two_days[0].return_rates


def test_doubling_minutes_halves_rates():
    trips = trips_in_bucket("a", 1, 8)
    single = rates(trips, [status("a", 1, 15.0)], days=1)
    double = rates(trips, [status("a", 1, 15.0), status("a", 1, 15.0)], days=2)
    assert double[0].rental_rates[1] == pytest.approx(single[0].rental_rates[1] / 2)


def test_profile_count_matches_distinct_stations():
    records = [status("a", 0, 10.0), status("b", 0, 10.0), status("c", 5, 10.0)]
    profiles = rates(trips_in_bucket("a", 0, 1), records, days=1)
    assert sorted(p.station_id for p in profiles) == ["a", "b", "c"]


def test_empty_trips_is_not_an_error():
    assert rates([], [], days=1) == []


def test_negative_timestamp_names_the_record():
    with pytest.raises(ValidationError, match="station 'bad'"):
        rates([("bad", -5, "rental")], [status("bad", 0, 1.0)], days=1)


def test_negative_minutes_rejected():
    with pytest.raises(ValidationError, match="minutes_nonempty"):
        rates([], [status("a", 0, -1.0)], days=1)


def test_infinite_interval_length_rejected():
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        Horizon(intervals=2, minutes_per_interval=float("inf"))
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        dataclasses.replace(Horizon(intervals=2), minutes_per_interval=float("inf"))


@pytest.mark.parametrize("minutes", [float("nan"), float("inf"), 0.0, -30.0])
def test_profile_interval_length_must_be_finite_and_positive(minutes):
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        PoissonProfile("a", (0.0,), (0.0,), minutes_per_interval=minutes)
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        dataclasses.replace(PoissonProfile("a", (0.0,), (0.0,)), minutes_per_interval=minutes)


def test_uncovered_trip_station_rejected():
    with pytest.raises(ValidationError, match="no status coverage"):
        rates([("ghost", 100, "rental")], [status("a", 0, 1.0)], days=1)


def test_custom_horizon_start_hour_shifts_buckets():
    horizon = Horizon(intervals=36, minutes_per_interval=30.0, start_hour=6.0)
    trips = [("a", 6 * 3600 + 100, "rental")]
    profiles = rates(trips, [status("a", 0, 10.0)], days=1, horizon=horizon)
    assert profiles[0].rental_rates[0] == pytest.approx(0.1)
    assert profiles[0].intervals == 36


def test_trip_before_start_hour_is_counted_outside_the_horizon(tmp_path, capsys):
    trips = tmp_path / "trips.csv"
    trips.write_text("station_id,timestamp,kind\na,2026-06-02T05:00:00,rental\na,2026-06-02T06:10:00,rental\n")
    status = tmp_path / "status.csv"
    status.write_text("station_id,interval,minutes_nonempty,minutes_nonfull\na,0,20,30\n")
    horizon = Horizon(intervals=4, minutes_per_interval=30.0, start_hour=6.0)
    assert trips_outside_horizon(load_trips_csv(trips), horizon) == 1
    out = tmp_path / "est"
    argv = ["estimate", "--trips", str(trips), "--status", str(status), "--days", "1", "--intervals", "4", "--start-hour", "6"]
    assert main([*argv, "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats == {"trips": 2, "status_rows": 1, "trips_outside_horizon": 1, "censored_fallback": 6}
    _, (profile,) = load_profiles(out / "profiles.json")
    assert profile.rental_rates == (1 / 20, 0.0, 0.0, 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "stats" not in json.dumps(manifest)


def test_csv_loaders_and_timestamp_autodetect(tmp_path):
    trips_path = tmp_path / "trips.csv"
    trips_path.write_text(
        "station_id,timestamp,kind\n"
        "a,3600,rental\n"
        "a,2026-06-02T01:00:30,return\n"
    )
    trips = load_trips_csv(trips_path)
    assert trips.seconds.tolist() == [3600.0, 3630.0]
    assert [trips.kinds[k] for k in trips.kind] == ["rental", "return"]
    status_path = tmp_path / "status.csv"
    status_path.write_text("station_id,interval,minutes_nonempty,minutes_nonfull\na,2,25,30\n")
    records = load_status_csv(status_path)
    assert records.interval.tolist() == [2]
    assert len(records) == 1


def test_profiles_json_round_trip(tmp_path):
    trips = trips_in_bucket("a", 2, 4)
    profiles = rates(trips, [status("a", 2, 10.0)], days=1)
    path = tmp_path / "profiles.json"
    save_profiles(path, profiles, Horizon(), days=1)
    horizon, loaded = load_profiles(path)
    assert horizon == Horizon()
    assert loaded[0].rental_rates == profiles[0].rental_rates
    assert loaded[0].flags == profiles[0].flags
    doc = json.loads(path.read_text())
    assert set(doc["horizon"]) == {"intervals", "minutes_per_interval", "start_hour"}


@pytest.mark.parametrize(
    "flag",
    [
        {"interval": 99, "kind": "rental", "flag": "censored_fallback"},
        {"interval": -1, "kind": "return", "flag": "censored_fallback"},
        {"interval": 1, "kind": "arrival", "flag": "censored_fallback"},
    ],
    ids=["interval-past-horizon", "negative-interval", "unknown-kind"],
)
def test_profiles_json_rejects_malformed_flags(tmp_path, capsys, flag):
    path = tmp_path / "profiles.json"
    path.write_text(
        json.dumps(
            {
                "horizon": {"intervals": 2, "minutes_per_interval": 30.0, "start_hour": 0.0},
                "stations": [{"id": "a", "rental_rates": [0.1, 0.1], "return_rates": [0.1, 0.1], "flags": [flag]}],
            }
        )
    )
    with pytest.raises(ValidationError, match="'a'"):
        load_profiles(path)
    assert main(["tables", "--profiles", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "validation"



def write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "loader, text, fields",
    [
        (load_trips_csv, "station_id,timestamp,kind\na,60,rental\nb,120\n", 2),
        (load_status_csv, "station_id,interval,minutes_nonempty,minutes_nonfull\na,0,30,30\na,1,30\n", 3),
    ],
    ids=["trips", "status"],
)
def test_short_row_names_file_and_line(tmp_path, loader, text, fields):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError, match=re.escape(f"{path}, line 3: short row, {fields} fields")):
        loader(path)


def test_short_row_that_holds_every_required_column_loads(tmp_path):
    trips = load_trips_csv(write(tmp_path, "station_id,timestamp,kind,note\na,60,rental\n"))
    assert table(trips) == [("a", 60.0, "rental")]


@pytest.mark.parametrize(
    "loader, header",
    [
        (load_trips_csv, "station_id,timestamp,kind,kind"),
        (load_status_csv, "interval,station_id,interval,minutes_nonempty,minutes_nonfull"),
    ],
    ids=["trips", "status"],
)
def test_repeated_required_column_rejected(tmp_path, loader, header):
    path = write(tmp_path, header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
    with pytest.raises(ValidationError, match="appears 2 times in the header"):
        loader(path)


# The record path the columns replaced: per-row records, the loaders that
# built them and the rate loop over them.  The column loaders and
# ``estimate_rates`` must return the same values and raise the same errors.
@dataclass(frozen=True)
class TripRecord:
    station_id: str
    timestamp: float  # seconds since local midnight
    kind: str  # "rental" | "return"

    def validate(self) -> None:
        if not 0 <= self.timestamp < 86400:
            raise ValidationError(f"trip at station {self.station_id!r} has timestamp {self.timestamp} outside [0, 86400)")
        if self.kind not in ("rental", "return"):
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


def record_estimate_rates(trips, status, days, horizon=Horizon()):
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
    counts = {sid: [[0] * n, [0] * n] for sid in covered}
    minutes = {sid: [[0.0] * n, [0.0] * n] for sid in covered}
    for trip in trips:
        idx = int((trip.timestamp - start_second) // seconds_per_interval)
        if 0 <= idx < n:
            counts[trip.station_id][0 if trip.kind == "rental" else 1][idx] += 1
    for rec in status:
        minutes[rec.station_id][0][rec.interval_index] += rec.minutes_nonempty
        minutes[rec.station_id][1][rec.interval_index] += rec.minutes_nonfull
    profiles = []
    for sid in sorted(covered):
        rates = [[0.0] * n, [0.0] * n]
        flags = []
        for side, kind in ((0, "rental"), (1, "return")):
            for idx in range(n):
                den = minutes[sid][side][idx]
                if den <= 0:
                    den = 1.0
                    flags.append((idx, kind, "censored_fallback"))
                rates[side][idx] = counts[sid][side][idx] / den
        profiles.append(
            PoissonProfile(sid, tuple(rates[0]), tuple(rates[1]), horizon.minutes_per_interval, horizon.start_hour, tuple(flags))
        )
    return profiles


def record_csv_rows(path, what, columns):
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


def record_load_trips_csv(path):
    rows = record_csv_rows(path, "trips", ("station_id", "timestamp", "kind"))
    return [TripRecord(sid.strip(), _parse_timestamp(stamp), kind.strip()) for sid, stamp, kind in rows]


def record_load_status_csv(path):
    columns = ("station_id", "interval", "minutes_nonempty", "minutes_nonfull")
    records = []
    for row in record_csv_rows(path, "status", columns):
        sid, interval, nonempty, nonfull = row
        try:
            records.append(StatusRecord(sid.strip(), int(interval), float(nonempty), float(nonfull)))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad status row {dict(zip(columns, row))}") from exc
    return records


def table(loaded):
    """Columns or records as a list of row tuples of plain Python values."""
    if isinstance(loaded, Trips):
        kinds = [loaded.kinds[k] for k in loaded.kind.tolist()]
        return list(zip([loaded.stations[c] for c in loaded.station.tolist()], loaded.seconds.tolist(), kinds))
    if isinstance(loaded, StatusRows):
        columns = (loaded.interval, loaded.minutes_nonempty, loaded.minutes_nonfull)
        return list(zip([loaded.stations[c] for c in loaded.station.tolist()], *(c.tolist() for c in columns)))
    return [dataclasses.astuple(record) for record in loaded]


# The DictReader loaders and timestamp parser as they were before the
# positional row reader: the reference the loaders must agree with.  Both
# parsers map an integer stamp too large for a float to a ValidationError.
def reference_parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    try:
        return float(int(raw))
    except (ValueError, OverflowError):
        pass
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValidationError(f"cannot parse timestamp {raw!r} as seconds or ISO-8601") from exc
    return stamp.hour * 3600 + stamp.minute * 60 + stamp.second + stamp.microsecond / 1e6


def reference_load_trips_csv(path):
    trips = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "timestamp", "kind"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(f"{path}: trips CSV must have header station_id,timestamp,kind")
        for row in reader:
            trips.append(
                TripRecord(
                    station_id=row["station_id"].strip(),
                    timestamp=reference_parse_timestamp(row["timestamp"]),
                    kind=row["kind"].strip(),
                )
            )
    return trips


def reference_load_status_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "interval", "minutes_nonempty", "minutes_nonfull"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(
                f"{path}: status CSV must have header station_id,interval,minutes_nonempty,minutes_nonfull"
            )
        for row in reader:
            try:
                records.append(
                    StatusRecord(
                        station_id=row["station_id"].strip(),
                        interval_index=int(row["interval"]),
                        minutes_nonempty=float(row["minutes_nonempty"]),
                        minutes_nonfull=float(row["minutes_nonfull"]),
                    )
                )
            except ValueError as exc:
                raise ValidationError(f"{path}: bad status row {row}") from exc
    return records


def outcome(parse, *args):
    """What ``parse`` returns, or the type and message of what it raises."""
    try:
        return "ok", parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def padded(fields):
    return st.tuples(st.sampled_from(["", " ", "\t"]), fields, st.sampled_from(["", " ", "  "])).map("".join)


_iso_stamps = st.builds(
    "{}{}{:02d}:{:02d}:{:02d}{}{}".format,
    st.sampled_from(["2026-06-02", "2026-12-31", "1999-01-01"]),
    st.sampled_from(["T", " "]),
    st.integers(0, 23),
    st.integers(0, 59),
    st.integers(0, 59),
    st.sampled_from(["", ".5", ".123", ".123456"]),
    st.sampled_from(["", "+00:00", "+05:30", "-08:00", "Z"]),
)
_second_stamps = st.one_of(
    st.integers(-90_000, 90_000).map(str),
    st.sampled_from(["+12", "-5", "1_000", "²", "007", "٣٦٠٠", "-0", "9" * 400, "-" + "9" * 400]),
)
_bad_stamps = st.sampled_from(
    ["", "noon", "1.5", "12:30", "25:00:00", "2026-13-01T00:00:00", "--5", "5-", "1__0", "2026-06-02T01:00:30+", "20260602T010030"]
)
timestamps = padded(st.one_of(_iso_stamps, _second_stamps, _bad_stamps))


@given(st.one_of(timestamps, st.text(max_size=30)))
@settings(max_examples=300)
def test_timestamp_parse_matches_reference(raw):
    assert outcome(_parse_timestamp, raw) == outcome(reference_parse_timestamp, raw)


TRIP_FIELDS = {
    "station_id": padded(st.sampled_from(["a", "b", "st 7", ""])),
    "timestamp": timestamps,
    "kind": padded(st.sampled_from(["rental", "return", "x"])),
}
STATUS_FIELDS = {
    "station_id": padded(st.sampled_from(["a", "b", "st 7", ""])),
    "interval": padded(st.one_of(st.integers(-2, 60).map(str), st.sampled_from(["3.0", "x", "+4", "", "9" * 25, "-" + "9" * 19]))),
    "minutes_nonempty": padded(st.one_of(st.floats(-1, 40).map(repr), st.sampled_from(["30", "nan", "inf", "1e1", "x"]))),
    "minutes_nonfull": padded(st.one_of(st.floats(-1, 40).map(repr), st.sampled_from(["30", "-0.0", "x", ""]))),
}
EXTRA_FIELDS = {"note": padded(st.sampled_from(["", "ok", "a,b", 'say "hi"'])), "day": st.integers(0, 13).map(str)}


@st.composite
def csv_texts(draw, fields):
    """CSV text with the ``fields`` columns, some extra ones, all permuted;
    CRLF or LF lines, blank lines, and rows cut short or run long."""
    header = draw(st.permutations(list(fields) + draw(st.lists(st.sampled_from(list(EXTRA_FIELDS)), unique=True))))
    strategies = {**fields, **EXTRA_FIELDS}
    if draw(st.integers(0, 9)) == 0:  # a column name with space around it does not count
        header[0] = f" {header[0]}"
        strategies[header[0]] = strategies[header[0][1:]]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            buffer.write(writer.dialect.lineterminator)
            continue
        row = [draw(strategies[name]) for name in header]
        shape = draw(st.integers(0, 9))
        if shape == 0:
            row = row[: draw(st.integers(1, len(header)))]
        elif shape == 1:
            row += ["surplus"]
        writer.writerow(row)
    return buffer.getvalue()


def loaded(loader, path):
    """The rows ``loader`` reads, by ``repr`` so NaN fields compare equal;
    ``"rejected"`` for a ValidationError, ``"short row"`` for a reference
    crash on a field that a short row lacks."""
    try:
        return repr(table(loader(path)))
    except ValidationError:
        return "rejected"
    except (AttributeError, TypeError):
        assert loader in (reference_load_trips_csv, reference_load_status_csv)
        return "short row"


def read_outcome(loader, path):
    """The rows ``loader`` reads, by ``repr``, or the type and message of
    what it raises."""
    kind, value = outcome(loader, path)
    return (kind, repr(table(value))) if kind == "ok" else (kind, value)


# Whole files of strict YYYY-MM-DD[T ]HH:MM:SS stamps take the vector path;
# about one file in three has one stamp that only looks strict.
_strict_stamps = st.builds(
    "{}{}{:02d}:{:02d}:{:02d}".format,
    st.dates().map(lambda day: day.isoformat()),
    st.sampled_from(["T", " "]),
    st.integers(0, 23),
    st.integers(0, 59),
    st.integers(0, 59),
)
_looks_strict = st.sampled_from(
    ["2026-02-30T08:00:00", "2026-03-02T24:00:00", "2026-03-02 23:60:00", "2026-03-02T23:59:60", "0000-01-01T00:00:00",
     "2026-13-01T00:00:00", "2026-03-02X00:00:00", "2026-03-02T00:00:0a", "２026-03-02T00:00:00"]
)
STRICT_TRIP_FIELDS = {
    **TRIP_FIELDS,
    "timestamp": st.tuples(st.integers(0, 20), _strict_stamps, _looks_strict).map(lambda t: t[2] if t[0] == 0 else t[1]),
}


@pytest.mark.parametrize(
    "loader, reference, record_loader, fields",
    [
        (load_trips_csv, reference_load_trips_csv, record_load_trips_csv, TRIP_FIELDS),
        (load_trips_csv, reference_load_trips_csv, record_load_trips_csv, STRICT_TRIP_FIELDS),
        (load_status_csv, reference_load_status_csv, record_load_status_csv, STATUS_FIELDS),
    ],
    ids=["trips", "strict-trips", "status"],
)
def test_loaders_match_dictreader_reference(loader, reference, record_loader, fields):
    """The columns hold the record loader's values field by field, and a
    rejected file raises the same error type and message; both agree with
    the DictReader loaders on what loads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"

        @given(csv_texts(fields))
        @settings(max_examples=200)
        def check(text):
            path.write_text(text, newline="")
            got = read_outcome(loader, path)
            assert got == read_outcome(record_loader, path)
            expected = loaded(reference, path)
            if expected == "short row":
                # the reference crashed; the loader must name the short row
                assert got[0] is ValidationError and "short row" in got[1]
            else:
                assert (got[1] if got[0] == "ok" else "rejected" if got[0] is ValidationError else got) == expected

        check()


@pytest.mark.parametrize("bad", ["2026-02-30T08:00:00", "2026-03-02T24:00:00"])
def test_strict_stamp_file_with_one_bad_stamp_raises_as_records_do(tmp_path, bad):
    stamps = [f"2026-03-02T{h:02d}:{m:02d}:07" for h in range(24) for m in range(0, 60, 7)]
    assert _strict_seconds(stamps).tolist() == [h * 3600 + m * 60 + 7.0 for h in range(24) for m in range(0, 60, 7)]
    stamps[100] = bad
    assert _strict_seconds(stamps) is None
    path = write(tmp_path, "station_id,timestamp,kind\n" + "".join(f"a,{s},rental\n" for s in stamps))
    got = outcome(load_trips_csv, path)
    assert got == outcome(record_load_trips_csv, path)
    assert got[0] is ValidationError and repr(bad) in got[1]


def test_bad_stamp_above_a_short_row_is_the_first_fault(tmp_path):
    path = write(tmp_path, "station_id,timestamp,kind\na,2026-03-02T00:00:01,rental\na,noon,rental\na,60\n")
    got = outcome(load_trips_csv, path)
    assert got == outcome(record_load_trips_csv, path)
    assert "'noon'" in got[1]


def test_interval_past_int64_is_named_exactly(tmp_path):
    path = write(tmp_path, "station_id,interval,minutes_nonempty,minutes_nonfull\na,1,30,30\na,99999999999999999999999,30,30\n")
    status = load_status_csv(path)
    got = outcome(estimate_rates, trips_of([]), status, 1)
    assert got == outcome(record_estimate_rates, [], record_load_status_csv(path), 1)
    assert "interval 99999999999999999999999 outside 0..47" in got[1]


_trip_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(-100, 90_000).map(float), st.floats(0, 86_399.99)),
        st.sampled_from(["rental", "return", "rental", "return", "x"]),
    ),
    max_size=12,
)
_status_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(-1, 4),
        st.one_of(st.floats(-1, 31), st.sampled_from([0.0, -0.0, 30.0, math.nan])),
        st.one_of(st.floats(-1, 31), st.sampled_from([0.0, 30.0, math.inf])),
    ),
    max_size=12,
)


@given(
    trips=_trip_rows,
    status=_status_rows,
    horizon=st.builds(Horizon, st.integers(1, 4), st.sampled_from([30.0, 20.0, 45.5]), st.sampled_from([0.0, 0.5, 6.0, 23.9])),
)
@settings(max_examples=300)
def test_estimate_rates_matches_the_record_loop(trips, status, horizon):
    """Same profiles, bit for bit, or the same error for the same row."""
    trip_records = [TripRecord(*row) for row in trips]
    status_records = [StatusRecord(*row) for row in status]
    got = outcome(rates, trips, status, 1, horizon)
    assert got == outcome(record_estimate_rates, trip_records, status_records, 1, horizon)
    if got[0] == "ok":
        index = [(t - horizon.start_hour * 3600.0) // (horizon.minutes_per_interval * 60.0) for _, t, _ in trips]
        outside = sum(not 0 <= i < horizon.intervals for i in index)
        assert trips_outside_horizon(trips_of(trips), horizon) == outside


# The byte pass. A plain file (printable ASCII without '"', all-LF or
# all-CRLF lines, no blank line, a header naming each column once, at least
# one data row, every row the header's width and every field at most
# ``_WINDOW`` bytes) is read by vector passes over its bytes; any other file
# by csv.reader. Either way the columns are the record loader's.
def byte_pass_spy(monkeypatch):
    """Whether each load since the last call took the byte pass."""
    taken = []

    def spy(path, columns):
        fields = plain_columns(path, columns)
        taken.append(fields is not None)
        return fields

    plain_columns = demand._plain_columns
    monkeypatch.setattr(demand, "_plain_columns", spy)
    return taken


def spaced(fields):
    return st.tuples(st.sampled_from(["", " ", "  "]), fields, st.sampled_from(["", " "])).map("".join)


_plain_text = st.text("".join(chr(c) for c in range(32, 127) if chr(c) not in '",'), min_size=1, max_size=12)
PLAIN_TRIP_FIELDS = {
    "station_id": spaced(st.one_of(st.sampled_from(["a", "b", "st 7"]), _plain_text)),
    "timestamp": st.one_of(_strict_stamps, _strict_stamps, st.integers(-5, 90_000).map(str), _plain_text),
    "kind": spaced(st.sampled_from(["rental", "return", "rental", "x"])),
}
_plain_decimals = st.one_of(
    st.floats(0, 30).map(repr), st.sampled_from(["30", "1.", ".5", "007.50", "0" * 20 + "1", "x", "1e1", "-0.0"])
)
PLAIN_STATUS_FIELDS = {
    "station_id": spaced(st.sampled_from(["a", "b", "st 7"])),
    "interval": st.one_of(st.integers(0, 47).map(str), st.sampled_from(["007", " 3", "+4", "3.0", "9" * 19, "9" * 30])),
    "minutes_nonempty": _plain_decimals,
    "minutes_nonfull": _plain_decimals,
}


@st.composite
def plain_csv_texts(draw, fields):
    """Plain CSV text with the ``fields`` columns, some extra ones, all
    permuted; LF or CRLF lines, with or without a final line end."""
    header = draw(st.permutations(list(fields) + draw(st.lists(st.sampled_from(["note", "day"]), unique=True))))
    extra = st.one_of(st.just(""), _plain_text)
    rows = [header] + [
        [draw(fields.get(name, extra)) for name in header] for _ in range(draw(st.integers(1, 8)))
    ]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(",".join(row) for row in rows) + draw(st.sampled_from([end, ""]))


@pytest.mark.parametrize(
    "loader, record_loader, fields",
    [(load_trips_csv, record_load_trips_csv, PLAIN_TRIP_FIELDS), (load_status_csv, record_load_status_csv, PLAIN_STATUS_FIELDS)],
    ids=["trips", "status"],
)
def test_plain_files_take_the_byte_pass(monkeypatch, loader, record_loader, fields):
    """Plain files take the byte pass, and load or fail as the record loader."""
    taken = byte_pass_spy(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"

        @given(plain_csv_texts(fields))
        @settings(max_examples=200)
        def check(text):
            path.write_text(text, newline="")
            taken.clear()
            assert read_outcome(loader, path) == read_outcome(record_loader, path)
            assert taken == [True]

        check()


TRIPS = "station_id,timestamp,kind\n"
STATUS = "station_id,interval,minutes_nonempty,minutes_nonfull\n"
# Files the byte pass refuses.
REFUSED = {
    "quoted-field": TRIPS + 'a,"60",rental\n',
    "quoted-comma": TRIPS + '"a,b",60,rental\n',
    "lone-cr": TRIPS + "a,60,rental\rb,70,return\n",
    "cr-inside-a-crlf-file": TRIPS.replace("\n", "\r\n") + "a,60,rental\r\nb,7\r0,return\r\n",
    "mixed-line-ends": TRIPS + "a,60,rental\r\nb,70,return\n",
    "nul-byte": TRIPS + "a\0,60,rental\n",
    "bad-row-above-a-nul-byte": TRIPS + "a,noon,rental\na\0,60,rental\n",
    "tab": TRIPS + "a\t,60,rental\n",
    "non-ascii-station": TRIPS + "ä,60,rental\n",
    "delete-byte": TRIPS + "a\x7f,60,rental\n",
    "blank-line": TRIPS + "a,60,rental\n\nb,70,return\n",
    "blank-last-line": TRIPS + "a,60,rental\n\n",
    "long-row": TRIPS + "a,60,rental\nb,70,return,extra\n",
    "short-row-with-every-column": "station_id,timestamp,kind,note\na,60,rental,ok\nb,70,return\n",
    "short-row": TRIPS + "a,60,rental\nb,70\n",
    "rows-trading-commas": TRIPS + "a,60,rental,\nb,70return\n",
    "empty-file": "",
    "header-only": TRIPS,
    "header-only-without-line-end": TRIPS.rstrip(),
    "padded-column-name": "station_id,timestamp, kind\na,60,rental\n",
    "repeated-column-name": "station_id,timestamp,kind,kind\na,60,rental,return\n",
    "missing-column": "station_id,timestamp\na,60\n",
    "stamp-beyond-the-window": TRIPS + "a," + "9" * 400 + ",rental\n",
    "station-beyond-the-window": TRIPS + "a" * 65 + ",60,rental\n",
    "status-quoted-minutes": STATUS + 'a,0,"30",30\n',
    "status-interval-beyond-the-window": STATUS + "a," + "9" * 65 + ",30,30\n",
    "status-bad-row-above-a-short-row": STATUS + "a,0,30,30\na,x,30,30\na,1,30\n",
}
# Files right at the limits, which the byte pass takes.
TAKEN = {
    "crlf": TRIPS.replace("\n", "\r\n") + "a,60,rental\r\nb,70,return\r\n",
    "crlf-without-final-line-end": TRIPS.replace("\n", "\r\n") + "a,60,rental\r\nb,70,return",
    "one-row-without-line-end": TRIPS + "a,60,rental",
    "empty-fields": TRIPS + ",60,\n",
    "printable-edges": TRIPS + " ~!,60,rental\n",
    "station-filling-the-window": TRIPS + "a" * 64 + ",60,rental\n",
    "status-interval-filling-the-window": STATUS + "a," + "9" * 64 + ",30,30\n",
    "status-digits-past-int64": STATUS + "a,1,30,30\na,99999999999999999999999,30,30\n",
    "status-bad-row": STATUS + "a,0,30,30\na,1,30,.\n",
}


@pytest.mark.parametrize("case", sorted(REFUSED) + sorted(TAKEN))
def test_byte_pass_takes_only_plain_files(tmp_path, monkeypatch, case):
    text = REFUSED.get(case, TAKEN.get(case))
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    loader, record_loader = (
        (load_status_csv, record_load_status_csv) if text.startswith(STATUS) else (load_trips_csv, record_load_trips_csv)
    )
    taken = byte_pass_spy(monkeypatch)
    if case == "nul-byte":  # csv.reader refuses it on Python 3.10 and reads it on 3.11
        expected = (ValidationError, f"{path}, line 2: a CSV file may hold no NUL byte")
    else:
        expected = read_outcome(record_loader, path)
    assert read_outcome(loader, path) == expected
    assert taken == [case in TAKEN]


def test_blank_line_of_a_one_column_file_is_refused(tmp_path):
    # a blank line is one empty field to the comma count, and no row to csv.reader
    path = tmp_path / "ids.csv"
    path.write_text("id\na\nb\n")
    assert demand._plain_columns(path, ("id",))[0].tolist() == [b"a", b"b"]
    path.write_text("id\na\n\nb\n")
    assert demand._plain_columns(path, ("id",)) is None


def test_missing_file_fails_as_the_record_loader(tmp_path):
    path = tmp_path / "absent.csv"
    assert demand._plain_columns(path, demand._TRIP_COLUMNS) is None
    got = outcome(load_trips_csv, path)
    assert got == outcome(record_load_trips_csv, path) and got[0] is ValidationError


def test_crlf_and_lf_files_load_the_same_columns(tmp_path):
    lines = [TRIPS.rstrip(), "a,2026-03-02T00:00:08,return", " b ,2026-03-02 23:59:59,rental", "a,2026-03-02T12:00:00,rental"]
    loads = []
    for end in ("\n", "\r\n"):
        path = tmp_path / f"trips{len(end)}.csv"
        path.write_bytes(end.join(lines).encode())
        loads.append(table(load_trips_csv(path)))
    assert loads[0] == loads[1] == [("a", 8.0, "return"), ("b", 86399.0, "rental"), ("a", 43200.0, "rental")]


def _decimal_strings():
    digits = st.text("0123456789", max_size=25)
    return st.one_of(
        st.tuples(digits, st.sampled_from(["", "."]), digits).map("".join).filter(lambda s: any(c.isdigit() for c in s)),
        st.floats(0, 1e15).map(repr).filter(lambda s: "e" not in s),
        st.integers(0, 10**25).map(lambda n: f"{n}"[:-3] + "." + f"{n}"[-3:] if n >= 1000 else f"{n}"),
        st.sampled_from(["1.", ".5", "0000000000000000000000001", "9007199254740993", "0.1000000000000000055511151231257827"]),
    )


@given(st.lists(_decimal_strings(), min_size=1, max_size=8))
@settings(max_examples=300)
def test_numpy_decimal_cast_equals_float_bit_for_bit(texts):
    """numpy's bytes to float64 cast rounds as ``float`` does, and the
    column parse returns those bits."""
    fields = np.array([t.encode() for t in texts])
    expected = np.array([float(t) for t in texts])
    assert fields.astype(np.float64).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    values, bad = demand._numbers(fields, float, np.float64)
    assert bad == len(texts) and values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@given(st.lists(st.text("0123456789", min_size=1, max_size=25), min_size=1, max_size=8))
@settings(max_examples=300)
def test_numpy_integer_cast_equals_int(texts):
    """numpy's bytes to int64 cast equals ``int`` on the digit strings that
    fit, and the column parse keeps the rest exact."""
    fields = np.array([t.encode() for t in texts])
    short = [t for t in texts if len(t) < 19]
    if short:
        assert np.array([t.encode() for t in short]).astype(np.int64).tolist() == [int(t) for t in short]
    values, bad = demand._numbers(fields, int, np.int64)
    assert bad == len(texts) and values.tolist() == [int(t) for t in texts]
    assert values.dtype == (np.int64 if all(int(t) < 2**63 for t in texts) else object)


# Status numbers take one path: each distinct stripped field goes through
# ``int``/``float`` once, whichever reader gave the column.
_status_intervals = spaced(
    st.one_of(
        st.integers(-3, 50).map(str),
        st.sampled_from(["+4", "-0", "007", "1_0", "9" * 19, "9" * 25, "-" + "9" * 19, "-" + "9" * 25, "3.0", "x", ""]),
    )
)
_status_minutes = spaced(
    st.one_of(
        st.floats(-1, 40).map(repr),
        st.sampled_from(["30", "30.0", "+7.5", "-0.0", ".5", "1.", "1e1", "-nan", "inf", "9" * 40, "1_0.5", "x", "", "."]),
    )
)


@st.composite
def status_number_rows(draw):
    """Status rows whose number fields repeat: each column draws its rows
    from a few fields, so one value may come with and without spaces."""
    pools = [draw(st.lists(field, min_size=1, max_size=5)) for field in (_status_intervals, _status_minutes, _status_minutes)]
    return [
        [draw(st.sampled_from(["a", "b"]))] + [draw(st.sampled_from(pool)) for pool in pools]
        for _ in range(draw(st.integers(1, 30)))
    ]


def rejects(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return True
    return False


def test_status_numbers_parse_once_per_distinct_field(monkeypatch):
    """On the byte pass and on ``csv.reader`` alike, a status file loads to
    the values and dtypes of a row-by-row ``int``/``float`` parse or fails
    with its message, and each distinct stripped field is parsed once, in
    order of first appearance, up to the first one rejected."""
    taken = byte_pass_spy(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        plain, quoted = Path(tmp) / "plain.csv", Path(tmp) / "quoted.csv"

        @given(status_number_rows())
        @settings(max_examples=300)
        def check(rows):
            plain.write_text(STATUS + "".join(",".join(row) + "\n" for row in rows))
            quoted.write_text(STATUS + "".join(",".join(row) + "\n" for row in [[f'"{rows[0][0]}"', *rows[0][1:]], *rows[1:]]))
            for path, byte_pass in ((plain, True), (quoted, False)):
                taken.clear()
                got = outcome(load_status_csv, path)
                assert taken == [byte_pass]
                expected = outcome(record_load_status_csv, path)
                if expected[0] != "ok":
                    assert got == expected
                    continue
                assert got[0] == "ok" and repr(table(got[1])) == repr(table(expected[1]))
                intervals = [r.interval_index for r in expected[1]]
                assert got[1].interval.dtype == (np.int64 if all(-(2**63) <= i < 2**63 for i in intervals) else object)
                for name in ("minutes_nonempty", "minutes_nonfull"):
                    column = getattr(got[1], name)
                    bits = np.array([getattr(r, name) for r in expected[1]]).view(np.uint64)
                    assert column.dtype == np.float64 and column.view(np.uint64).tolist() == bits.tolist()

                columns, _ = demand._read_columns(path, "status", demand._STATUS_COLUMNS)
                for column, parse, dtype in zip(columns[1:], (int, float, float), (np.int64, np.float64, np.float64)):
                    texts = [f.decode() for f in column.tolist()] if isinstance(column, np.ndarray) else column
                    calls = []
                    values, bad = demand._numbers(column, lambda text: calls.append(text) or parse(text), dtype)
                    distinct = list(dict.fromkeys(text.strip() for text in texts))
                    stop = next((k for k, text in enumerate(distinct) if rejects(parse, text)), len(distinct) - 1)
                    assert calls == distinct[: stop + 1]
                    assert bad == next((i for i, text in enumerate(texts) if rejects(parse, text)), len(texts))
                    assert repr(values[:bad].tolist()) == repr([parse(text) for text in texts[:bad]])

        check()
