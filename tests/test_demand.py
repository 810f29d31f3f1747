import csv
import io
import json
import re
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockalloc.demand import (
    Horizon,
    PoissonProfile,
    StatusRecord,
    TripRecord,
    estimate_rates,
    load_profiles,
    load_status_csv,
    load_trips_csv,
    _parse_timestamp,
    save_profiles,
)
from dockalloc.cli import main
from dockalloc.errors import ValidationError


def status(sid, interval, nonempty, nonfull=30.0):
    return StatusRecord(sid, interval, nonempty, nonfull)


def trips_in_bucket(sid, interval, count, kind="rental"):
    base = interval * 1800
    return [TripRecord(sid, base + 10 * i, kind) for i in range(count)]


def test_rate_is_count_over_minutes():
    trips = trips_in_bucket("a", 4, 10)
    profiles = estimate_rates(trips, [status("a", 4, 20.0)], days=1)
    assert profiles[0].rental_rates[4] == pytest.approx(0.5)


def test_zero_numerator_gives_zero_rate():
    profiles = estimate_rates([], [status("a", 0, 30.0)], days=1)
    assert profiles[0].rental_rates[0] == 0.0


def test_zero_minutes_falls_back_to_one_minute_and_flags():
    trips = trips_in_bucket("a", 7, 5)
    profiles = estimate_rates(trips, [status("a", 7, 0.0)], days=1)
    p = profiles[0]
    assert p.rental_rates[7] == pytest.approx(5.0)
    assert (7, "rental", "censored_fallback") in p.flags


def test_aggregation_depends_only_on_totals():
    trips = trips_in_bucket("a", 3, 6) + trips_in_bucket("a", 3, 2, kind="return")
    one_day = estimate_rates(trips, [status("a", 3, 12.0, 18.0)], days=1)
    # same trips attributed across two days whose minutes sum to the same totals
    two_days = estimate_rates(trips, [status("a", 3, 5.0, 10.0), status("a", 3, 7.0, 8.0)], days=2)
    assert one_day[0].rental_rates == two_days[0].rental_rates
    assert one_day[0].return_rates == two_days[0].return_rates


def test_doubling_minutes_halves_rates():
    trips = trips_in_bucket("a", 1, 8)
    single = estimate_rates(trips, [status("a", 1, 15.0)], days=1)
    double = estimate_rates(trips, [status("a", 1, 15.0), status("a", 1, 15.0)], days=2)
    assert double[0].rental_rates[1] == pytest.approx(single[0].rental_rates[1] / 2)


def test_profile_count_matches_distinct_stations():
    records = [status("a", 0, 10.0), status("b", 0, 10.0), status("c", 5, 10.0)]
    profiles = estimate_rates(trips_in_bucket("a", 0, 1), records, days=1)
    assert sorted(p.station_id for p in profiles) == ["a", "b", "c"]


def test_empty_trips_is_not_an_error():
    assert estimate_rates([], [], days=1) == []


def test_negative_timestamp_names_the_record():
    with pytest.raises(ValidationError, match="station 'bad'"):
        estimate_rates([TripRecord("bad", -5, "rental")], [status("bad", 0, 1.0)], days=1)


def test_negative_minutes_rejected():
    with pytest.raises(ValidationError, match="minutes_nonempty"):
        estimate_rates([], [status("a", 0, -1.0)], days=1)


def test_infinite_interval_length_rejected():
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        Horizon(intervals=2, minutes_per_interval=float("inf")).validate()


@pytest.mark.parametrize("minutes", [float("nan"), float("inf"), 0.0, -30.0])
def test_profile_interval_length_must_be_finite_and_positive(minutes):
    with pytest.raises(ValidationError, match="minutes_per_interval"):
        PoissonProfile("a", (0.0,), (0.0,), minutes_per_interval=minutes).validate()


def test_uncovered_trip_station_rejected():
    with pytest.raises(ValidationError, match="no status coverage"):
        estimate_rates([TripRecord("ghost", 100, "rental")], [status("a", 0, 1.0)], days=1)


def test_custom_horizon_start_hour_shifts_buckets():
    horizon = Horizon(intervals=36, minutes_per_interval=30.0, start_hour=6.0)
    trips = [TripRecord("a", 6 * 3600 + 100, "rental")]
    profiles = estimate_rates(trips, [status("a", 0, 10.0)], days=1, horizon=horizon)
    assert profiles[0].rental_rates[0] == pytest.approx(0.1)
    assert profiles[0].intervals == 36


def test_csv_loaders_and_timestamp_autodetect(tmp_path):
    trips_path = tmp_path / "trips.csv"
    trips_path.write_text(
        "station_id,timestamp,kind\n"
        "a,3600,rental\n"
        "a,2026-06-02T01:00:30,return\n"
    )
    trips = load_trips_csv(trips_path)
    assert trips[0].timestamp == 3600
    assert trips[1].timestamp == 3630
    status_path = tmp_path / "status.csv"
    status_path.write_text("station_id,interval,minutes_nonempty,minutes_nonfull\na,2,25,30\n")
    records = load_status_csv(status_path)
    assert records[0].interval_index == 2


def test_profiles_json_round_trip(tmp_path):
    trips = trips_in_bucket("a", 2, 4)
    profiles = estimate_rates(trips, [status("a", 2, 10.0)], days=1)
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
    assert trips == [TripRecord("a", 60.0, "rental")]


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
    "interval": padded(st.one_of(st.integers(-2, 60).map(str), st.sampled_from(["3.0", "x", "+4", ""]))),
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
    """The records ``loader`` reads, by ``repr`` so NaN fields compare equal;
    ``"rejected"`` for a ValidationError, ``"short row"`` for a reference
    crash on a field that a short row lacks."""
    try:
        return repr(loader(path))
    except ValidationError:
        return "rejected"
    except (AttributeError, TypeError):
        assert loader in (reference_load_trips_csv, reference_load_status_csv)
        return "short row"


@pytest.mark.parametrize(
    "loader, reference, fields",
    [
        (load_trips_csv, reference_load_trips_csv, TRIP_FIELDS),
        (load_status_csv, reference_load_status_csv, STATUS_FIELDS),
    ],
    ids=["trips", "status"],
)
def test_loaders_match_dictreader_reference(loader, reference, fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"

        @given(csv_texts(fields))
        @settings(max_examples=200)
        def check(text):
            path.write_text(text, newline="")
            expected = loaded(reference, path)
            if expected == "short row":
                # the reference crashed; the loader must name the short row
                with pytest.raises(ValidationError, match="short row"):
                    loader(path)
            else:
                assert loaded(loader, path) == expected

        check()
