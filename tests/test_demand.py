import json

import pytest

from dockalloc.demand import (
    Horizon,
    PoissonProfile,
    StatusRecord,
    TripRecord,
    estimate_rates,
    load_profiles,
    load_status_csv,
    load_trips_csv,
    save_profiles,
)
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
