"""Fuzzing of the JSON and CSV loaders behind the CLI: station lists,
instance documents and observed days.  Every generated input either loads
or raises ``ValidationError``; what loads runs through its command, which
exits 0, 1 or 2 and writes no NaN or infinity.  Each crash the fuzzing
found is pinned below as a named case."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockalloc.cli import _load_stations, main
from dockalloc.demand import Horizon, PoissonProfile, save_profiles
from dockalloc.errors import ValidationError
from dockalloc.oracle import instance_from_json, instance_to_json, random_instance
from dockalloc.posterior import days_from_csv, days_from_json, rebalancing_adjustment
from dockalloc.udf import DEFAULT_CAPACITY_LIMIT

from conftest import philox

IDS = ("a", "b", "c")
HORIZON = Horizon(intervals=4)

# Out-of-contract values next to ordinary ones, so both paths get exercised.
odd_numbers = st.sampled_from(
    [
        math.nan, math.inf, -math.inf, -1, -0.0, 2.5, 1e300, -1e300,
        DEFAULT_CAPACITY_LIMIT + 1, 10**30,
        "7", "nan", "inf", "1e400", "", None, True, [3], {"x": 1},
    ]
)
counts = st.one_of(st.integers(0, 12), odd_numbers)


def write_json(path, doc):
    path.write_text(json.dumps(doc))  # allow_nan: NaN and Infinity go in as JSON extensions
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def refuse_constant(name):
    raise AssertionError(f"output holds {name}")


def assert_clean_outputs(out):
    """Every file the command wrote is free of NaN and infinities."""
    for path in out.iterdir() if out.exists() else ():
        if path.suffix in (".json", ".geojson"):
            json.loads(path.read_text(), parse_constant=refuse_constant)
        else:
            for row in csv.reader(io.StringIO(path.read_text())):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


def profiles_file(tmp_path):
    profiles = [
        PoissonProfile(i, (0.05, 0.2, 0.1, 0.0), (0.1, 0.05, 0.2, 0.0), minutes_per_interval=HORIZON.minutes_per_interval)
        for i in IDS
    ]
    path = tmp_path / "profiles.json"
    save_profiles(path, profiles, HORIZON)
    return path


@st.composite
def station_rows(draw):
    rows = []
    for i in range(draw(st.integers(1, 3))):
        docks = draw(st.integers(0, 12))
        rows.append(
            {
                "id": IDS[i],
                "current_docks": docks,
                "current_bikes": draw(st.integers(0, docks)),
                "l": draw(st.integers(0, docks)),
                "u": docks + draw(st.integers(0, 6)),
                "lat": draw(st.floats(-90, 90)),
                "lon": draw(st.floats(-180, 180)),
            }
        )
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(sorted(row)))
        action = draw(st.sampled_from(["odd", "odd", "drop", "duplicate"]))
        if action == "odd":
            row[key] = draw(odd_numbers)
        elif action == "drop":
            del row[key]
        else:
            row["id"] = rows[0].get("id", IDS[0])
    return rows


@settings(max_examples=150)
@given(station_rows(), st.integers(0, 2))
def test_station_lists_load_or_fail_validation(tmp_path_factory, rows, moves):
    tmp = tmp_path_factory.mktemp("stations")
    path = write_json(tmp / "stations.json", rows)
    try:
        stations = _load_stations(path)
    except ValidationError:
        assert run("optimize", "--stations", path, "--profiles", profiles_file(tmp), "--bikes", 0, "--docks", 0, "--out", tmp / "o") == 1
        return
    for s in stations:
        for key in ("lat", "lon"):
            assert s[key] is None or math.isfinite(s[key])
    bikes = sum(s["current_bikes"] for s in stations)
    docks = sum(s["current_docks"] for s in stations) - bikes
    out = tmp / "out"
    code = run(
        "optimize", "--stations", path, "--profiles", profiles_file(tmp), "--bikes", bikes, "--docks", docks,
        "--max-moves", moves, "--out", out,
    )
    assert code in (0, 1, 2)
    assert_clean_outputs(out)


FIELDS = ("lower", "upper", "baseline_docks", "baseline_bikes")


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.data())
def test_instance_documents_load_or_fail_validation(tmp_path_factory, seed, data):
    doc = instance_to_json(random_instance(philox(seed, 4)))
    for _ in range(data.draw(st.integers(1, 3))):
        station = data.draw(st.sampled_from(doc["stations"]))
        target = data.draw(st.sampled_from(["field", "id", "probability", "budget"]))
        value = data.draw(odd_numbers)
        if target == "field":
            station[data.draw(st.sampled_from(FIELDS))] = value
        elif target == "id":
            station["id"] = data.draw(st.sampled_from([doc["stations"][0]["id"], "x", None]))
        elif target == "probability" and station["profile"]["atoms"]:
            station["profile"]["atoms"][0]["p"] = data.draw(st.one_of(odd_numbers, st.sampled_from(["1/0", "1e100000000", "1e1_000_000_000", "3/4", "-1/2"])))
        else:
            doc[data.draw(st.sampled_from(["bike_budget", "dock_budget", "max_moves"]))] = value
    tmp = tmp_path_factory.mktemp("instance")
    path = write_json(tmp / "instance.json", doc)
    try:
        spec = instance_from_json(json.loads(path.read_text()))
    except ValidationError:
        assert run("optimize", "--instance", path, "--out", tmp / "o") == 1
        return
    assert len({s.id for s in spec.stations}) == len(spec.stations)
    out = tmp / "out"
    assert run("optimize", "--instance", path, "--out", out) in (0, 1, 2)
    assert_clean_outputs(out)


timestamps = st.one_of(st.floats(0, 86_400), st.sampled_from([math.nan, math.inf, -math.inf, -5.0, 1e300, "7", None]))


@st.composite
def day_docs(draw):
    days = []
    for _ in range(draw(st.integers(1, 3))):
        after = draw(st.integers(0, 10))
        n = draw(st.integers(0, 8))
        stamps = sorted(draw(st.lists(st.floats(0, 86_400), min_size=n, max_size=n)))
        day = {
            "station_id": draw(st.sampled_from(IDS)),
            "capacity_before": after + draw(st.integers(-4, 4)),
            "capacity_after": after,
            "bikes_at_open": draw(st.integers(0, after)),
            "observed_events": draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)),
            "event_timestamps": stamps,
            "full_periods": [[draw(st.integers(0, 3)), draw(st.floats(0, 30))] for _ in range(draw(st.integers(0, 1)))],
            "empty_periods": [[draw(st.integers(0, 3)), draw(st.floats(0, 30))] for _ in range(draw(st.integers(0, 1)))],
            "rebalancing_events": [[draw(st.floats(0, 86_400)), draw(st.integers(-3, 3))] for _ in range(draw(st.integers(0, 2)))],
        }
        day["rebalancing_events"].sort()
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from(sorted(day)))
            if key == "event_timestamps" and stamps:
                stamps[draw(st.integers(0, len(stamps) - 1))] = draw(timestamps)
            elif key == "rebalancing_events" and day[key]:
                day[key][0] = [draw(timestamps), draw(counts)]
            elif key in ("full_periods", "empty_periods"):
                day[key] = [[draw(counts), draw(st.one_of(st.floats(0, 30), odd_numbers))]]
            elif key != "station_id":
                day[key] = draw(counts)
        days.append(day)
    return days


def check_days(tmp, path, load):
    try:
        days = load(path)
    except ValidationError:
        assert run("posterior", "--days", path, "--profiles", profiles_file(tmp), "--resamples", 20, "--out", tmp / "o") == 1
        return
    for day in days:
        # splicing the crews in must keep the observed events in their order
        events, virtual = rebalancing_adjustment(day, "optimistic") if day.event_timestamps is not None else ((), ())
        assert tuple(x for x, v in zip(events, virtual) if not v) == (day.observed_events if events else ())
    out = tmp / "out"
    assert run("posterior", "--days", path, "--profiles", profiles_file(tmp), "--resamples", 20, "--out", out) in (0, 1)
    assert_clean_outputs(out)


@settings(max_examples=150)
@given(day_docs())
def test_observed_days_json_load_or_fail_validation(tmp_path_factory, days):
    tmp = tmp_path_factory.mktemp("days")
    path = write_json(tmp / "days.json", {"days": days})
    check_days(tmp, path, lambda p: days_from_json(json.loads(p.read_text())))


def csv_cell(value) -> str:
    if isinstance(value, list):
        if value and all(isinstance(x, list) for x in value):
            return "|".join(f"{a}:{b}" for a, b in value)
        if value and all(x in (1, -1) for x in value):
            return "".join("+" if x == 1 else "-" for x in value)
        return "|".join(str(x) for x in value)
    return "" if value is None else str(value)


@settings(max_examples=150)
@given(day_docs(), st.sampled_from(["", "\n", ",extra"]))
def test_observed_days_csv_load_or_fail_validation(tmp_path_factory, days, tail):
    tmp = tmp_path_factory.mktemp("dayscsv")
    columns = sorted(days[0])
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for day in days:
        writer.writerow([csv_cell(day.get(c)) for c in columns])
    path = tmp / "days.csv"
    path.write_text(buffer.getvalue() + tail)
    check_days(tmp, path, days_from_csv)


def day(**changes):
    doc = {
        "station_id": "a",
        "capacity_before": 6,
        "capacity_after": 4,
        "bikes_at_open": 2,
        "observed_events": [1, 1, -1],
        "event_timestamps": [60.0, 120.0, 180.0],
        "full_periods": [[1, 10.0]],
        "rebalancing_events": [[90.0, 1]],
    }
    return {**doc, **changes}


def finite_instance(**station_changes):
    doc = instance_to_json(random_instance(philox(3, 4)))
    doc["stations"][0].update(station_changes)
    return doc


STATION = {"id": "a", "current_docks": 4, "current_bikes": 2, "l": 0, "u": 8, "lat": 42.3, "lon": -71.1}

# Each of these crashed, hung, wrote NaN or loaded silently misread data
# before the loaders checked for it.
PINNED = {
    "stations-nan-latitude": ("stations", [{**STATION, "lat": math.nan}]),
    "stations-text-longitude": ("stations", [{**STATION, "lon": "-71.1"}]),
    "stations-boolean-bikes": ("stations", [{**STATION, "current_bikes": True}]),
    "instance-probability-divides-by-zero": ("instance", {"p": "1/0"}),
    "instance-probability-exponent-beyond-999": ("instance", {"p": "1e100000000"}),
    "instance-probability-underscored-exponent": ("instance", {"p": "1e1_000_000_000"}),
    "instance-probability-underscored-negative-exponent": ("instance", {"p": "1e-1_000_000_000"}),
    "instance-boolean-lower": ("instance", {"lower": True}),
    "instance-profile-not-an-object": ("instance", {"profile": [1]}),
    "instance-upper-above-capacity-limit": ("instance", {"upper": DEFAULT_CAPACITY_LIMIT + 1}),
    "instance-duplicate-ids": ("instance", "duplicate"),
    "day-capacity-above-limit": ("days", day(capacity_before=10**30)),
    "day-unsorted-timestamps": ("days", day(event_timestamps=[60.0, 180.0, 120.0])),
    "day-nan-timestamp": ("days", day(event_timestamps=[60.0, math.nan, 180.0])),
    "day-infinite-crew-time": ("days", day(rebalancing_events=[[math.inf, 1]])),
    "day-crew-moves-a-trillion-bikes": ("days", day(rebalancing_events=[[90.0, 10**12]])),
    "days-csv-unsorted-timestamps": ("csv", "a,6,4,2,++-,60|180|120,1:10,90:1"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_inputs_exit_1(tmp_path, case):
    kind, doc = PINNED[case]
    if kind == "stations":
        path = write_json(tmp_path / "stations.json", doc)
        argv = ["--stations", path, "--profiles", profiles_file(tmp_path), "--bikes", 2, "--docks", 2]
        with pytest.raises(ValidationError):
            _load_stations(path)
    elif kind == "instance":
        if doc == "duplicate":
            instance = finite_instance()
            instance["stations"][1]["id"] = instance["stations"][0]["id"]
        elif "p" in doc:
            instance = finite_instance(profile={"kind": "finite", "atoms": [{"events": [1, -1], "p": doc["p"]}]})
        else:
            instance = finite_instance(**doc)
        path = write_json(tmp_path / "instance.json", instance)
        argv = ["--instance", path]
        with pytest.raises(ValidationError):
            instance_from_json(json.loads(path.read_text()))
    else:
        if kind == "csv":
            path = tmp_path / "days.csv"
            header = "station_id,capacity_before,capacity_after,bikes_at_open,observed_events,event_timestamps,full_periods,rebalancing_events"
            path.write_text(f"{header}\n{doc}\n")
            load = days_from_csv
        else:
            path = write_json(tmp_path / "days.json", [doc])
            load = lambda p: days_from_json(json.loads(p.read_text()))  # noqa: E731
        with pytest.raises(ValidationError):
            load(path)
        argv = ["--days", path, "--profiles", profiles_file(tmp_path), "--resamples", 20]
    command = "posterior" if kind in ("days", "csv") else "optimize"
    assert run(command, *argv, "--out", tmp_path / "out") == 1
