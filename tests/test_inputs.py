"""The four input types check themselves when they are made: a
``Horizon``, ``PoissonProfile``, ``FiniteProfile`` or ``ObservedDay``
that breaks its contract cannot be constructed, nor made by
``dataclasses.replace``.  The loaders that build them keep each check's
own message behind their prefix."""

import dataclasses
import math
import re

import pytest

from dockalloc.demand import Horizon, PoissonProfile, profiles_from_json
from dockalloc.errors import ValidationError
from dockalloc.posterior import ObservedDay, days_from_csv, days_from_json
from dockalloc.udf import DEFAULT_CAPACITY_LIMIT, FiniteProfile

HORIZON = Horizon(intervals=2)
PROFILE = PoissonProfile("a", (0.1, 0.2), (0.2, 0.1), flags=((1, "rental", "censored_fallback"),))
FINITE = FiniteProfile((((1, -1), 0.5), ((-1,), 0.25)))
DAY = ObservedDay(
    "a",
    capacity_before=4,
    capacity_after=3,
    bikes_at_open=1,
    observed_events=(1, -1),
    event_timestamps=(60.0, 120.0),
    full_periods=((0, 10.0),),
    empty_periods=((1, 5.0),),
    rebalancing_events=((90.0, 2),),
)

# (valid value, fields that break it, a fragment of the message): one or
# more cases per check, in each type's check order.  The interval-length
# cases of tests/test_demand.py and the probability cases of
# tests/test_udf.py check the same way and are not repeated here.
BAD = {
    "horizon-fractional-intervals": (HORIZON, {"intervals": 2.5}, "intervals must be an integer, got 2.5"),
    "horizon-bool-intervals": (HORIZON, {"intervals": True}, "intervals must be an integer, got True"),
    "horizon-string-intervals": (HORIZON, {"intervals": "4"}, "intervals must be an integer, got '4'"),
    "horizon-no-interval": (HORIZON, {"intervals": 0}, "at least one interval"),
    "horizon-nan-minutes": (HORIZON, {"minutes_per_interval": math.nan}, "minutes_per_interval"),
    "horizon-zero-minutes": (HORIZON, {"minutes_per_interval": 0.0}, "minutes_per_interval"),
    "horizon-start-hour-24": (HORIZON, {"start_hour": 24.0}, "start_hour"),
    "horizon-negative-start-hour": (HORIZON, {"start_hour": -0.5}, "start_hour"),
    "profile-rate-lengths-differ": (PROFILE, {"return_rates": (0.1,)}, "rate vectors differ in length"),
    "profile-empty-horizon": (PROFILE, {"rental_rates": (), "return_rates": (), "flags": ()}, "empty horizon"),
    "profile-nan-start-hour": (PROFILE, {"start_hour": math.nan}, "start_hour"),
    "profile-start-hour-99": (PROFILE, {"start_hour": 99.0}, "start_hour"),
    "profile-negative-start-hour": (PROFILE, {"start_hour": -1.0}, "start_hour"),
    "profile-string-rate": (PROFILE, {"rental_rates": ("0.1", 0.2)}, "rate '0.1' is not a real number"),
    "profile-none-rate": (PROFILE, {"return_rates": (0.2, None)}, "rate None is not a real number"),
    "profile-negative-rate": (PROFILE, {"rental_rates": (0.1, -0.2)}, "rate -0.2"),
    "profile-nan-rate": (PROFILE, {"return_rates": (math.nan, 0.1)}, "rate nan"),
    "profile-infinite-rate": (PROFILE, {"return_rates": (0.1, math.inf)}, "rate inf"),
    "profile-flag-past-horizon": (PROFILE, {"flags": ((2, "rental", "x"),)}, "flag interval 2"),
    "profile-negative-flag": (PROFILE, {"flags": ((-1, "return", "x"),)}, "flag interval -1"),
    "profile-flag-kind": (PROFILE, {"flags": ((0, "ride", "x"),)}, "flag kind 'ride'"),
    "finite-negative-probability": (FINITE, {"atoms": (((1,), -0.25),)}, "non-negative number"),
    "finite-bad-event": (FINITE, {"atoms": (((1, 2), 0.5),)}, "got 2"),
    "day-negative-capacity-before": (DAY, {"capacity_before": -1}, "negative capacity"),
    "day-negative-capacity-after": (DAY, {"capacity_after": -1, "bikes_at_open": 0}, "negative capacity"),
    "day-capacity-above-limit": (DAY, {"capacity_before": DEFAULT_CAPACITY_LIMIT + 1}, "above the limit"),
    "day-negative-bikes": (DAY, {"bikes_at_open": -1}, "bikes_at_open -1 outside 0..3"),
    "day-bikes-above-capacity": (DAY, {"bikes_at_open": 4}, "bikes_at_open 4 outside 0..3"),
    "day-bad-event": (DAY, {"observed_events": (1, 0)}, r"events must be \+1/-1, got 0"),
    "day-timestamp-count": (DAY, {"event_timestamps": (60.0,)}, "length mismatch"),
    "day-negative-period-interval": (DAY, {"full_periods": ((-1, 5.0),)}, r"bad period \(-1, 5.0\)"),
    "day-nan-period-minutes": (DAY, {"empty_periods": ((0, math.nan),)}, r"bad period \(0, nan\)"),
    "day-infinite-period-minutes": (DAY, {"full_periods": ((0, math.inf),)}, r"bad period \(0, inf\)"),
    "day-negative-period-minutes": (DAY, {"empty_periods": ((0, -1.0),)}, r"bad period \(0, -1.0\)"),
    "day-unsorted-timestamps": (DAY, {"event_timestamps": (120.0, 60.0)}, "event timestamps must be"),
    "day-nan-timestamp": (DAY, {"event_timestamps": (60.0, math.nan)}, "event timestamps must be"),
    "day-unsorted-crews": (DAY, {"rebalancing_events": ((90.0, 1), (30.0, 1))}, "rebalancing events must be"),
    "day-infinite-crew-time": (DAY, {"rebalancing_events": ((math.inf, 1),)}, "rebalancing events must be"),
    "day-crew-too-large": (DAY, {"rebalancing_events": ((90.0, -DEFAULT_CAPACITY_LIMIT - 1),)}, "at most"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_value_cannot_be_constructed(case):
    good, fields, message = BAD[case]
    with pytest.raises(ValidationError, match=message):
        type(good)(**{**dataclasses.asdict(good), **fields})


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_value_cannot_be_replaced_into(case):
    good, fields, message = BAD[case]
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(good, **fields)


def test_the_valid_values_construct():
    for good in (HORIZON, PROFILE, FINITE, DAY):
        assert dataclasses.replace(good) == good
        assert not hasattr(good, "validate")


def profiles_doc(station):
    return {"horizon": {"intervals": 2, "minutes_per_interval": 30.0}, "stations": [station]}


def day_doc(**fields):
    return {"station_id": "a", "capacity_before": 4, "capacity_after": 3, "bikes_at_open": 1, **fields}


DAYS_CSV_HEADER = "station_id,capacity_before,capacity_after,bikes_at_open,observed_events,full_periods\n"

# (loader, its input, the prefix it adds, the message of the failed check)
LOADED = {
    "profiles-horizon": (
        "profiles",
        {"horizon": {"intervals": 0, "minutes_per_interval": 30.0}, "stations": []},
        "malformed profiles document: ",
        "horizon needs at least one interval, got 0",
    ),
    "profiles-start-hour": (
        "profiles",
        {"horizon": {"intervals": 2, "minutes_per_interval": 30.0, "start_hour": 24}, "stations": []},
        "malformed profiles document: ",
        "start_hour must lie in [0, 24), got 24.0",
    ),
    "profiles-rate": (
        "profiles",
        profiles_doc({"id": "a", "rental_rates": [0.1, -1], "return_rates": [0.1, 0.1]}),
        "malformed profiles document: ",
        "profile 'a': rate -1.0 is not finite and non-negative",
    ),
    "profiles-flag": (
        "profiles",
        profiles_doc(
            {"id": "a", "rental_rates": [0.1, 0], "return_rates": [0.1, 0.1], "flags": [{"interval": 1, "kind": "ride", "flag": "x"}]}
        ),
        "malformed profiles document: ",
        "profile 'a': flag kind 'ride' is not 'rental' or 'return'",
    ),
    "days-json-bikes": (
        "days-json",
        [day_doc(bikes_at_open=5)],
        "malformed observed-day document: ",
        "day at 'a': bikes_at_open 5 outside 0..3",
    ),
    "days-json-period": (
        "days-json",
        [day_doc(full_periods=[[0, -2]])],
        "malformed observed-day document: ",
        "day at 'a': bad period (0, -2.0)",
    ),
    "days-csv-bikes": ("days-csv", DAYS_CSV_HEADER + "a,4,3,5,+-,\n", "line 2: malformed day row: ", "day at 'a': bikes_at_open 5 outside 0..3"),
    "days-csv-capacity": (
        "days-csv",
        DAYS_CSV_HEADER + f"a,4,{DEFAULT_CAPACITY_LIMIT + 1},1,+-,\n",
        "line 2: malformed day row: ",
        f"day at 'a': capacity above the limit {DEFAULT_CAPACITY_LIMIT}",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADED))
def test_loader_keeps_the_check_message_behind_its_prefix(tmp_path, case):
    loader, doc, prefix, message = LOADED[case]
    if loader == "days-csv":
        path = tmp_path / "days.csv"
        path.write_text(doc)
        prefix, doc, loader = f"{path}, {prefix}", path, days_from_csv
    else:
        loader = profiles_from_json if loader == "profiles" else days_from_json
    with pytest.raises(ValidationError, match=f"^{re.escape(prefix + message)}$"):
        loader(doc)
