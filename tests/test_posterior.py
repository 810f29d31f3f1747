import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dockalloc.demand import PoissonProfile
from dockalloc.errors import ValidationError
from dockalloc.oracle import posterior_replay_path, random_decreased_day
from dockalloc.posterior import (
    ImpactEstimate,
    ObservedDay,
    added_capacity_impact,
    censored_subsequence,
    decreased_capacity_impact,
    days_from_csv,
    days_from_json,
    posterior_report,
    rebalancing_adjustment,
    resolve_bikes_before,
)
from dockalloc.udf import count_stockouts

events_strategy = st.lists(st.sampled_from([-1, 1]), max_size=16).map(tuple)


class TestCensoredSubsequence:
    def test_failed_return_is_dropped(self):
        assert censored_subsequence((1, -1), 0, 1) == (-1,)

    def test_ample_capacity_keeps_everything(self):
        events = (1, -1, -1, 1, 1)
        assert censored_subsequence(events, 10, 10) == events

    def test_empty_sequence(self):
        assert censored_subsequence((), 2, 2) == ()

    @given(events_strategy, st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_replay_identity(self, events, d, b, dd, db):
        d_small, b_small = min(d, dd), min(b, db)
        lhs = count_stockouts(events, d_small, b_small) - count_stockouts(events, d, b)
        rhs = count_stockouts(censored_subsequence(events, d, b), d_small, b_small)
        assert lhs == rhs


class TestAddedCapacity:
    def test_unchanged_configuration_has_zero_impact(self):
        day = ObservedDay("a", 3, 3, 2, observed_events=(1, -1, 1))
        assert added_capacity_impact(day) == 0

    def test_hand_simulated_example(self):
        day = ObservedDay("a", capacity_before=1, capacity_after=2, bikes_at_open=0, observed_events=(1, 1, -1))
        assert added_capacity_impact(day) == 1

    def test_rules_agree_when_bikes_fit_and_proportion_matches(self):
        day = ObservedDay("a", capacity_before=2, capacity_after=4, bikes_at_open=4, observed_events=(1, -1))
        assert resolve_bikes_before(day, "same_bikes") == resolve_bikes_before(day, "proportional") == 2
        assert added_capacity_impact(day, "same_bikes") == added_capacity_impact(day, "proportional")

    def test_impact_is_never_negative(self, rng):
        for _ in range(200):
            cap_after = int(rng.integers(0, 8))
            b = int(rng.integers(0, cap_after + 1))
            cap_before = int(rng.integers(0, cap_after + 1))
            events = tuple(int(x) for x in rng.choice([-1, 1], size=int(rng.integers(0, 12))))
            observed = censored_subsequence(events, cap_after - b, b)
            day = ObservedDay("a", cap_before, cap_after, b, observed_events=observed)
            for rule in ("same_bikes", "proportional"):
                assert added_capacity_impact(day, rule) >= 0

    @pytest.mark.parametrize("minutes", [float("nan"), float("inf"), -1.0, 30.5, 3e5])
    def test_censored_period_must_be_finite_and_fit_its_interval(self, minutes):
        profile = PoissonProfile("a", (0.05,), (0.05,), minutes_per_interval=30.0)
        with pytest.raises(ValidationError):
            decreased_capacity_impact(ObservedDay("a", 2, 1, 1, full_periods=((0, minutes),)), profile, resamples=5)

    def test_wrong_direction_rejected(self):
        day = ObservedDay("a", capacity_before=5, capacity_after=3, bikes_at_open=1)
        with pytest.raises(ValidationError, match="decreased"):
            added_capacity_impact(day)

    def test_proportional_rounding_clamps(self):
        day = ObservedDay("a", capacity_before=1, capacity_after=3, bikes_at_open=2)
        # 2 * 1/3 rounds to 1; never exceeds the old capacity
        assert resolve_bikes_before(day, "proportional") == 1


class TestDecreasedCapacity:
    def test_no_censored_periods_is_deterministic(self):
        day = ObservedDay("a", capacity_before=3, capacity_after=2, bikes_at_open=2, observed_events=(-1, -1, 1))
        est = decreased_capacity_impact(day, resamples=50)
        assert est.stderr == 0.0 and est.resamples == 1

    def test_zero_rate_profile_adds_nothing(self):
        profile = PoissonProfile("a", (0.0,), (0.0,), minutes_per_interval=60.0)
        day = ObservedDay(
            "a", capacity_before=2, capacity_after=1, bikes_at_open=1, full_periods=((0, 60.0),)
        )
        est = decreased_capacity_impact(day, profile, resamples=200, seed=3)
        baseline = decreased_capacity_impact(
            ObservedDay("a", 2, 1, 1), resamples=1
        )
        assert est.mean == baseline.mean and est.stderr == 0.0

    def test_full_hour_matches_analytic_overflow(self):
        # full single-dock station for one hour at two intended returns/hour:
        # the old two-dock layout would have absorbed exactly one return
        # whenever at least one arrives.
        profile = PoissonProfile("a", (0.0,), (2 / 60,), minutes_per_interval=60.0)
        day = ObservedDay("a", capacity_before=2, capacity_after=1, bikes_at_open=1, full_periods=((0, 60.0),))
        est = decreased_capacity_impact(day, profile, resamples=10_000, seed=11)
        expect = 1 - math.exp(-2)
        assert abs(est.mean - expect) <= 3 * est.stderr

    def test_missing_profile_with_censoring_is_an_error(self):
        day = ObservedDay("a", 2, 1, 1, full_periods=((0, 30.0),))
        with pytest.raises(ValidationError, match="demand rates"):
            decreased_capacity_impact(day)

    def test_wrong_direction_rejected(self):
        day = ObservedDay("a", capacity_before=1, capacity_after=3, bikes_at_open=0)
        with pytest.raises(ValidationError, match="increased"):
            decreased_capacity_impact(day)


class TestSegmentTables:
    """The segment-table pricing against the event-by-event replay."""

    @staticmethod
    def day(seed):
        return random_decreased_day(np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 2**16))
    def test_equals_the_replay_reference(self, day_seed, resamples, seed):
        day, profile = self.day(day_seed)
        for rule in ("same_bikes", "proportional"):
            for mode in ("none", "strict", "optimistic"):
                args = (day, profile, rule, seed, resamples, mode)
                assert decreased_capacity_impact(*args) == posterior_replay_path(*args), (rule, mode)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 2**16))
    def test_day_without_periods_is_one_exact_replay(self, day_seed, resamples, seed):
        # no profile needed, and the segment path draws nothing
        day = dataclasses.replace(self.day(day_seed)[0], full_periods=(), empty_periods=())
        for rule in ("same_bikes", "proportional"):
            b_before = resolve_bikes_before(day, rule)
            for mode in ("none", "strict", "optimistic"):
                events, exempt = rebalancing_adjustment(day, mode)
                after = count_stockouts(events, day.capacity_after - day.bikes_at_open, day.bikes_at_open, exempt)
                before = count_stockouts(events, day.capacity_before - b_before, b_before, exempt)
                expected = ImpactEstimate(mean=float(after - before), stderr=0.0, resamples=1, seed=seed)
                assert decreased_capacity_impact(day, None, rule, seed, resamples, mode) == expected, (rule, mode)

    def test_random_days_cover_crews_periods_and_exemptions(self):
        seen = set()
        for seed in range(200):
            day, _ = self.day(seed)
            seen.update(
                name
                for name, present in (
                    ("full", day.full_periods),
                    ("empty", day.empty_periods),
                    ("crew", any(c for _, c in day.rebalancing_events)),
                    ("tie", set(day.event_timestamps) & {t for t, _ in day.rebalancing_events}),
                    ("exempt", day.full_periods and any(rebalancing_adjustment(day, "optimistic")[1])),
                )
                if present
            )
        assert seen == {"full", "empty", "crew", "tie", "exempt"}

    def test_array_draw_keeps_the_scalar_draw_order(self):
        # zero, below and above numpy's switch to rejection sampling at 10
        lams = [0.0, 0.4, 3.7, 9.99, 10.0, 12.5, 61.0]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
        scalar = [[int(rng.poisson(lam)) for lam in lams] for _ in range(64)]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
        array = rng.poisson(np.repeat(np.asarray(lams)[None, :], 64, 0))
        assert array.tolist() == scalar

    def test_verify_counts_a_mismatch_as_a_violation(self, monkeypatch):
        import dataclasses

        from dockalloc import verify

        assert verify._check_posterior_replay(0, days=8, resamples=5)["passed"]

        def one_miss_off(*args):
            est = posterior_replay_path(*args)
            return dataclasses.replace(est, mean=est.mean + 1.0)

        monkeypatch.setattr(verify, "decreased_capacity_impact", one_miss_off)
        assert not verify._check_posterior_replay(0, days=8, resamples=5)["passed"]


class TestRebalancing:
    def test_no_events_is_identity(self):
        day = ObservedDay("a", 2, 2, 1, observed_events=(1, -1), event_timestamps=(10.0, 20.0))
        events, exempt = rebalancing_adjustment(day)
        assert events == (1, -1)
        assert exempt == (False, False)

    def test_strict_mode_counts_overflowing_rebalanced_bikes(self):
        day = ObservedDay("a", 2, 2, 0, rebalancing_events=((50.0, 3),), event_timestamps=())
        events, exempt = rebalancing_adjustment(day, "strict")
        assert events == (1, 1, 1)
        assert count_stockouts(events, 2, 0, exempt) == 1

    def test_optimistic_mode_exempts_them(self):
        day = ObservedDay("a", 2, 2, 0, rebalancing_events=((50.0, 3),), event_timestamps=())
        events, exempt = rebalancing_adjustment(day, "optimistic")
        assert count_stockouts(events, 2, 0, exempt) == 0

    def test_splice_respects_timestamps(self):
        day = ObservedDay(
            "a", 2, 2, 0,
            observed_events=(-1, -1),
            event_timestamps=(100.0, 300.0),
            rebalancing_events=((200.0, 2),),
        )
        events, _ = rebalancing_adjustment(day)
        assert events == (-1, 1, 1, -1)

    def test_removal_rebalancing_becomes_virtual_rentals(self):
        day = ObservedDay("a", 2, 2, 2, rebalancing_events=((10.0, -1),), event_timestamps=())
        events, _ = rebalancing_adjustment(day)
        assert events == (-1,)

    def test_requires_timestamps(self):
        day = ObservedDay("a", 2, 2, 0, observed_events=(1,), rebalancing_events=((5.0, 1),))
        with pytest.raises(ValidationError, match="event_timestamps"):
            rebalancing_adjustment(day)

    def test_none_mode_leaves_the_crews_out(self):
        day = ObservedDay("a", 2, 2, 0, observed_events=(1,), rebalancing_events=((5.0, 1),))
        assert rebalancing_adjustment(day, "none") == ((1,), (False,))

    def test_optimistic_never_exceeds_strict(self, rng):
        for _ in range(50):
            cap = int(rng.integers(1, 6))
            b = int(rng.integers(0, cap + 1))
            n_events = int(rng.integers(0, 8))
            events = tuple(int(x) for x in rng.choice([-1, 1], size=n_events))
            stamps = tuple(float(t) for t in np.sort(rng.uniform(0, 1000, n_events)))
            reb = ((float(rng.uniform(0, 1000)), int(rng.integers(-3, 4))),)
            day = ObservedDay("a", cap, cap, b, events, stamps, rebalancing_events=reb)
            strict_ev, strict_mask = rebalancing_adjustment(day, "strict")
            opt_ev, opt_mask = rebalancing_adjustment(day, "optimistic")
            assert count_stockouts(opt_ev, cap - b, b, opt_mask) <= count_stockouts(
                strict_ev, cap - b, b, strict_mask
            )


class TestReport:
    def test_four_column_structure(self):
        days = [
            ObservedDay("grown", 3, 5, 2, observed_events=(1, 1, 1, -1)),
            ObservedDay("shrunk", 4, 3, 1, observed_events=(-1,)),
        ]
        report = posterior_report(days, {}, resamples=10, seed=1)
        keys = {f"{c['rule']}/{c['rebalancing']}" for c in report["columns"]}
        assert keys == {"same_bikes/none", "same_bikes/strict", "proportional/none", "proportional/strict"}
        assert report["coverage"] == {"days": 2, "stations": 2}
        for key in keys:
            net = report["aggregate"]["net_reduction"][key]
            assert net == report["aggregate"]["reduction_where_capacity_added"][key] - report[
                "aggregate"
            ]["increase_where_capacity_taken"][key]

    def test_crew_emptied_day_with_empty_period(self):
        # cut from 10 to 5 docks with 2 bikes at open; the crew's removal of
        # both bikes at 600 s is the only way the station gets empty
        profile = PoissonProfile("s", (3.0,), (0.0,), minutes_per_interval=60.0)
        day = ObservedDay(
            "s", 10, 5, 2, event_timestamps=(), empty_periods=((0, 10.0),), rebalancing_events=((600.0, -2),)
        )
        report = posterior_report([day], {"s": profile}, resamples=20, seed=5)
        # same_bikes keeps 2 bikes before the cut, so no extra failures;
        # proportional starts the old layout with 4, two more to rent
        assert report["stations"][0]["removed"] == {
            "same_bikes/none": 0.0,
            "same_bikes/strict": 0.0,
            "proportional/none": 2.0,
            "proportional/strict": 2.0,
        }

    def test_none_column_places_period_among_observed_events(self):
        # rental at 100 s, crew removal at 600 s empties the station, six
        # returns afterwards: the empty period sits after one observed event
        profile = PoissonProfile("s", (3.0,), (0.0,), minutes_per_interval=60.0)
        day = ObservedDay(
            "s",
            10,
            5,
            2,
            observed_events=(-1, 1, 1, 1, 1, 1, 1),
            event_timestamps=(100.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0),
            empty_periods=((0, 10.0),),
            rebalancing_events=((600.0, -1),),
        )
        for rule, expect in (("same_bikes", 1.0), ("proportional", 3.0)):
            for mode in ("none", "strict", "optimistic"):
                est = decreased_capacity_impact(day, profile, rule, seed=2, resamples=20, rebalancing=mode)
                assert (est.mean, est.stderr) == (expect, 0.0), (rule, mode)

    def test_report_is_deterministic(self):
        profile = PoissonProfile("shrunk", (0.05,), (0.05,), minutes_per_interval=60.0)
        days = [ObservedDay("shrunk", 3, 2, 2, full_periods=((0, 45.0),))]
        a = posterior_report(days, {"shrunk": profile}, resamples=50, seed=7)
        b = posterior_report(days, {"shrunk": profile}, resamples=50, seed=7)
        assert a == b


class TestDayIO:
    def test_json_and_csv_loaders_agree(self, tmp_path):
        doc = {
            "days": [
                {
                    "station_id": "a",
                    "capacity_before": 3,
                    "capacity_after": 5,
                    "bikes_at_open": 2,
                    "observed_events": [1, -1, 1],
                    "event_timestamps": [10, 20, 30],
                    "full_periods": [[4, 12.5]],
                    "empty_periods": [],
                    "rebalancing_events": [[15, 2]],
                }
            ]
        }
        from_json = days_from_json(doc)
        csv_path = tmp_path / "days.csv"
        csv_path.write_text(
            "station_id,capacity_before,capacity_after,bikes_at_open,observed_events,"
            "event_timestamps,full_periods,empty_periods,rebalancing_events\n"
            'a,3,5,2,+-+,10|20|30,4:12.5,,15:2\n'
        )
        from_csv = days_from_csv(csv_path)
        assert from_json == from_csv
