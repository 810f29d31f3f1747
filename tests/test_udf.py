import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dockalloc import udf
from dockalloc.demand import PoissonProfile
from dockalloc.errors import CapacityLimitError, ValidationError
from dockalloc.udf import (
    CostTable,
    FiniteProfile,
    LazyDailyCost,
    bike_trajectory,
    check_multimodular,
    cost_table_from_finite,
    count_stockouts,
    interval_cost_poisson,
    load_cost_table,
    replay_from_every_start,
    save_cost_table,
)
from dockalloc.oracle import day_matrix_path, expected_cost_finite, simulate_cost, synthetic_scenario
from dockalloc.posterior import censored_subsequence

events_strategy = st.lists(st.sampled_from([-1, 1]), max_size=14).map(tuple)


class TestCountStockouts:
    def test_zero_capacity_fails_every_arrival(self):
        assert count_stockouts((1,), 0, 0) == 1

    def test_return_then_two_rentals_served_with_one_dock_one_bike(self):
        assert count_stockouts((1, -1, -1), 1, 1) == 0

    def test_same_sequence_with_no_bike_misses_once(self):
        assert count_stockouts((1, -1, -1), 1, 0) == 1

    def test_final_state_reported(self):
        assert count_stockouts((1, 1, -1), 2, 0) == 0
        bikes = bike_trajectory((1, 1, -1), 2, 0)[-1]
        assert (2 - bikes, bikes) == (1, 1)

    def test_rejects_bad_event(self):
        with pytest.raises(ValidationError):
            count_stockouts((2,), 1, 1)

    @given(events_strategy, st.integers(0, 6), st.integers(0, 6))
    def test_capacity_is_conserved(self, events, d, b):
        assert all(0 <= bikes <= d + b for bikes in bike_trajectory(events, d, b))

    @given(events_strategy, st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
    def test_smaller_stations_miss_at_least_as_much(self, events, d, b, dd, db):
        bigger = count_stockouts(events, d + dd, b + db)
        smaller = count_stockouts(events, d, b)
        assert smaller >= bigger


class TestFiniteProfiles:
    def test_reference_half_half_values(self):
        p = FiniteProfile((((-1,), Fraction(1, 2)), ((1, -1), Fraction(1, 2))))
        assert expected_cost_finite(p, 0, 1) == Fraction(1, 2)
        p2 = FiniteProfile((((1,), Fraction(1, 2)),))
        assert expected_cost_finite(p2, 1, 0) == 0

    def test_empty_profile_costs_nothing(self):
        assert expected_cost_finite(FiniteProfile(()), 3, 2) == 0

    def test_probability_sum_above_one_rejected(self):
        p = FiniteProfile((((1,), 0.7), ((-1,), 0.5)))
        with pytest.raises(ValidationError, match="exceeding 1"):
            expected_cost_finite(p, 1, 1)

    def test_nan_probability_rejected(self):
        p = FiniteProfile((((1,), float("nan")),))
        with pytest.raises(ValidationError, match="nan"):
            p.validate()

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_bike_sweep_at_fixed_capacity_is_convex(self, d, b):
        p = FiniteProfile((((1, -1, -1, 1), 0.5), ((-1, -1), 0.25)))
        cap = d + b + 2
        vals = [expected_cost_finite(p, cap - k, k) for k in range(cap + 1)]
        for k in range(1, cap):
            assert vals[k + 1] - vals[k] >= vals[k] - vals[k - 1] - 1e-12


class TestIntervalAnalysis:
    def test_no_demand_is_identity(self):
        r = interval_cost_poisson(0.0, 0.0, 30.0, 3)
        assert np.allclose(r.transition, np.eye(4))
        assert np.allclose(r.expected_events, 0.0)

    def test_zero_capacity_counts_every_arrival(self):
        r = interval_cost_poisson(0.4, 0.3, 10.0, 0)
        assert r.expected_events[0] == pytest.approx(7.0, abs=1e-8)

    def test_full_station_returns_only(self):
        # one return per minute at a full single-dock station: every return fails
        r = interval_cost_poisson(0.0, 1.0, 1.0, 1)
        assert r.expected_events[1] == pytest.approx(1.0, abs=1e-8)
        mean, stderr = simulate_cost(
            PoissonProfile("x", (0.0,), (1.0,), minutes_per_interval=1.0), 0, 1, 100_000, seed=3
        )
        assert abs(mean - r.expected_events[1]) <= 3 * stderr + 1e-9

    def test_rows_are_stochastic(self):
        r = interval_cost_poisson(0.7, 0.2, 30.0, 6)
        assert np.allclose(r.transition.sum(axis=1), 1.0, atol=1e-9)
        assert (r.transition >= 0).all()

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            interval_cost_poisson(float("nan"), 0.1, 30.0, 2)
        with pytest.raises(ValidationError):
            interval_cost_poisson(-0.1, 0.1, 30.0, 2)


class TestDailyCost:
    def test_zero_rates_zero_table(self):
        p = PoissonProfile("z", (0.0, 0.0), (0.0, 0.0))
        table = LazyDailyCost(p).materialize(5)
        assert all(v == 0 for row in table.values for v in row)

    def test_single_interval_zero_capacity(self):
        p = PoissonProfile("z", (0.2,), (0.1,), minutes_per_interval=30.0)
        table = LazyDailyCost(p).materialize(0)
        assert table.cost(0, 0) == pytest.approx(0.3 * 30.0, abs=1e-8)

    def test_split_interval_matches_merged(self):
        merged = LazyDailyCost(PoissonProfile("m", (0.15,), (0.1,), minutes_per_interval=60.0)).materialize(8)
        split = LazyDailyCost(PoissonProfile("s", (0.15, 0.15), (0.1, 0.1), minutes_per_interval=30.0)).materialize(8)
        for row_m, row_s in zip(merged.values, split.values):
            for a, b in zip(row_m, row_s):
                assert a == pytest.approx(b, abs=1e-8)

    def test_lazy_matches_eager(self):
        p = PoissonProfile("l", (0.1, 0.3), (0.2, 0.05))
        lazy = LazyDailyCost(p)
        eager = lazy.materialize(6)
        for s in range(7):
            for b in range(s + 1):
                assert lazy.cost(s - b, b) == eager.cost(s - b, b)

    def test_finite_profile_matches_exact_table(self):
        p = FiniteProfile((((1, -1, -1, 1), Fraction(1, 2)), ((-1, -1), Fraction(1, 4))))
        lazy = LazyDailyCost(p)
        exact = cost_table_from_finite(p, 6)
        table = lazy.materialize(6)
        assert (table.station_id, table.provenance) == ("", "finite")
        for s in range(7):
            for b in range(s + 1):
                assert lazy.cost(s - b, b) == table.cost(s - b, b) == float(exact.cost(s - b, b))

    def test_capacity_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(udf, "DEFAULT_CAPACITY_LIMIT", 16)
        p = PoissonProfile("c", (0.1,), (0.1,))
        with pytest.raises(CapacityLimitError):
            LazyDailyCost(p).cost(10, 7)

    def test_simulation_agreement_randomized(self, rng):
        for case in range(6):
            intervals = int(rng.integers(1, 4))
            p = PoissonProfile(
                f"r{case}",
                tuple(float(x) for x in rng.uniform(0, 0.2, intervals)),
                tuple(float(x) for x in rng.uniform(0, 0.2, intervals)),
            )
            cap = int(rng.integers(0, 11))
            b = int(rng.integers(0, cap + 1))
            analytic = LazyDailyCost(p).cost(cap - b, b)
            mean, stderr = simulate_cost(p, cap - b, b, 30_000, seed=100 + case)
            assert abs(analytic - mean) <= 3 * stderr + 1e-9


def matrix_path_gap(daily, capacity):
    """Largest kernel/matrix-path difference over the cost vector (relative
    where the cost exceeds 1, absolute below) and the day transition; the
    transition is asked for first on a fresh station, so both outputs come
    from the transition pass."""
    cost, rho = day_matrix_path(daily.profile, capacity)
    transition = daily.day_transition(capacity)
    assert (transition >= 0).all()
    assert np.max(np.abs(transition.sum(axis=1) - 1.0)) <= 1e-12
    cost_gap = np.max(np.abs(daily.cost_vector(capacity) - cost) / np.maximum(1.0, np.abs(cost)))
    return max(cost_gap, np.max(np.abs(transition - rho)))


class TestVectorKernel:
    """The batched kernel's costs and day transitions against the dense
    matrix chain."""

    def test_synthetic_city_matches_matrix_path(self):
        for station in synthetic_scenario(6).stations:
            daily = LazyDailyCost(station.profile)
            for capacity in range(46):
                assert matrix_path_gap(daily, capacity) <= 1e-12, (station.id, capacity)

    @pytest.mark.parametrize("capacity", [0, 1, 5, 12])
    def test_idle_rental_only_and_return_only_intervals(self, capacity):
        p = PoissonProfile("e", (0.0, 0.3, 0.0, 0.1), (0.0, 0.0, 0.25, 0.2))
        assert matrix_path_gap(LazyDailyCost(p), capacity) <= 1e-12

    @pytest.mark.parametrize("capacity", [0, 3, 10])
    def test_jump_mean_near_five_thousand(self, capacity):
        p = PoissonProfile("h", (90.0,), (76.7,), minutes_per_interval=30.0)  # 5,001 expected arrivals
        assert matrix_path_gap(LazyDailyCost(p), capacity) <= 1e-12

    def test_zero_rates_give_the_exact_identity(self):
        daily = LazyDailyCost(PoissonProfile("z", (0.0, 0.0), (0.0, 0.0)))
        for capacity in range(10):
            assert np.array_equal(daily.day_transition(capacity), np.eye(capacity + 1))
            assert np.array_equal(daily.cost_vector(capacity), np.zeros(capacity + 1))

    def test_cost_vector_independent_of_order(self):
        p = synthetic_scenario(6).stations[1].profile
        alone = {c: LazyDailyCost(p).cost_vector(c) for c in range(46)}
        ascending, descending, materialized = LazyDailyCost(p), LazyDailyCost(p), LazyDailyCost(p)
        for c in range(46):
            ascending.cost_vector(c)
        for c in reversed(range(46)):
            descending.cost_vector(c)
        table = materialized.materialize(45)
        for c in range(46):
            for source in (ascending, descending, materialized, LazyDailyCost(p)):
                assert np.array_equal(source.cost_vector(c), alone[c])
            assert table.values[c] == tuple(float(x) for x in alone[c])

    def test_cost_vector_same_whichever_output_is_asked_first(self):
        for station in synthetic_scenario(6).stations:
            by_cost, by_transition = LazyDailyCost(station.profile), LazyDailyCost(station.profile)
            for capacity in range(0, 46, 3):
                by_transition.day_transition(capacity)
                assert np.array_equal(by_transition.cost_vector(capacity), by_cost.cost_vector(capacity))

    def test_capacity_priced_alone_agrees_with_its_block(self):
        # BLAS may round an entry by where it sits in the vector, so the last
        # bits may differ; the block's answer is the one every caller sees
        for station in synthetic_scenario(10).stations:
            daily = LazyDailyCost(station.profile)
            block = list(range(16, 24))
            costs, rhos = daily._price_block(block, True)
            for capacity, cost, rho in zip(block, costs, rhos):
                (alone_cost,), (alone_rho,) = daily._price_block([capacity], True)
                assert np.max(np.abs(alone_cost - cost) / np.maximum(1.0, np.abs(cost))) <= 1e-14
                assert np.max(np.abs(alone_rho - rho)) <= 1e-14
                assert np.array_equal(daily.cost_vector(capacity), cost)

    def test_blocks_identical_across_blas_thread_counts(self):
        # OpenBLAS caps OPENBLAS_NUM_THREADS at the core count; the runtime
        # setter of numpy's bundled OpenBLAS, where there is one, does not, so
        # a small host still splits each gemv as many ways as asked.
        script = (
            "import ctypes, glob, hashlib, os, sys\n"
            "import numpy\n"
            "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, 'numpy.libs', '*openblas*'))\n"
            "setter = getattr(ctypes.CDLL(libs[0]), 'scipy_openblas_set_num_threads64_', None) if libs else None\n"
            "if setter is not None:\n"
            "    setter(int(os.environ['OPENBLAS_NUM_THREADS']))\n"
            "from dockalloc.oracle import synthetic_scenario\n"
            "from dockalloc.udf import LazyDailyCost\n"
            "digest = hashlib.sha256()\n"
            "for station in synthetic_scenario(4).stations:\n"
            "    daily = LazyDailyCost(station.profile)\n"
            "    for capacity in range(0, 48, 8):\n"
            "        daily.day_transition(capacity)\n"
            "    for capacity in range(48):\n"
            "        digest.update(daily.cost_vector(capacity).tobytes())\n"
            "        digest.update(daily.day_transition(capacity).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {}
        for threads in ("1", "2", "3", "4", "5"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests[threads] = proc.stdout.strip()
        assert len(set(digests.values())) == 1, digests

    def test_day_transition_keeps_the_stored_cost(self):
        daily = LazyDailyCost(synthetic_scenario(6).stations[0].profile)
        stored = daily.cost_vector(9)
        before = [daily.cost(9 - b, b) for b in range(10)]
        daily.day_transition(9)
        assert [daily.cost(9 - b, b) for b in range(10)] == before
        assert daily.cost_vector(9) is stored

    def test_block_skips_capacities_already_built(self, price_blocks):
        daily = LazyDailyCost(synthetic_scenario(6).stations[0].profile)
        daily.day_transition(12)
        from_transition_pass = daily.cost_vector(12)
        daily.cost_vector(9)
        daily.day_transition(9)
        daily.cost_vector(3)
        daily.day_transition(4)
        block, low = list(range(8, 16)), list(range(8))
        assert price_blocks == [(block, True), (low, False), (low, True)]
        assert daily.cost_vector(12) is from_transition_pass

    def test_implausible_rates_rejected_at_pricing(self):
        daily = LazyDailyCost(PoissonProfile("big", (0.1, 4000.0), (0.1, 0.0), minutes_per_interval=30.0))
        with pytest.raises(ValidationError):
            daily.cost(2, 1)

    def test_blocks_stop_at_the_capacity_limit(self, price_blocks, monkeypatch):
        monkeypatch.setattr(udf, "DEFAULT_CAPACITY_LIMIT", 10)
        daily = LazyDailyCost(PoissonProfile("c", (0.1, 0.2), (0.15, 0.05)))
        assert daily.cost(4, 6) >= 0
        with pytest.raises(CapacityLimitError):
            daily.cost(5, 6)
        assert price_blocks == [([8, 9, 10], False)]

    def test_negative_capacity_rejected(self):
        daily = LazyDailyCost(PoissonProfile("n", (0.1,), (0.1,)))
        with pytest.raises(ValidationError):
            daily.cost_vector(-1)
        with pytest.raises(ValidationError):
            daily.cost(-1, 0)


class TestCostTable:
    def test_json_round_trip_floats_and_fractions(self, tmp_path):
        table = CostTable("s", 2, ((Fraction(1, 2),), (0.25, Fraction(3, 2)), (0.0, 0.0, 1.0)))
        path = tmp_path / "t.json"
        save_cost_table(path, table)
        loaded = load_cost_table(path)
        assert loaded.cost(0, 0) == Fraction(1, 2)
        assert loaded.cost(0, 1) == Fraction(3, 2)
        assert loaded.cost(1, 0) == 0.25
        assert loaded.cost(0, 2) == 1.0

    def test_anti_diagonal_layout(self):
        p = FiniteProfile((((-1,), 1.0),))
        table = cost_table_from_finite(p, 2, station_id="x")
        # row s lists b = 0..s
        assert table.values[1] == (expected_cost_finite(p, 1, 0), expected_cost_finite(p, 0, 1))

    def test_marginal_accessor(self):
        p = FiniteProfile((((-1,), 1.0),))
        table = cost_table_from_finite(p, 3)
        assert table.marginal(1, 0, -1, 1) == table.cost(0, 1) - table.cost(1, 0)


class TestMultimodularity:
    @given(st.data())
    def test_finite_profile_tables_pass(self, data):
        n_atoms = data.draw(st.integers(0, 3))
        atoms = []
        remaining = Fraction(1)
        for _ in range(n_atoms):
            p = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
            if p > remaining:
                continue
            remaining -= p
            events = data.draw(events_strategy)
            atoms.append((events, p))
        table = cost_table_from_finite(FiniteProfile(tuple(atoms)), 6)
        assert check_multimodular(table) == []

    def test_poisson_tables_pass(self, rng):
        for _ in range(4):
            p = PoissonProfile(
                "m",
                tuple(float(x) for x in rng.uniform(0, 0.3, 4)),
                tuple(float(x) for x in rng.uniform(0, 0.3, 4)),
            )
            table = LazyDailyCost(p).materialize(int(rng.integers(3, 10)))
            assert check_multimodular(table) == []

    def test_crafted_violation_is_reported_exactly(self):
        # equal-capacity square with the diagonal inequality broken at the origin
        table = CostTable("bad", 2, ((1.0,), (1.0, 1.0), (1.0, 0.0, 1.0)))
        violations = check_multimodular(table)
        assert {(v.inequality, v.d, v.b) for v in violations} == {(1, 0, 0), (6, 0, 0)}
        assert all(v.amount == pytest.approx(1.0) for v in violations)

    def test_tolerance_sits_between_rounding_and_real_violations(self):
        # the same square broken by 1e-6 is reported; broken by 1e-12, a
        # rounding error's size, it is not
        table = CostTable("small", 2, ((1.0,), (1.0, 1.0), (1.0, 1.0 - 1e-6, 1.0)))
        violations = check_multimodular(table)
        assert {(v.inequality, v.d, v.b) for v in violations} == {(1, 0, 0), (6, 0, 0)}
        assert all(v.amount == pytest.approx(1e-6) for v in violations)
        assert check_multimodular(CostTable("noise", 2, ((1.0,), (1.0, 1.0), (1.0, 1.0 - 1e-12, 1.0)))) == []


# The replays as they stood before the finite day model and the posterior
# shared ``count_stockouts`` and ``replay_from_every_start``: one scalar loop
# per use, kept here as the references of the shared ones.


def reference_replay(events, d, b, exempt=None):
    """Misses, final (docks, bikes) and the served events, one event at a time."""
    docks, bikes, misses, served = d, b, 0, []
    for i, x in enumerate(events):
        skip = exempt is not None and exempt[i]
        if x == 1:
            if docks == 0:
                misses += 0 if skip else 1
            else:
                docks, bikes = docks - 1, bikes + 1
                served.append(x)
        else:
            if bikes == 0:
                misses += 0 if skip else 1
            else:
                docks, bikes = docks + 1, bikes - 1
                served.append(x)
    return misses, (docks, bikes), tuple(served)


def reference_expected_cost(profile, d, b):
    total = 0
    for events, p in profile.atoms:
        if p != 0:
            total += p * reference_replay(events, d, b)[0]
    return total


def reference_finite_day(profile, capacity):
    """The finite branch of ``LazyDailyCost._build``: a replay per start
    count and atom."""
    m = capacity + 1
    cost = np.array([float(reference_expected_cost(profile, capacity - x, x)) for x in range(m)])
    rho = np.zeros((m, m))
    residual = float(profile.residual)
    for x in range(m):
        for events, prob in profile.atoms:
            if prob != 0:
                rho[x, reference_replay(events, capacity - x, x)[1][1]] += float(prob)
        rho[x, x] += residual
    return cost, rho


events_30 = st.lists(st.sampled_from([-1, 1]), max_size=30).map(tuple)


@st.composite
def finite_profiles(draw):
    """Up to four atoms with float probabilities, or with ninths as
    ``Fraction``s, some of them zero."""
    exact = draw(st.booleans())
    atoms, left = [], 9
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, left))
        left -= k
        atoms.append((draw(events_30), Fraction(k, 9) if exact else draw(st.floats(0, 0.25))))
    return FiniteProfile(tuple(atoms))


class TestReplays:
    @given(st.data(), events_30, st.integers(0, 12))
    def test_table_matches_the_scalar_replay_from_every_start(self, data, events, capacity):
        exempt = data.draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=len(events), max_size=len(events))))
        ends, misses = replay_from_every_start(events, capacity, exempt)
        for x in range(capacity + 1):
            count = count_stockouts(events, capacity - x, x, exempt)
            assert (int(ends[x]), int(misses[x])) == (bike_trajectory(events, capacity - x, x)[-1], count)

    @given(st.data(), events_30, st.integers(0, 8), st.integers(0, 8))
    def test_scalar_replays_match_the_reference_loop(self, data, events, d, b):
        exempt = data.draw(st.lists(st.booleans(), min_size=len(events), max_size=len(events)))
        misses, state, served = reference_replay(events, d, b, exempt)
        bikes = bike_trajectory(events, d, b)[-1]
        assert (count_stockouts(events, d, b, exempt), (d + b - bikes, bikes)) == (misses, state)
        assert count_stockouts(events, d, b) == reference_replay(events, d, b)[0]
        assert censored_subsequence(events, d, b) == served

    def test_exempt_flags_must_match_the_events(self):
        with pytest.raises(ValueError):
            count_stockouts((1, -1), 1, 1, (False,))

    def test_table_rejects_bad_event(self):
        with pytest.raises(ValidationError):
            replay_from_every_start((1, 0, -1), 3)

    @given(finite_profiles(), st.integers(0, 9))
    def test_finite_day_model_keeps_its_bits(self, profile, capacity):
        cost, rho = reference_finite_day(profile, capacity)
        daily = LazyDailyCost(profile)
        assert np.array_equal(daily.day_transition(capacity), rho)
        assert np.array_equal(daily.cost_vector(capacity), cost)
        assert np.array_equal(LazyDailyCost(profile).cost_vector(capacity), cost)

    @given(finite_profiles(), st.integers(0, 9))
    def test_exact_tables_equal_the_scalar_sums(self, profile, capacity):
        values = cost_table_from_finite(profile, capacity).values
        assert values == tuple(
            tuple(reference_expected_cost(profile, s - b, b) for b in range(s + 1)) for s in range(capacity + 1)
        )
        assert all(type(v) is type(reference_expected_cost(profile, 0, 0)) for row in values for v in row)

    def test_negative_table_capacity_rejected(self):
        for profile in (PoissonProfile("n", (0.1,), (0.1,)), FiniteProfile((((1,), 0.5),))):
            with pytest.raises(ValidationError, match="non-negative"):
                LazyDailyCost(profile).materialize(-3)
