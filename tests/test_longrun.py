from fractions import Fraction

import numpy as np
import pytest
from conftest import philox

from dockalloc.demand import PoissonProfile
from dockalloc.errors import ValidationError
from dockalloc import longrun
from dockalloc.longrun import LongrunCost, _state_reduction, _state_reductions, day_chain, stationary
from dockalloc.oracle import day_matrix_path, synthetic_scenario
from dockalloc.udf import FiniteProfile, LazyDailyCost, check_multimodular, interval_cost_poisson


def day_transition(profile, capacity):
    return LazyDailyCost(profile).day_transition(capacity)


def loop_state_reduction(rho):
    """The state reduction one chain at a time, the reference for the
    batched ``_state_reductions``."""
    a = rho.copy()
    m = a.shape[0]
    for k in range(m - 1, 0, -1):
        pivot = a[k, :k].sum()
        if not pivot > 0.0:
            return None
        a[:k, k] /= pivot
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    return pi


def random_chain(rng, size):
    raw = rng.uniform(0.0, 1.0, (size, size)) ** 4  # uneven rows, some entries near zero
    return raw / raw.sum(axis=1, keepdims=True)


TRANSIENT = np.array([[0.0, 0.6, 0.4], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])  # state 0 transient
REDUCIBLE = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.0, 0.0, 1.0]])  # states 0 and 2 absorb


class TestDayTransition:
    def test_zero_demand_is_identity(self):
        assert np.allclose(day_transition(FiniteProfile(()), 4), np.eye(5))

    def test_certain_rental_always_ends_empty(self):
        p = FiniteProfile((((-1,), 1.0),))
        assert day_transition(p, 1).tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_rental_then_return_certain(self):
        p = FiniteProfile((((-1, 1), 1.0),))
        rho = day_transition(p, 2)
        assert rho[0].tolist() == [0.0, 1.0, 0.0]  # empty start: rental lost, return lands
        assert rho[1].tolist() == [0.0, 1.0, 0.0]
        assert rho[2].tolist() == [0.0, 0.0, 1.0]

    def test_poisson_uses_cached_interval_chain(self):
        p = PoissonProfile("x", (0.1, 0.2), (0.2, 0.1))
        daily = LazyDailyCost(p)
        rho = daily.day_transition(5)
        chained = interval_cost_poisson(0.1, 0.2, 30.0, 5).transition @ interval_cost_poisson(0.2, 0.1, 30.0, 5).transition
        assert np.max(np.abs(rho - chained)) <= 1e-12
        assert daily.day_transition(5) is rho
        assert np.max(np.abs(rho.sum(axis=1) - 1.0)) <= 1e-12


class TestStationary:
    def test_symmetric_chain(self):
        pi, ergodic = stationary(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(pi, [0.5, 0.5])
        assert ergodic

    def test_periodic_chain_still_unique(self):
        pi, ergodic = stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pi, [0.5, 0.5])
        assert ergodic

    def test_identity_falls_back_to_uniform(self):
        pi, ergodic = stationary(np.eye(4))
        assert np.allclose(pi, 0.25)
        assert not ergodic

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            stationary(np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_fixed_point_property(self, rng):
        for _ in range(5):
            raw = rng.uniform(0.01, 1.0, (6, 6))
            rho = raw / raw.sum(axis=1, keepdims=True)
            pi, ergodic = stationary(rho)
            assert ergodic
            assert np.allclose(pi @ rho, pi, atol=1e-8)
            pi2, _ = stationary(rho @ rho)
            assert np.allclose(pi2, pi, atol=1e-7)


    def test_transient_states_fall_back_to_least_squares(self):
        # state 0 is transient: the reduction meets a zero pivot at once
        rho = np.array([[0.0, 0.6, 0.4], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])
        assert _state_reduction(rho) is None
        pi, ergodic = stationary(rho)
        assert ergodic
        assert np.allclose(pi, [0.0, 2 / 7, 5 / 7], atol=1e-12)

    def test_least_squares_answer_is_clipped_to_non_negative(self):
        # nine transient states feed three recurrent ones, so the reduction
        # meets a zero pivot; least squares leaves rounding-size entries,
        # some of them negative, on the transient states
        t, m = 9, 12
        rho = philox(3).uniform(0.0, 1.0, (m, m))
        rho[t:, :t] = 0.0
        rho /= rho.sum(axis=1, keepdims=True)
        assert _state_reduction(rho) is None
        pi, ergodic = stationary(rho)
        assert ergodic
        assert pi.min() >= 0.0
        assert pi[:t].max() <= 1e-14
        assert pi[t:] == pytest.approx(stationary(rho[t:, t:])[0], abs=1e-12)

    def test_damped_fallback_value_on_a_reducible_chain(self):
        # states 0 and 2 absorb and state 1 is transient, so no unique law
        # exists; the fallback is the fixed point of
        # pi = 0.99 * pi @ rho + 0.01 / 3, solved here by hand
        rho = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.0, 0.0, 1.0]])
        d = Fraction(99, 100)
        p1 = (1 - d) / 3 / (1 - d / 2)
        p0 = ((1 - d) / 3 + d * Fraction(1, 5) * p1) / (1 - d)
        p2 = ((1 - d) / 3 + d * Fraction(3, 10) * p1) / (1 - d)
        assert p0 + p1 + p2 == 1
        pi, ergodic = stationary(rho)
        assert not ergodic
        assert pi == pytest.approx([float(p0), float(p1), float(p2)], rel=1e-12)

    def test_law_off_its_fixed_point_goes_to_the_damped_fallback(self, monkeypatch):
        rho = random_chain(philox(23), 6)
        pi, ergodic = stationary(rho)
        assert ergodic
        law = pi + 1e-3 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        residual = np.max(np.abs(law / law.sum() @ rho - law / law.sum()))
        assert 1e-4 <= residual <= 1e-2
        monkeypatch.setattr(longrun, "_state_reduction", lambda rho: law)
        damped, ergodic = stationary(rho)
        assert not ergodic
        # the fixed point of pi = 0.99 * pi @ rho + 0.01 * uniform
        assert np.max(np.abs(0.99 * damped @ rho + 0.01 / 6 - damped)) <= 1e-15
        handed, ergodic = stationary(rho, law)  # the same law, handed in by a block
        assert not ergodic and handed.tolist() == damped.tolist()

    def test_state_reduction_keeps_relative_accuracy(self):
        # two states that swap with chance 1e-14: pi = (1/3, 2/3) whatever eps is
        eps = 1e-14
        rho = np.array([[1 - 2 * eps, 2 * eps], [eps, 1 - eps]])
        pi = _state_reduction(rho)
        assert pi / pi.sum() == pytest.approx([1 / 3, 2 / 3], rel=1e-15)


class TestBatchedReduction:
    """One state reduction for a block of chains of mixed sizes, against the
    reduction one chain at a time."""

    def test_mixed_sizes_match_the_loop(self):
        rng = philox(21)
        for _ in range(50):
            block = [random_chain(rng, int(size)) for size in rng.integers(1, 48, 4)]
            for law, rho in zip(_state_reductions(block), block):
                reference = loop_state_reduction(rho)
                assert law.shape == reference.shape
                assert np.max(np.abs(law - reference) / reference) <= 1e-15

    def test_city_blocks_match_the_loop(self):
        daily = LazyDailyCost(synthetic_scenario(6).stations[2].profile)
        for first in range(0, 48, 4):
            block = list(daily.day_transitions(first).values())
            for law, rho in zip(_state_reductions(block), block):
                reference = loop_state_reduction(rho)
                assert np.max(np.abs(law - reference) / reference) <= 1e-15

    def test_degenerate_chains_leave_their_neighbours_alone(self, monkeypatch):
        rng = philox(22)
        healthy = [random_chain(rng, 9), random_chain(rng, 5)]
        block = [healthy[0], TRANSIENT, REDUCIBLE, healthy[1]]
        laws = _state_reductions(block)
        assert laws[1] is None and laws[2] is None
        svds = []
        original = np.linalg.svd

        def svd(a, **kwargs):
            svds.append(a.shape)
            return original(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        chains = [day_chain(rho, law) for rho, law in zip(block, laws)]
        assert svds == [(3, 3), (3, 3)]  # only the two chains that met a zero pivot
        assert chains[1].ergodic and np.allclose(chains[1].pi, [0.0, 2 / 7, 5 / 7], atol=1e-12)
        assert not chains[2].ergodic and chains[2].pi.tolist() == stationary(REDUCIBLE)[0].tolist()
        for chain, rho in zip((chains[0], chains[3]), healthy):
            assert chain.ergodic
            assert chain.pi.tolist() == stationary(rho)[0].tolist()
            reference = loop_state_reduction(rho)
            assert chain.pi == pytest.approx(reference / reference.sum(), rel=1e-15, abs=0)


class TestLongrunCost:
    def test_rentals_only_sticks_at_demand(self):
        p = FiniteProfile((((-1, -1, -1), 1.0),))
        source = LongrunCost(p)
        for cap in range(0, 11):
            assert source.cost(cap, 0) == pytest.approx(3.0, abs=1e-9)

    def test_rental_then_return_examples(self):
        p = FiniteProfile((((-1, 1), 1.0),))
        assert LongrunCost(p).cost(0, 0) == pytest.approx(2.0, abs=1e-12)
        assert LongrunCost(p).cost(1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_demand_costs_nothing(self):
        assert LongrunCost(FiniteProfile(())).cost(3, 2) == 0.0

    def test_depends_only_on_capacity(self):
        p = PoissonProfile("x", (0.1, 0.05), (0.07, 0.12))
        source = LongrunCost(p)
        for s in range(8):
            values = {source.cost(s - b, b) for b in range(s + 1)}
            assert len(values) == 1

    def test_longrun_table_is_multimodular(self):
        p = PoissonProfile("x", (0.15, 0.02, 0.2), (0.05, 0.18, 0.02))
        table = LongrunCost(p).materialize(10)
        assert check_multimodular(table) == []

    def test_finite_profile_longrun_table_multimodular(self):
        # single-rental / single-return atoms keep the day chain irreducible
        p = FiniteProfile((((-1,), 0.25), ((1,), 0.25), ((-1, 1, 1, -1), 0.25)))
        source = LongrunCost(p)
        table = source.materialize(8)
        assert all(source.chain(s).ergodic for s in range(9))
        assert check_multimodular(table) == []

    def test_degenerate_chain_is_flagged_not_hidden(self):
        # both atoms return interior states to where they started, so every
        # interior bike count is absorbing and no unique stationary law exists
        p = FiniteProfile((((-1, 1, 1, -1), 0.5), ((1, -1), 0.25)))
        chain = LongrunCost(p).chain(4)
        assert not chain.ergodic

    def test_poisson_cost_matches_matrix_chain(self):
        for station in synthetic_scenario(6).stations[:3]:
            source = LongrunCost(station.profile)
            for capacity in (0, 8, 21, 45):
                cost, rho = day_matrix_path(station.profile, capacity)
                expected = float(stationary(rho)[0] @ cost)
                assert abs(source.cost(capacity, 0) - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize("kind", ["flat", "random"])
    def test_sparse_profiles_match_matrix_chain(self, kind):
        # nearly decomposable day chains: the stationary law must not amplify
        # the last-bit differences between the kernel's and the matrix chain's rho
        if kind == "flat":
            p = PoissonProfile("flat", (1e-9,) * 48, (1e-9,) * 48)
        else:
            rng = philox(10, 3)
            p = PoissonProfile("random", tuple(rng.uniform(0, 3e-6, 48).tolist()), tuple(rng.uniform(0, 3e-6, 48).tolist()))
        source = LongrunCost(p)
        for capacity in range(1, 46):
            cost, rho = day_matrix_path(p, capacity)
            expected = float(stationary(rho)[0] @ cost)
            assert abs(source.cost(capacity, 0) - expected) <= 1e-12 * expected, capacity
            assert source.chain(capacity).ergodic

    def test_chain_independent_of_order(self):
        # a capacity's chain is a function of the profile and the capacity,
        # which fix its transition block
        p = synthetic_scenario(6).stations[1].profile

        def seen(source, capacity):
            chain = source.chain(capacity)
            return chain.rho.tobytes(), chain.pi.tobytes(), source.cost(capacity, 0)

        alone = {c: seen(LongrunCost(p), c) for c in range(48)}
        ascending, descending, materialized = LongrunCost(p), LongrunCost(p), LongrunCost(p)
        for c in range(48):
            ascending.cost(c, 0)
        for c in reversed(range(48)):
            descending.cost(c, 0)
        table = materialized.materialize(45)
        for c in range(48):
            for source in (ascending, descending, materialized):
                assert seen(source, c) == alone[c], c
            if c <= 45:
                assert table.values[c] == (alone[c][2],) * (c + 1)

    def test_chain_exposed_with_flags(self):
        chain = day_chain(day_transition(FiniteProfile(()), 3))
        assert not chain.ergodic  # identity day chain has no unique fixed point
        assert np.allclose(chain.pi, 0.25)


BOTH_KINDS = [PoissonProfile("x", (0.1, 0.05), (0.07, 0.12)), FiniteProfile((((-1, 1), 0.5), ((1,), 0.25)))]


class TestBuilds:
    """Which capacity builds each objective triggers."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = LazyDailyCost._build

        def spy(self, capacity, transition):
            calls.append((capacity, transition))
            return original(self, capacity, transition)

        monkeypatch.setattr(LazyDailyCost, "_build", spy)
        return calls

    @pytest.mark.parametrize("profile", BOTH_KINDS, ids=["poisson", "finite"])
    def test_daily_pricing_builds_no_transition(self, builds, price_blocks, profile):
        daily = LazyDailyCost(profile)
        for s in range(7):
            for b in range(s + 1):
                daily.cost(s - b, b)
        daily.materialize(6)
        if isinstance(profile, PoissonProfile):
            # one batched build prices the whole aligned block 0..7
            assert builds == [(0, False)]
            assert price_blocks == [(list(range(8)), False)]
        else:
            assert builds == [(s, False) for s in range(7)]
            assert price_blocks == []
        assert not daily._day_transition
        for s in (20, 9, 7, 15, 16, 3):
            daily.cost_vector(s)
        priced = [c for block, _ in price_blocks for c in block]
        assert len(priced) == len(set(priced))  # every capacity computed exactly once

    @pytest.mark.parametrize("profile", BOTH_KINDS, ids=["poisson", "finite"])
    def test_longrun_capacity_builds_once(self, builds, profile):
        source = LongrunCost(profile)
        for b in range(6):
            source.cost(5 - b, b)
        source.chain(5)
        assert builds == [(5, True)]


class TestVerifyKernelCheck:
    def test_least_squares_stationary_fails_on_the_sparse_profile(self, monkeypatch):
        from dockalloc import longrun, verify

        monkeypatch.setattr(longrun, "_state_reduction", lambda rho: None)
        report = verify._check_kernel_vs_matrix_path(0)
        assert report["name"] == "kernel_vs_matrix_path"
        assert not report["passed"]
        assert all(line.startswith("sparse ") for line in report["details"])
