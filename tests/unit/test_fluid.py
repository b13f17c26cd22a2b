"""Unit tests for the fluid thrashing model and the CTMC solver."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fluid.markov import MarkovChain
from repro.fluid.model import FluidModelConfig, FluidThrashingModel, figure1_series


class TestMarkovChain:
    def test_two_state_chain(self):
        # 0 -> 1 at rate 2, 1 -> 0 at rate 1: pi = (1/3, 2/3).
        def transitions(state):
            if state == 0:
                yield 1, 2.0
            else:
                yield 0, 1.0

        chain = MarkovChain(0, transitions)
        pi = chain.stationary_distribution()
        dist = dict(zip(chain.states, pi))
        assert dist[0] == pytest.approx(1 / 3)
        assert dist[1] == pytest.approx(2 / 3)

    def test_mm1_queue_matches_theory(self):
        lam, mu, cap = 0.5, 1.0, 60

        def transitions(n):
            if n < cap:
                yield n + 1, lam
            if n > 0:
                yield n - 1, mu

        chain = MarkovChain(0, transitions)
        pi = chain.stationary_distribution()
        dist = dict(zip(chain.states, pi))
        rho = lam / mu
        for n in range(5):
            assert dist[n] == pytest.approx((1 - rho) * rho**n, rel=1e-6)

    def test_triplet_build_matches_dense_solve(self):
        """The sparse system assembled from edge triplets is the textbook
        one: Q^T with its last row replaced by ones, solved densely."""
        lam, mu, cap = 0.7, 1.0, 20

        def transitions(n):
            if n < cap:
                yield n + 1, lam
            if n > 0:
                yield n - 1, mu

        chain = MarkovChain(0, transitions)
        size = len(chain.states)
        q = np.zeros((size, size))
        for state in chain.states:
            for nxt, rate in transitions(state):
                q[chain.index[state], chain.index[nxt]] += rate
                q[chain.index[state], chain.index[state]] -= rate
        a = q.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(size)
        b[-1] = 1.0
        dense = np.linalg.solve(a, b)
        assert np.abs(chain.stationary_distribution() - dense).max() < 1e-12

    def test_expectation(self):
        def transitions(n):
            if n == 0:
                yield 1, 1.0
            else:
                yield 0, 1.0

        chain = MarkovChain(0, transitions)
        pi = chain.stationary_distribution()
        assert chain.expectation(pi, lambda s: float(s)) == pytest.approx(0.5)

    def test_distribution_sums_to_one(self):
        def transitions(n):
            if n < 10:
                yield n + 1, 1.0
            if n > 0:
                yield n - 1, 2.0

        chain = MarkovChain(0, transitions)
        pi = chain.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_negative_rate_rejected(self):
        def transitions(n):
            yield n + 1, -1.0

        with pytest.raises(ModelError):
            MarkovChain(0, transitions)

    def test_state_space_cap(self):
        def transitions(n):
            yield n + 1, 1.0
            if n > 0:
                yield n - 1, 1.0

        with pytest.raises(ModelError):
            MarkovChain(0, transitions, max_states=100)


class TestFluidModel:
    def test_admit_limit_at_epsilon_zero(self):
        cfg = FluidModelConfig(epsilon=0.0, capacity_flows=78)
        assert cfg.admit_limit == 78

    def test_admit_limit_grows_with_epsilon(self):
        base = FluidModelConfig(epsilon=0.0, capacity_flows=78).admit_limit
        relaxed = FluidModelConfig(epsilon=0.1, capacity_flows=78).admit_limit
        assert relaxed > base

    def test_short_probes_high_utilization(self):
        cfg = FluidModelConfig(probe_duration=1.0)
        point = FluidThrashingModel(cfg).solve()
        assert point.utilization > 0.75
        assert point.loss_probability_inband < 0.1

    def test_long_probes_collapse(self):
        cfg = FluidModelConfig(probe_duration=5.0)
        point = FluidThrashingModel(cfg).solve()
        assert point.utilization < 0.1
        assert point.mean_probing > 50

    def test_transition_is_monotone_decline(self):
        points = figure1_series(probe_durations=(1.8, 2.4, 3.0, 3.6))
        utils = [p.utilization for p in points]
        assert utils == sorted(utils, reverse=True)
        assert utils[0] > 0.8
        assert utils[-1] < 0.1

    def test_loss_rises_through_transition(self):
        points = figure1_series(probe_durations=(1.8, 3.6))
        assert points[-1].loss_probability_inband > points[0].loss_probability_inband

    def test_probing_population_explodes_past_transition(self):
        points = figure1_series(probe_durations=(1.8, 3.6))
        assert points[-1].mean_probing > 5 * points[0].mean_probing

    def test_light_load_never_collapses(self):
        # Offered load of ~10 flows against 78-flow capacity: long probes
        # are harmless because the admit condition is almost always met.
        cfg = FluidModelConfig(interarrival=30.0, probe_duration=5.0)
        point = FluidThrashingModel(cfg).solve()
        assert point.utilization == pytest.approx(10 / 78, rel=0.1)
        assert point.mean_probing < 2.0

    def test_validation(self):
        with pytest.raises(ModelError):
            FluidModelConfig(interarrival=0)
        with pytest.raises(ModelError):
            FluidModelConfig(capacity_flows=0)
        with pytest.raises(ModelError):
            FluidModelConfig(epsilon=1.0)
        with pytest.raises(ModelError):
            FluidModelConfig(give_up_probability=0.0)
        with pytest.raises(ModelError):
            FluidModelConfig(max_probing=0)
