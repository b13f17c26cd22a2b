"""Unit tests for the periodic time-series sampler."""

import pytest

from repro.errors import ConfigurationError
from repro.stats.series import PeriodicSampler


class TestPeriodicSampler:
    def test_samples_at_period(self, sim):
        values = iter(range(100))
        sampler = PeriodicSampler(sim, lambda: next(values), period=1.0)
        sim.run(until=5.5)
        assert sampler.times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert sampler.values == [0, 1, 2, 3, 4]

    def test_start_offset(self, sim):
        sampler = PeriodicSampler(sim, lambda: sim.now, period=2.0, start=10.0)
        sim.run(until=15.0)
        assert sampler.times == [12.0, 14.0]

    def test_deltas(self, sim):
        counter = [0]

        def grow():
            counter[0] += 10
            return counter[0]

        sampler = PeriodicSampler(sim, grow, period=1.0)
        sim.run(until=3.5)
        assert sampler.deltas() == [10.0, 10.0, 10.0]

    def test_invalid_period(self, sim):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(sim, lambda: 0.0, period=0.0)
