"""Unit tests for repro.faults: config, GE model, schedules, port hooks.

The determinism tests pin the tentpole contract of DESIGN.md §10: a fault
schedule is a pure function of (seed, config, port names, horizon), so its
JSON trace is byte-identical across runs — and a faulted scenario result
is byte-identical across runs and across ``jobs`` settings.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultConfig,
    FaultEvent,
    FaultSchedule,
    GilbertElliottModel,
    install_faults,
)
from repro.sim.rng import RandomStreams

from tests.conftest import make_link, send_packets


# -- FaultConfig validation ---------------------------------------------------


class TestFaultConfig:
    def test_defaults_disable_everything(self):
        config = FaultConfig()
        assert not config.any_enabled

    @pytest.mark.parametrize("field, value", [
        ("flap_every", -1.0),
        ("degrade_every", -0.5),
        ("loss_every", -3.0),
        ("start", -1.0),
        ("flap_downtime", 0.0),
        ("degrade_duration", -2.0),
        ("loss_duration", 0.0),
        ("degrade_factor", 0.0),
        ("degrade_factor", 1.5),
        ("ge_loss_good", -0.1),
        ("ge_loss_bad", 1.1),
        ("ge_good_to_bad", 2.0),
        ("ge_bad_to_good", -0.01),
        ("target", "everywhere"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: value})

    def test_any_enabled_per_family(self):
        assert FaultConfig(flap_every=10.0).any_enabled
        assert FaultConfig(degrade_every=10.0).any_enabled
        assert FaultConfig(loss_every=10.0).any_enabled


# -- Gilbert–Elliott loss model ----------------------------------------------


class TestGilbertElliott:
    def _model(self, seed=7, **overrides):
        config = FaultConfig(loss_every=1.0, **overrides)
        return GilbertElliottModel(config, RandomStreams(seed).get("ge"))

    def test_inactive_model_never_draws(self):
        model = self._model()
        # Inactive: no drops, and crucially no RNG consumption.
        before = model.rng.bit_generator.state
        assert not any(model.should_drop() for _ in range(100))
        assert model.rng.bit_generator.state == before

    def test_certain_loss_in_bad_state(self):
        model = self._model(ge_loss_good=0.0, ge_loss_bad=1.0,
                            ge_good_to_bad=1.0, ge_bad_to_good=0.0)
        model.activate()
        # First packet transitions good -> bad, then every packet drops.
        model.should_drop()
        assert all(model.should_drop() for _ in range(50))

    def test_activation_resets_to_good_state(self):
        model = self._model(ge_loss_good=0.0, ge_loss_bad=1.0,
                            ge_good_to_bad=1.0, ge_bad_to_good=0.0)
        model.activate()
        for _ in range(10):
            model.should_drop()
        assert model.bad
        model.deactivate()
        model.activate()
        assert not model.bad

    def test_loss_rate_between_state_extremes(self):
        model = self._model(ge_loss_good=0.0, ge_loss_bad=0.5,
                            ge_good_to_bad=0.05, ge_bad_to_good=0.2)
        model.activate()
        drops = sum(model.should_drop() for _ in range(20000))
        # Stationary bad fraction = 0.05/(0.05+0.2) = 0.2; loss ~ 0.1.
        assert 0.05 < drops / 20000 < 0.15


# -- FaultSchedule trace generation ------------------------------------------


class TestFaultSchedule:
    CONFIG = FaultConfig(flap_every=60.0, flap_downtime=5.0,
                         loss_every=45.0, loss_duration=10.0, start=100.0)

    def _schedule(self, seed=1, config=None):
        return FaultSchedule(
            config or self.CONFIG, RandomStreams(seed), 500.0, ("bottleneck",)
        )

    def test_trace_is_time_ordered_and_paired(self):
        trace = self._schedule().events
        assert trace, "enabled families must generate episodes"
        assert list(trace) == sorted(trace, key=lambda e: e.time)
        opens = sum(1 for e in trace if e.action in ("down", "loss-on"))
        closes = sum(1 for e in trace if e.action in ("up", "loss-off"))
        assert opens == closes

    def test_no_episode_starts_past_horizon(self):
        for event in self._schedule().events:
            if event.action in ("down", "degrade", "loss-on"):
                assert event.time < 500.0
            assert event.time >= 100.0

    def test_trace_json_byte_identical_across_builds(self):
        assert self._schedule().trace_json() == self._schedule().trace_json()

    def test_different_seeds_differ(self):
        assert self._schedule(seed=1).trace_json() != self._schedule(seed=2).trace_json()

    def test_fault_stream_is_independent_of_existing_streams(self):
        """Adding the faults stream must not perturb e.g. "sources"."""
        plain = RandomStreams(1).get("sources").random(8).tolist()
        streams = RandomStreams(1)
        FaultSchedule(self.CONFIG, streams, 500.0, ("bottleneck",))
        assert streams.get("sources").random(8).tolist() == plain

    def test_trace_round_trips_as_json(self):
        trace = self._schedule().events
        parsed = json.loads(self._schedule().trace_json())
        assert parsed == [[e.time, e.port, e.action] for e in trace]

    def test_fault_event_is_frozen(self):
        event = FaultEvent(1.0, "p", "down")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 2.0


# -- OutputPort fault hooks ---------------------------------------------------


class TestPortFaultHooks:
    def test_disabled_port_blackholes_silently(self, sim):
        port, sink = make_link(sim, rate_bps=1e6)
        port.set_enabled(False)
        flow = send_packets(sim, port, sink, 5)
        sim.run()
        assert flow.delivered == 0
        assert flow.dropped == 0       # silent: no observable feedback
        assert flow.lost == 5
        assert port.fault_drops == 5

    def test_disable_flushes_queued_packets(self, sim):
        port, sink = make_link(sim, rate_bps=1e6, capacity=10)
        flow = send_packets(sim, port, sink, 5)   # 1 in service, 4 queued
        port.set_enabled(False)
        sim.run()
        # The in-flight packet is lost at tx-done; the queue was flushed.
        assert flow.delivered == 0
        assert flow.lost == 5

    def test_reenable_resumes_service(self, sim):
        port, sink = make_link(sim, rate_bps=1e6)
        port.set_enabled(False)
        send_packets(sim, port, sink, 3)
        sim.run()
        port.set_enabled(True)
        flow2 = send_packets(sim, port, sink, 3)
        sim.run()
        assert flow2.delivered == 3

    def test_degraded_capacity_slows_serialization(self, sim):
        port, sink = make_link(sim, rate_bps=1e6, prop_delay=0.0)
        port.set_capacity_factor(0.5)
        send_packets(sim, port, sink, 3)
        sim.run()
        # 125 B at 0.5 Mbps = 2 ms each; nominal would be 1 ms.
        assert sim.now == pytest.approx(0.006)
        port.set_capacity_factor(1.0)
        send_packets(sim, port, sink, 1)
        sim.run()
        assert sim.now == pytest.approx(0.007)

    def test_capacity_factor_validated(self, sim):
        port, _ = make_link(sim)
        with pytest.raises(ConfigurationError):
            port.set_capacity_factor(0.0)
        with pytest.raises(ConfigurationError):
            port.set_capacity_factor(1.5)

    def test_loss_model_drops_are_observed(self, sim):
        port, sink = make_link(sim, rate_bps=1e6)
        config = FaultConfig(loss_every=1.0, ge_loss_good=1.0, ge_loss_bad=1.0)
        model = GilbertElliottModel(config, RandomStreams(3).get("ge"))
        model.activate()
        port.loss_model = model
        flow = send_packets(sim, port, sink, 5)
        sim.run()
        assert flow.delivered == 0
        assert flow.dropped == 5       # observed, unlike blackhole loss
        assert flow.lost == 0
        assert port.fault_drops == 5


# -- install_faults targeting -------------------------------------------------


class TestInstallFaults:
    def test_bottleneck_targets_first_port_only(self, sim):
        p1, _ = make_link(sim)
        p2, _ = make_link(sim)
        p2.name = "second"
        config = FaultConfig(flap_every=50.0)
        schedule = install_faults(sim, RandomStreams(1), config, [p1, p2], 400.0)
        assert schedule.port_names == (p1.name,)

    def test_all_targets_every_port(self, sim):
        p1, _ = make_link(sim)
        p2, _ = make_link(sim)
        p2.name = "second"
        config = FaultConfig(flap_every=50.0, target="all")
        schedule = install_faults(sim, RandomStreams(1), config, [p1, p2], 400.0)
        assert schedule.port_names == (p1.name, "second")

    def test_installed_events_fire(self, sim):
        port, _ = make_link(sim)
        config = FaultConfig(flap_every=40.0, flap_downtime=2.0)
        schedule = install_faults(sim, RandomStreams(1), config, [port], 400.0)
        sim.run(until=400.0)
        fired = sum(1 for e in schedule.events if e.time <= 400.0)
        assert schedule.applied == fired
        assert schedule.applied > 0


# -- end-to-end scenario determinism ------------------------------------------


class TestScenarioDeterminism:
    """The ISSUE acceptance criterion: faulted runs are byte-identical
    across repeated runs and across ``jobs`` settings."""

    FAULTS = FaultConfig(flap_every=15.0, flap_downtime=2.0,
                         loss_every=12.0, loss_duration=4.0, start=20.0)

    def _config(self, seed=1):
        from repro.experiments.runner import ScenarioConfig
        from repro.units import mbps

        return ScenarioConfig(
            source="EXP1", interarrival=2.0, seed=seed, duration=60.0,
            warmup=20.0, lifetime_mean=20.0, link_rate_bps=mbps(2),
            faults=self.FAULTS,
        )

    def _design(self):
        from repro.core.design import (
            CongestionSignal,
            EndpointDesign,
            ProbeBand,
            ProbingScheme,
        )

        return EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                              ProbingScheme.SLOW_START)

    @staticmethod
    def _as_json(result):
        return json.dumps(dataclasses.asdict(result), sort_keys=True)

    def test_faulted_run_repeats_byte_identical(self):
        from repro.experiments.runner import run_scenario

        first = run_scenario(self._config(), self._design())
        second = run_scenario(self._config(), self._design())
        assert first.fault_events > 0
        assert self._as_json(first) == self._as_json(second)

    def test_faulted_sweep_identical_across_jobs(self):
        from repro.experiments import cache, parallel

        tasks = [(self._config(seed), self._design()) for seed in (1, 2, 3)]
        serial = [self._as_json(r) for r in parallel.run_many(tasks, jobs=1)]
        cache.clear_cache()          # force jobs=4 to recompute from scratch
        fanned = [self._as_json(r) for r in parallel.run_many(tasks, jobs=4)]
        assert serial == fanned

    def test_faults_change_results_but_not_the_baseline(self):
        from repro.experiments.runner import run_scenario

        faulted = run_scenario(self._config(), self._design())
        clean_config = dataclasses.replace(self._config(), faults=None)
        clean = run_scenario(clean_config, self._design())
        assert clean.fault_events == 0
        # Faults must actually perturb the run...
        assert self._as_json(faulted) != self._as_json(clean)
        # ...while the fault-free path stays self-consistent.
        assert self._as_json(clean) == self._as_json(
            run_scenario(clean_config, self._design())
        )
