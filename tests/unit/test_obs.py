"""Unit tests for the ``repro.obs`` building blocks.

Covers the observability config's validation, the trace recorder's
deterministic sampling/filtering/capping contract, the end-of-run metrics
snapshot, the injected-clock callback profile, and the engine's
trace/profile protocol hooks (including the profiled loop's exact
equivalence to the unprofiled fast path).
"""

import json
import math

import pytest

from repro import canonical
from repro.core.controller import NoAdmissionControl
from repro.core.endpoint import FlowOutcome
from repro.errors import ConfigurationError
from repro.net.queues import DropTailFifo
from repro.net.topology import Network
from repro.obs import (
    KNOWN_CATEGORIES,
    CallbackProfile,
    ObsConfig,
    TraceRecorder,
    parse_lines,
)
from repro.obs.collect import collect_run
from repro.obs.profile import format_rows, merge_rows
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class TestObsConfig:
    def test_defaults_enabled(self):
        config = ObsConfig()
        assert config.enabled
        assert config.metrics and config.trace
        assert config.sampling() == {}

    def test_disabled_when_both_off(self):
        assert not ObsConfig(metrics=False, trace=False).enabled

    def test_hashable_for_cache_keys(self):
        a = ObsConfig(sample_every=(("tx", 100),))
        b = ObsConfig(sample_every=(("tx", 100),))
        assert a == b and hash(a) == hash(b)
        assert a != ObsConfig(sample_every=(("tx", 50),))

    def test_known_categories_are_distinct(self):
        assert len(set(KNOWN_CATEGORIES)) == len(KNOWN_CATEGORIES)

    @pytest.mark.parametrize("kwargs", [
        dict(max_records=-1),
        dict(sample_every=(("tx",),)),
        dict(sample_every=(("", 2),)),
        dict(sample_every=((3, 2),)),
        dict(sample_every=(("tx", 0),)),
        dict(sample_every=(("tx", "2"),)),
        dict(sample_every=(("tx", 2), ("tx", 3))),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObsConfig(**kwargs)


class TestTraceRecorder:
    def test_keeps_everything_by_default(self):
        rec = TraceRecorder(ObsConfig())
        for i in range(5):
            rec.emit("tx", float(i), seq=i)
        assert len(rec) == 5
        assert rec.counts() == {"tx": (5, 5)}

    def test_keeps_reports_the_category_filter(self):
        assert TraceRecorder(ObsConfig()).keeps("tx")
        rec = TraceRecorder(ObsConfig(categories=("probe",)))
        assert rec.keeps("probe") and not rec.keeps("tx")

    def test_category_filter_does_not_advance_other_counters(self):
        rec = TraceRecorder(ObsConfig(categories=("probe",),
                                      sample_every=(("probe", 2),)))
        # Interleave filtered-out tx events; they must not perturb the
        # probe category's decimation phase.
        for i in range(6):
            rec.emit("tx", float(i), seq=i)
            rec.emit("probe", float(i), seq=i)
        assert rec.counts() == {"probe": (6, 3)}
        kept = [r["seq"] for r in parse_lines(rec.lines())]
        assert kept == [0, 2, 4]

    def test_sampling_is_deterministic_decimation(self):
        rec = TraceRecorder(ObsConfig(sample_every=(("tx", 3),)))
        for i in range(10):
            rec.emit("tx", float(i), seq=i)
        kept = [r["seq"] for r in parse_lines(rec.lines())]
        assert kept == [0, 3, 6, 9]
        assert rec.counts() == {"tx": (10, 4)}

    def test_max_records_cap_counts_drops(self):
        rec = TraceRecorder(ObsConfig(max_records=3))
        for i in range(10):
            rec.emit("tx", float(i), seq=i)
        assert len(rec) == 3
        assert rec.dropped == 7

    def test_reserved_keys_renamed_not_clobbered(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 1.5, t="shadow", cat="shadow", flow=7)
        record = next(parse_lines(rec.lines()))
        assert record["t"] == 1.5
        assert record["cat"] == "probe"
        assert record["x_t"] == "shadow"
        assert record["x_cat"] == "shadow"
        assert record["flow"] == 7

    def test_lines_are_canonical_json(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 2.0, zebra=1, alpha=2)
        (line,) = rec.lines()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        assert line.index('"alpha"') < line.index('"zebra"')

    def test_envelope_v2_carries_recorder_identity(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 1.0, flow=1)
        record = next(parse_lines(rec.lines()))
        assert record["v"] == 2
        assert record["recorder"] == "r0"

        named = TraceRecorder(ObsConfig(), recorder_id="drop-in-band/s7")
        named.emit("probe", 1.0, flow=1, recorder="shadow")
        record = next(parse_lines(named.lines()))
        assert record["recorder"] == "drop-in-band/s7"
        assert record["x_recorder"] == "shadow"


class TestCollectRun:
    @staticmethod
    def snapshot(fractions):
        """The metrics of a one-port run whose flows were all rejected
        after probing with the given loss fractions."""
        sim = Simulator()
        network = Network(sim)
        network.add_link("a", "b", 1e6, lambda: DropTailFifo(10))
        controller = NoAdmissionControl(sim, network, RandomStreams(1))
        for i, fraction in enumerate(fractions):
            controller._record_decision(FlowOutcome(
                i, "EXP1", 0.0, 0.05, probe_fraction=fraction))
        sim.run(until=1.0)
        return collect_run(sim, network.ports(), controller)

    def test_snapshot_is_deterministically_ordered(self):
        snap = self.snapshot([0.2])
        assert canonical.dumps(snap) == canonical.dumps(self.snapshot([0.2]))
        for kind in ("counters", "gauges"):
            keys = [(s["name"], sorted(s["labels"].items())) for s in snap[kind]]
            assert keys == sorted(keys)
        cls = {s["name"]: s["value"] for s in snap["counters"]
               if s["labels"] == {"cls": "EXP1"}}
        assert cls["flows_offered"] == cls["flows_blocked"] == 1
        # Zero-valued series are listed, and counters stay ints.
        assert cls["packets_sent"] == 0 and type(cls["packets_sent"]) is int

    def test_probe_fraction_buckets(self):
        snap = self.snapshot([0.001, 0.002, math.nan, 0.5, 2.0])
        (hist,) = snap["histograms"]
        # Bounds are inclusive upper edges, NaN (never probed) is skipped,
        # and the extra last bucket takes fractions above 1.0.
        assert hist["buckets"] == [1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1]
        assert hist["count"] == 4
        assert hist["sum"] == 0.001 + 0.002 + 0.5 + 2.0


class TestCallbackProfile:
    def test_accumulates_and_sorts(self):
        prof = CallbackProfile(lambda: 0.0)
        prof.record("slow", 2.0)
        prof.record("fast", 0.5)
        prof.record("slow", 1.0)
        assert prof.snapshot() == (("slow", 3.0, 2), ("fast", 0.5, 1))

    def test_merge_and_format(self):
        acc = {}
        merge_rows(acc, (("a", 1.0, 2),))
        merge_rows(acc, (("a", 0.5, 1), ("b", 3.0, 4)))
        assert acc == {"a": (1.5, 3), "b": (3.0, 4)}
        assert format_rows(acc) == "b 3.00s/4, a 1.50s/3"
        assert format_rows(acc, top=1) == "b 3.00s/4"


def _fake_clock():
    """A deterministic monotonic 'clock' for profiled-loop tests."""
    state = [0.0]

    def tick():
        state[0] += 1.0
        return state[0]

    return tick


def _run_cascade(sim):
    remaining = [200]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.call(0.001, tick)

    for _ in range(4):
        sim.call(0.0, tick)
    handle = sim.schedule(0.05, _run_cascade)  # cancelled mid-flight
    sim.call(0.01, handle.cancel)
    sim.run(until=1.0)


class TestEngineObsHooks:
    def test_scheduled_and_cancellation_counters(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.scheduled == 2
        assert sim.cancellations == 1
        sim.run()

    def test_profiled_run_matches_unprofiled_exactly(self):
        plain = Simulator()
        _run_cascade(plain)

        profiled = Simulator()
        profile = CallbackProfile(_fake_clock())
        profiled.enable_profiling(profile)
        assert profiled.profile is profile
        _run_cascade(profiled)

        assert profiled.now == plain.now
        assert profiled.events_processed == plain.events_processed
        assert profiled.scheduled == plain.scheduled
        assert profiled.cancellations == plain.cancellations
        total_calls = sum(calls for _, _, calls in profile.snapshot())
        assert total_calls == profiled.events_processed
        # Each fake-clock call pair charges exactly 1.0s per dispatch.
        total_seconds = sum(s for _, s, _ in profile.snapshot())
        assert total_seconds == pytest.approx(profiled.events_processed)

    def test_trace_sink_sees_compactions(self):
        class Sink:
            def __init__(self):
                self.records = []

            def emit(self, category, t, **fields):
                self.records.append((category, t, fields))

        sim = Simulator()
        sim.trace = Sink()
        # The live event fires *before* the parked garbage, so the
        # dispatch-time garbage-ratio check sees 2000 dead records.
        sim.schedule(0.5, lambda: None)
        handles = [sim.schedule(1.0 + i * 1e-6, lambda: None)
                   for i in range(2000)]
        for handle in handles:
            handle.cancel()
        sim.run()
        compacts = [r for r in sim.trace.records if r[0] == "sim"]
        assert compacts, "2000 dead records behind a live one must compact"
        category, _t, fields = compacts[0]
        assert fields["event"] == "compact"
        assert fields["freed"] > 0
