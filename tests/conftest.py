"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.net.link import OutputPort
from repro.net.packet import DATA, FlowAccounting, Packet, packet_path
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator, set_strict_default
from repro.sim.rng import RandomStreams


@pytest.fixture(autouse=True, scope="session")
def _strict_simulators_by_default():
    """Every ``Simulator()`` built under pytest gets strict mode.

    Tests are exactly where the dynamic validations (monotone clock,
    finite dispatch times) should be armed; production sweeps keep the
    unchecked hot path.  Heap compaction runs in every engine, strict or
    not.  Tests of the non-strict behavior itself must construct
    ``Simulator(strict=False)`` explicitly.
    """
    previous = set_strict_default(True)
    yield
    set_strict_default(previous)


@pytest.fixture(autouse=True)
def _isolate_sweep_state(tmp_path, monkeypatch):
    """Keep the sweep runner's process-global knobs hermetic per test.

    CLI entry points install a default cache directory, a jobs count, a
    progress hook and an ``--obs-dir``; any test that exercises them would
    otherwise leak that state (and disk-cache or artifact writes) into
    later tests.  The CLI default cache dir is redirected into the test's
    tmp_path, and the cache dir and all six of ``parallel``'s setters are
    reset afterwards.  The cache dir is also switched off *before* each
    test: ``cache`` reads ``REPRO_CACHE_DIR`` at import, so a developer
    with the variable exported would otherwise have the first sweeping
    test read and write their real cache.
    """
    from repro.experiments import cache, cli, parallel

    monkeypatch.setattr(cli, "DEFAULT_CACHE_DIR", str(tmp_path / "cache"))
    cache.set_cache_dir(None)
    yield
    cache.set_cache_dir(None)
    parallel.set_jobs(None)
    parallel.set_progress(None)
    parallel.set_task_timeout(None)
    parallel.set_task_hook(None)
    parallel.set_profile(False)
    parallel.set_obs_dir(None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=12345)


@pytest.fixture
def rng(streams):
    return streams.get("test")


def make_link(sim, rate_bps=1e6, capacity=10, prop_delay=0.0, qdisc=None):
    """A single output port with a drop-tail queue and a latency sink."""
    if qdisc is None:
        qdisc = DropTailFifo(capacity)
    port = OutputPort(sim, rate_bps, qdisc, prop_delay, name="test-port")
    sink = Sink(sim, record_latency=True)
    return port, sink


def make_packet(flow, route, sink, size=125, kind=DATA, prio=0, seq=0, created=0.0):
    return Packet(size, kind, flow, packet_path(route, sink), prio=prio, seq=seq,
                  created=created)


def send_packets(sim, port, sink, n, size=125, flow=None, kind=DATA, prio=0):
    """Inject n packets back-to-back at t=now; returns the accounting."""
    if flow is None:
        flow = FlowAccounting(1)
    for i in range(n):
        flow.sent += 1
        flow.bytes_sent += size
        port.send(make_packet(flow, [port], sink, size=size, kind=kind,
                              prio=prio, seq=i, created=sim.now))
    return flow
