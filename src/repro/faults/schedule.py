"""Deterministic fault schedules: pre-generated episodes, timed injection.

A :class:`FaultSchedule` is built *before* the simulation runs: every
episode (flap, degradation, loss burst) is drawn up front from the
dedicated ``"faults"`` RNG stream, producing an explicit, serializable
trace of :class:`~repro.faults.model.FaultEvent` records.  Installation
then just schedules one engine event per trace entry.  Two consequences:

* the trace is a pure function of ``(seed, config, port names,
  horizon)`` — tests assert byte-identity of ``trace_json()`` across
  runs and across ``--jobs`` settings;
* the only randomness consumed during the run itself is the per-port
  Gilbert–Elliott chain (streams ``"faults/loss/<port>"``), whose draw
  sequence is fixed by the deterministic packet arrival order.

Scenarios opt in via ``ScenarioConfig(faults=FaultConfig(...))``; the
experiment runner calls :func:`install_faults`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import canonical
from repro.faults.model import FaultConfig, FaultEvent, GilbertElliottModel
from repro.net.link import OutputPort
from repro.sim.engine import Simulator, TraceSink
from repro.sim.rng import RandomStreams

#: (start-action, end-action) per fault family, in generation order.
_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("flap", "down", "up"),
    ("degrade", "degrade", "restore"),
    ("loss", "loss-on", "loss-off"),
)


class FaultSchedule:
    """Pre-generated fault episodes for a set of ports.

    Parameters
    ----------
    config:
        The fault plan.
    streams:
        The run's :class:`~repro.sim.rng.RandomStreams`; episode timing
        draws from ``streams.get("faults")``, per-port loss chains from
        ``streams.get("faults/loss/<port>")``.
    horizon:
        Simulation end time; no episode *starts* at or beyond it (a
        closing event may land past it, where it never fires).
    port_names:
        Names of the ports faults apply to, in a deterministic order.
    """

    def __init__(
        self,
        config: FaultConfig,
        streams: RandomStreams,
        horizon: float,
        port_names: Sequence[str],
    ) -> None:
        self.config = config
        self.horizon = horizon
        self.port_names = tuple(port_names)
        self.applied = 0
        #: Optional event-trace sink (repro.obs).
        self.trace: Optional[TraceSink] = None
        # Derive every stream this schedule will ever use up front and
        # drop the family reference: the object's RNG footprint is fixed
        # at construction, so no later call (install, re-install) can
        # derive a stream in a different scheduling domain.  Label-keyed
        # derivation is order-independent, so pre-deriving here draws the
        # same sequences the old install-time derivation did.
        rng = streams.get("faults")
        self._loss_rngs: Dict[str, np.random.Generator] = (
            {name: streams.get(f"faults/loss/{name}") for name in self.port_names}
            if config.loss_every > 0
            else {}
        )
        #: The full pre-generated event sequence, time-ordered.
        self.events = self._generate(rng)
        #: Live port and Gilbert–Elliott chain by port name, set by install.
        self._ports: Dict[str, OutputPort] = {}
        self._models: Dict[str, GilbertElliottModel] = {}

    # -- trace generation -------------------------------------------------

    def _generate(self, rng: np.random.Generator) -> Tuple[FaultEvent, ...]:
        config = self.config
        events: List[FaultEvent] = []
        for name in self.port_names:
            for family, on_action, off_action in _FAMILIES:
                every = getattr(config, f"{family}_every")
                if every <= 0:
                    continue
                duration_mean = (config.flap_downtime if family == "flap"
                                 else getattr(config, f"{family}_duration"))
                t = config.start + float(rng.exponential(every))
                while t < self.horizon:
                    length = float(rng.exponential(duration_mean))
                    events.append(FaultEvent(t, name, on_action))
                    events.append(FaultEvent(t + length, name, off_action))
                    t = t + length + float(rng.exponential(every))
        events.sort(key=lambda e: e.time)
        return tuple(events)

    # -- installation -----------------------------------------------------

    def install(self, sim: Simulator, ports: Sequence[OutputPort]) -> None:
        """Schedule every trace event against the matching live port.

        ``ports`` must cover every name in :attr:`port_names`; per-port
        Gilbert–Elliott chains are created here (and attached as the
        port's ``loss_model``) only when the loss family is enabled.  The
        port and chain of each name are kept here, once, so an event
        carries nothing but its :class:`FaultEvent`.
        """
        self._ports = {port.name: port for port in ports}
        if self.config.loss_every > 0:
            for name in self.port_names:
                model = GilbertElliottModel(self.config, self._loss_rngs[name])
                self._models[name] = model
                self._ports[name].loss_model = model
        for event in self.events:
            sim.schedule_at(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        port = self._ports[event.port]
        action = event.action
        if action == "down":
            port.set_enabled(False)
        elif action == "up":
            port.set_enabled(True)
        elif action == "degrade":
            port.set_capacity_factor(self.config.degrade_factor)
        elif action == "restore":
            port.set_capacity_factor(1.0)
        elif action == "loss-on":
            self._models[event.port].activate()
        else:  # "loss-off"
            self._models[event.port].deactivate()
        self.applied += 1
        tr = self.trace
        if tr is not None:
            tr.emit("fault", event.time, event="apply",
                    port=event.port, action=action)

    # -- trace access -----------------------------------------------------

    def trace_json(self) -> str:
        """Canonical JSON of the trace, for byte-identity assertions."""
        return canonical.dumps(
            [[event.time, event.port, event.action] for event in self.events]
        )


def install_faults(
    sim: Simulator,
    streams: RandomStreams,
    config: FaultConfig,
    ports: Sequence[OutputPort],
    horizon: float,
    trace: Optional[TraceSink] = None,
) -> FaultSchedule:
    """Build a schedule over ``ports`` (honoring ``config.target``) and install it.

    ``"bottleneck"`` targets only the first port — by convention the
    upstream-most congested link; ``"all"`` targets every port given.
    ``trace`` attaches an event-trace sink (repro.obs) that records every
    fault application as it fires.
    """
    selected = list(ports[:1]) if config.target == "bottleneck" else list(ports)
    schedule = FaultSchedule(
        config, streams, horizon, [port.name for port in selected]
    )
    schedule.trace = trace
    schedule.install(sim, selected)
    return schedule
