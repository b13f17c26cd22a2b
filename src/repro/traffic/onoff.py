"""On-off traffic sources (Table 1 of the paper).

During an ON period the source emits fixed-size packets back-to-back at the
*burst rate*; during OFF it is silent.  Holding times are exponential
(EXP1–EXP4) or Pareto (POO1; the aggregate of many such sources is
long-range dependent).

The source starts in a random state chosen with probability proportional to
the mean holding times, which removes the start-up transient that a
deterministic initial state would add to every flow.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, FlowAccounting, Receiver
from repro.sim.engine import Simulator
from repro.traffic.base import Source
from repro.units import BITS_PER_BYTE


class OnOffSource(Source):
    """Base on-off behavior; subclasses supply the holding-time draws.

    ``mean_off == 0`` is an always-on source: one ON period that never
    ends, packet for packet a :class:`~repro.traffic.cbr.ConstantRateSource`
    at the burst rate.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        burst_rate_bps: float,
        mean_on: float,
        mean_off: float,
        packet_bytes: int,
        rng: np.random.Generator,
        kind: int = DATA,
        prio: int = PRIO_DATA,
    ) -> None:
        super().__init__(sim, route, sink, flow, packet_bytes, kind, prio)
        if burst_rate_bps <= 0:
            raise ConfigurationError(
                f"burst rate must be positive, got {burst_rate_bps!r}"
            )
        if mean_on <= 0 or mean_off < 0:
            raise ConfigurationError(
                f"need mean_on > 0 and mean_off >= 0, got {mean_on!r}, {mean_off!r}"
            )
        self.burst_rate_bps = burst_rate_bps
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.rng = rng
        # A burst is a fixed-interval train: its ticks ride a constant-delay
        # lane (shared by every source with the same packet interval).
        self._tick_lane = sim.lane(packet_bytes * BITS_PER_BYTE / burst_rate_bps)

    @property
    def average_rate_bps(self) -> float:
        """Long-run average rate implied by the on/off duty cycle."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.burst_rate_bps * duty

    # -- holding times (subclass responsibility) ---------------------------

    def _draw_on(self) -> float:
        raise NotImplementedError

    def _draw_off(self) -> float:
        raise NotImplementedError

    # -- state machine -------------------------------------------------------
    #
    # Every state change bumps the epoch as well, so the ticks of an ON
    # period die with it.

    def _on_start(self, epoch: int) -> None:
        if self.mean_off == 0:
            # Always on: one ON period that never ends, with no draws.
            self._emit_tick(epoch)
            return
        duty = self.mean_on / (self.mean_on + self.mean_off)
        if self.rng.random() < duty:
            self._begin_on(epoch)
        else:
            self._begin_off(epoch)

    def _begin_on(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._epoch = epoch = epoch + 1
        self.sim.call(self._draw_on(), self._begin_off, epoch)
        self._emit_tick(epoch)

    def _begin_off(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._epoch = epoch = epoch + 1
        self.sim.call(self._draw_off(), self._begin_on, epoch)

    def _emit_tick(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._emit()
        self._tick_lane.call(self._emit_tick, epoch)


class ExponentialOnOffSource(OnOffSource):
    """On-off source with exponential holding times (EXP1–EXP4)."""

    def _draw_on(self) -> float:
        return float(self.rng.exponential(self.mean_on))

    def _draw_off(self) -> float:
        return float(self.rng.exponential(self.mean_off))


class ParetoOnOffSource(OnOffSource):
    """On-off source with Pareto holding times (POO1, shape alpha).

    With shape ``1 < alpha <= 2`` the holding times have finite mean but
    infinite variance; the superposition of many such sources produces
    long-range-dependent aggregate traffic (the paper uses alpha = 1.2).
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        burst_rate_bps: float,
        mean_on: float,
        mean_off: float,
        packet_bytes: int,
        rng: np.random.Generator,
        kind: int = DATA,
        prio: int = PRIO_DATA,
        shape: float = 1.2,
    ) -> None:
        super().__init__(
            sim, route, sink, flow, burst_rate_bps, mean_on, mean_off,
            packet_bytes, rng, kind, prio,
        )
        if shape <= 1.0:
            raise ConfigurationError(
                f"Pareto shape must exceed 1 for a finite mean, got {shape!r}"
            )
        self.shape = shape
        # Scale (minimum) chosen so the distribution's mean matches the
        # configured mean holding times: mean = shape * xm / (shape - 1).
        self._xm_on = self.mean_on * (shape - 1.0) / shape
        self._xm_off = self.mean_off * (shape - 1.0) / shape

    def _draw_pareto(self, xm: float) -> float:
        # Inverse-CDF sampling: X = xm * U^(-1/alpha).
        u = self.rng.random()
        while u == 0.0:  # pragma: no cover - measure-zero guard
            u = self.rng.random()
        return xm * u ** (-1.0 / self.shape)

    def _draw_on(self) -> float:
        return self._draw_pareto(self._xm_on)

    def _draw_off(self) -> float:
        return self._draw_pareto(self._xm_off)
