"""Synthetic VBR video source (Star Wars trace stand-in).

The paper drives one robustness scenario with the Garrett–Willinger Star
Wars MPEG trace, reshaped by dropping to an (800 kbps, 200 kbit) token
bucket and packetized at 200 bytes.  The original trace is not
redistributable, so this module synthesizes a trace with the properties the
experiment actually exercises:

* frame-based emission at 24 fps with an MPEG GOP structure (I frames much
  larger than P, P larger than B), giving short-timescale burstiness;
* heavy-tailed (Pareto) scene durations modulating a per-scene activity
  level, giving the slowly decaying autocorrelation (long-range dependence
  in aggregate) that made the Star Wars trace famous;
* a mean rate of ~360 kbps against an 800 kbps token rate, so the token
  bucket genuinely clips the biggest bursts, exactly as the paper's
  reshaping does.

One frame process (:meth:`VideoTraceModel.frames`) serves both the
standalone trace generator (for tests and statistics) and the
simulator-driven source.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, FlowAccounting, Receiver
from repro.sim.engine import Simulator
from repro.traffic.base import Source
from repro.traffic.token_bucket import TokenBucket

#: Frames per second of the synthetic movie.
FRAME_RATE = 24.0

#: A 12-frame MPEG GOP: relative sizes of I, P and B frames.
GOP_PATTERN = ("I", "B", "B", "P", "B", "B", "P", "B", "B", "P", "B", "B")
FRAME_MULTIPLIER = {"I": 5.0, "P": 2.0, "B": 1.0}

# With the GOP above, the mean multiplier is (5 + 3*2 + 8*1)/12 = 19/12.
_MEAN_MULTIPLIER = sum(FRAME_MULTIPLIER[t] for t in GOP_PATTERN) / len(GOP_PATTERN)


class VideoTraceModel:
    """Parameters of the synthetic movie.

    ``mean_rate_bps`` is the long-run average of the *unshaped* trace; the
    token bucket then clips the peaks.
    """

    def __init__(
        self,
        mean_rate_bps: float = 360e3,
        scene_mean_s: float = 10.0,
        scene_shape: float = 1.5,
        activity_sigma: float = 0.45,
        frame_noise_shape: float = 12.0,
    ) -> None:
        if mean_rate_bps <= 0:
            raise ConfigurationError(
                f"mean rate must be positive, got {mean_rate_bps!r}"
            )
        if scene_shape <= 1.0:
            raise ConfigurationError(
                f"scene shape must exceed 1 for a finite mean, got {scene_shape!r}"
            )
        self.mean_rate_bps = mean_rate_bps
        self.scene_mean_s = scene_mean_s
        self.scene_shape = scene_shape
        self.activity_sigma = activity_sigma
        self.frame_noise_shape = frame_noise_shape
        # Base size of a B frame such that the long-run mean matches:
        # mean_frame_bytes = base * mean_multiplier * E[activity] * E[noise].
        mean_frame_bytes = mean_rate_bps / 8.0 / FRAME_RATE
        # activity is lognormal with mean 1 (mu = -sigma^2/2); noise is
        # gamma with mean 1.  So base absorbs only the GOP multiplier.
        self.base_frame_bytes = mean_frame_bytes / _MEAN_MULTIPLIER

    def frames(self, rng: np.random.Generator) -> Iterator[float]:
        """The endless frame-size process (bytes, unshaped), drawn lazily.

        Each scene draws its length and activity level when its first
        frame is taken, then one noise factor per frame, so the draws
        interleave with whatever else shares ``rng`` exactly as frames
        are consumed.
        """
        mu = -0.5 * self.activity_sigma**2
        xm = self.scene_mean_s * (self.scene_shape - 1.0) / self.scene_shape
        index = 0
        while True:
            # Scene duration (frames) from a Pareto law — the heavy tail is
            # what produces long-range dependence in the aggregate.
            u = max(rng.random(), 1e-12)
            scene_s = xm * u ** (-1.0 / self.scene_shape)
            activity = float(rng.lognormal(mu, self.activity_sigma))
            for __ in range(max(1, int(round(scene_s * FRAME_RATE)))):
                noise = float(
                    rng.gamma(self.frame_noise_shape, 1.0 / self.frame_noise_shape)
                )
                multiplier = FRAME_MULTIPLIER[GOP_PATTERN[index % len(GOP_PATTERN)]]
                index += 1
                yield max(self.base_frame_bytes * activity * multiplier * noise, 1.0)

    def generate_frames(
        self, rng: np.random.Generator, n_frames: int
    ) -> npt.NDArray[np.float64]:
        """Return the first ``n_frames`` frame sizes of :meth:`frames`."""
        if n_frames <= 0:
            raise ConfigurationError(f"need n_frames > 0, got {n_frames!r}")
        return np.fromiter(islice(self.frames(rng), n_frames), np.float64, n_frames)


class SyntheticVideoSource(Source):
    """Frame-driven VBR source reshaped by a token bucket.

    Every frame interval (1/24 s) a frame size is drawn from the scene
    model, split into ``packet_bytes`` packets, and the packets are spread
    evenly across the frame interval.  Each packet is policed by the token
    bucket; nonconforming packets are discarded at the source ("we reshape
    (by dropping)"), so they never count as sent.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        rng: np.random.Generator,
        token_rate_bps: float = 800e3,
        token_bucket_bytes: int = 25000,
        packet_bytes: int = 200,
        model: VideoTraceModel | None = None,
        kind: int = DATA,
        prio: int = PRIO_DATA,
    ) -> None:
        super().__init__(sim, route, sink, flow, packet_bytes, kind, prio)
        self.model = model if model is not None else VideoTraceModel()
        self.bucket = TokenBucket(token_rate_bps, token_bucket_bytes)
        self._frames = self.model.frames(rng)
        self._frame_interval = 1.0 / FRAME_RATE
        self.frames_emitted = 0
        self.shaped_packets = 0

    def _frame_tick(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        frame_bytes = next(self._frames)
        self.frames_emitted += 1
        n_packets = max(1, int(np.ceil(frame_bytes / self.packet_bytes)))
        spacing = self._frame_interval / n_packets
        for k in range(n_packets):
            self.sim.call(k * spacing, self._emit_policed, epoch)
        self.sim.call(self._frame_interval, self._frame_tick, epoch)

    def _emit_policed(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        if self.bucket.conforms(self.packet_bytes, self.sim.now):
            self._emit()
        else:
            self.shaped_packets += 1

    _on_start = _frame_tick
