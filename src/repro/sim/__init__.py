"""Discrete-event simulation substrate: engine, RNG streams, timers."""

from repro.sim.engine import EventHandle, Lane, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timers import Timer

__all__ = ["EventHandle", "Lane", "RandomStreams", "Simulator", "Timer"]
