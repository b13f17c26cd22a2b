"""Discrete-event simulation substrate: engine and RNG streams."""

from repro.sim.engine import EventHandle, Lane, Simulator
from repro.sim.rng import RandomStreams

__all__ = ["EventHandle", "Lane", "RandomStreams", "Simulator"]
