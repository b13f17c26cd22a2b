"""Measurement helpers: periodic time-series sampling."""

from repro.stats.series import PeriodicSampler

__all__ = ["PeriodicSampler"]
