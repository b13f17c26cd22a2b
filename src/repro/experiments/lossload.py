"""Loss-load curves (the paper's central performance presentation).

A loss-load curve plots the data-packet loss probability against the
utilization achieved, one point per acceptance threshold (epsilon for the
endpoint designs, target utilization for the MBAC benchmark).  Following
the paper's reference [4], the curve's *frontier* is the loss at a given
utilization, its *range* the span of utilizations the parameter sweep can
reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError


@dataclass
class LossLoadPoint:
    """One point on a loss-load curve."""

    parameter: float
    utilization: float
    loss_probability: float
    blocking_probability: float


@dataclass
class LossLoadCurve:
    """A labeled series of loss-load points."""

    label: str
    points: List[LossLoadPoint]

    @property
    def utilizations(self) -> List[float]:
        """The curve's y-axis: utilization per load point."""
        return [p.utilization for p in self.points]

    @property
    def losses(self) -> List[float]:
        """The curve's x-axis: post-warm-up loss per load point."""
        return [p.loss_probability for p in self.points]

    def loss_range(self) -> Tuple[float, float]:
        """(min, max) achievable loss across the sweep."""
        losses = self.losses
        return (min(losses), max(losses))

    def loss_at_utilization(self, utilization: float) -> float:
        """Loss at a target utilization via linear interpolation.

        Used to compare frontiers between curves whose sweeps land at
        different utilizations.  Outside the observed range the nearest
        endpoint's loss is returned.
        """
        pts = sorted(self.points, key=lambda p: p.utilization)
        if not pts:
            raise ConfigurationError("empty loss-load curve")
        if utilization <= pts[0].utilization:
            return pts[0].loss_probability
        if utilization >= pts[-1].utilization:
            return pts[-1].loss_probability
        for lo, hi in zip(pts, pts[1:]):
            if lo.utilization <= utilization <= hi.utilization:
                span = hi.utilization - lo.utilization
                if span == 0:
                    return lo.loss_probability
                t = (utilization - lo.utilization) / span
                return lo.loss_probability + t * (hi.loss_probability - lo.loss_probability)
        return pts[-1].loss_probability  # pragma: no cover - unreachable

