"""Loss-load curves (the paper's central performance presentation).

A loss-load curve plots the data-packet loss probability against the
utilization achieved, one point per acceptance threshold (epsilon for the
endpoint designs, target utilization for the MBAC benchmark).  Following
the paper's reference [4], the curve's *frontier* is the loss at a given
utilization, its *range* the span of utilizations the parameter sweep can
reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.design import EndpointDesign
from repro.errors import ConfigurationError
from repro.experiments.parallel import replicate_many
from repro.experiments.runner import (
    ControllerSpec,
    MbacConfig,
    ReplicatedResult,
    ScenarioConfig,
)

#: Default MBAC target-utilization sweep, playing the role of the epsilon
#: sweep for the benchmark.  Values above 1.0 deliberately over-admit to
#: reach the high-utilization/high-loss end of the curve.
MBAC_TARGETS = (0.85, 0.90, 0.95, 1.00, 1.10)


@dataclass
class LossLoadPoint:
    """One point on a loss-load curve."""

    parameter: float
    utilization: float
    loss_probability: float
    blocking_probability: float
    result: ReplicatedResult = field(repr=False, default=None)


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


@dataclass(frozen=True)
class CurveSpec:
    """One curve of a sweep before it is run: a label plus its points.

    ``points`` pairs each sweep-parameter value with the controller spec
    that realizes it (an :class:`EndpointDesign` at that epsilon, or an
    :class:`MbacConfig` at that target utilization).
    """

    label: str
    points: Tuple[Tuple[float, ControllerSpec], ...]

    @staticmethod
    def for_design(
        design: EndpointDesign,
        epsilons: Sequence[float],
        label: Optional[str] = None,
    ) -> "CurveSpec":
        """An epsilon sweep of one endpoint design."""
        return CurveSpec(
            label=label or design.name,
            points=tuple((eps, design.with_epsilon(eps)) for eps in epsilons),
        )

    @staticmethod
    def for_mbac(
        targets: Sequence[float] = MBAC_TARGETS,
        label: str = "MBAC",
    ) -> "CurveSpec":
        """A target-utilization sweep of the Measured Sum benchmark."""
        return CurveSpec(
            label=label,
            points=tuple(
                (target, MbacConfig(target_utilization=target)) for target in targets
            ),
        )


def sweep_loss_load_curves(
    config: ScenarioConfig,
    sweeps: Sequence[CurveSpec],
    seeds: Sequence[int] = (1,),
    jobs: Optional[int] = None,
) -> List[LossLoadCurve]:
    """Run several curves' sweeps on one scenario as a single flat fan-out.

    Every (point, seed) run across *all* the curves goes through one
    :func:`repro.experiments.parallel.replicate_many` call, so a figure
    with five curves of three points each parallelizes over 15 × seeds
    independent simulations rather than point by point.  Results come
    back in sweep order, so the curves are identical to running each
    point serially.
    """
    pairs = [
        (config, spec)
        for sweep in sweeps
        for _, spec in sweep.points
    ]
    replicated = replicate_many(pairs, seeds, jobs=jobs)
    curves: List[LossLoadCurve] = []
    cursor = 0
    for sweep in sweeps:
        points = []
        for parameter, _ in sweep.points:
            result = replicated[cursor]
            cursor += 1
            points.append(
                LossLoadPoint(
                    parameter=parameter,
                    utilization=result.utilization,
                    loss_probability=result.loss_probability,
                    blocking_probability=result.blocking_probability,
                    result=result,
                )
            )
        curves.append(LossLoadCurve(label=sweep.label, points=points))
    return curves
