"""Reproduction functions, one per table/figure of the paper.

Every public function regenerates one artifact of the paper's evaluation
section and returns a :class:`FigureResult` whose ``data`` holds the raw
series and whose ``text`` holds the same rows/series rendered for a
terminal.  All scenario runs go through the sweep runner, so with a cache
directory configured (the CLI's default ``results/cache``) figures that
share points (e.g. Figure 9 re-reporting Figure 8's fixed-epsilon points)
read them from disk instead of re-simulating them.

Scale: at ``scale=1.0`` every run matches the paper's setup (14,000 s,
2,000 s warm-up, 7 seeds, full epsilon sweeps).  Smaller scales shrink the
measurement window, the seed count, and the sweep density so the whole
suite fits in minutes; EXPERIMENTS.md records the scale each reported
number was produced at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
    all_designs,
)
from repro.experiments.lossload import LossLoadCurve, LossLoadPoint
from repro.experiments.parallel import replicate_many
from repro.experiments.runner import ControllerSpec, MbacConfig, ScenarioConfig
from repro.experiments.scenarios import (
    default_scale,
    get_scenario,
    scaled_seeds,
    scaled_times,
)
from repro.experiments.report import format_curves, format_series, format_table
from repro.fluid.model import FluidModelConfig, figure1_series
from repro.net.queues import DropTailFifo
from repro.net.topology import single_link
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.core.controller import EndpointAdmissionControl
from repro.tcp.app import TcpConnection
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowGenerator
from repro.units import BITS_PER_BYTE, mbps

#: MBAC target-utilization sweep at full scale, playing the role of the
#: epsilon sweep for the benchmark.  Values above 1.0 deliberately
#: over-admit to reach the high-utilization/high-loss end of the curve.
MBAC_TARGETS = (0.85, 0.90, 0.95, 1.00, 1.10)

#: Fixed thresholds of Figure 9 / Table 4 (paper Section 4.3-4.5).
FIXED_EPS_IN_BAND = 0.01
FIXED_EPS_OUT_OF_BAND = 0.05


class _BandEpsilons(NamedTuple):
    fixed: float  # Figure 9 / Table 4
    high: float  # Table 3's high-threshold class; tops the reduced sweep


#: The per-band thresholds every sweep below reads.
_BAND_EPSILONS = {
    ProbeBand.IN_BAND: _BandEpsilons(FIXED_EPS_IN_BAND, high=0.05),
    ProbeBand.OUT_OF_BAND: _BandEpsilons(FIXED_EPS_OUT_OF_BAND, high=0.20),
}

#: Tables 3-6 report *blocking probabilities*, which need enough admission
#: decisions to be meaningful; their runs never shrink below this scale
#: (a 600-second measurement window).
TABLE_MIN_SCALE = 0.04


def _full_scale(scale: Optional[float]) -> bool:
    """Whether ``scale`` runs the paper's full sweeps."""
    return (default_scale() if scale is None else scale) >= 0.5


def _table_scale(scale: Optional[float]) -> float:
    return max(default_scale() if scale is None else scale, TABLE_MIN_SCALE)


@dataclass
class FigureResult:
    """One regenerated table or figure."""

    name: str
    data: object
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# the sweep plan
# ---------------------------------------------------------------------------

def bench_epsilons(design: EndpointDesign, scale: Optional[float] = None) -> Tuple[float, ...]:
    """Epsilon sweep for one design at a given scale.

    Full paper sweeps at scale >= 0.5; at smaller scales a 3-point subset
    that still spans the range and includes the Figure-9 fixed epsilon.
    """
    if _full_scale(scale):
        return design.default_epsilons
    band = _BAND_EPSILONS[design.band]
    return (0.0, band.fixed, band.high)


def bench_mbac_targets(scale: Optional[float] = None) -> Tuple[float, ...]:
    """MBAC target sweep for a given scale."""
    return MBAC_TARGETS if _full_scale(scale) else (0.90, 1.00, 1.10)


def fixed_epsilon(design: EndpointDesign) -> float:
    """The Figure-9 fixed threshold for a design's band."""
    return _BAND_EPSILONS[design.band].fixed


def loss_load_curves(
    config: ScenarioConfig,
    scale: Optional[float],
    designs: Sequence[EndpointDesign],
    labels: Optional[Sequence[str]] = None,
    narrow: bool = False,
) -> List[LossLoadCurve]:
    """MBAC plus one epsilon sweep per design on one scenario.

    ``narrow=True`` (the six-panel Figure 8 and the high-load Figures 4-7)
    keeps two points per curve at reduced scale: eps = 0 and the design's
    Figure-9 fixed value, MBAC targets 0.9 and 1.1.  Curves are labelled
    by ``labels`` or else by design name.

    Every (curve, point, seed) run of the figure goes through one
    :func:`replicate_many` call, so the parallel runner fans out across
    all of them; results come back in sweep order.
    """
    narrow = narrow and not _full_scale(scale)
    targets = (0.90, 1.10) if narrow else bench_mbac_targets(scale)
    sweeps: List[Tuple[str, List[Tuple[float, ControllerSpec]]]] = [
        ("MBAC", [(target, MbacConfig(target_utilization=target)) for target in targets])
    ]
    for design, label in zip(designs, labels or [None] * len(designs)):
        epsilons = (0.0, fixed_epsilon(design)) if narrow else bench_epsilons(design, scale)
        sweeps.append(
            (label or design.name, [(eps, design.with_epsilon(eps)) for eps in epsilons])
        )
    results = iter(replicate_many(
        [(config, spec) for _, points in sweeps for _, spec in points],
        scaled_seeds(scale),
    ))
    return [
        LossLoadCurve(label, [
            LossLoadPoint(parameter, result.utilization, result.loss_probability,
                          result.blocking_probability)
            for (parameter, _), result in zip(points, results)
        ])
        for label, points in sweeps
    ]


def _controllers(
    epsilon_of: Callable[[EndpointDesign], float],
) -> Dict[str, ControllerSpec]:
    """Tables 4-6's five controllers by row label: the four designs at
    ``epsilon_of(design)``, then MBAC at target 0.9."""
    specs: Dict[str, ControllerSpec] = {
        design.name: design.with_epsilon(epsilon_of(design)) for design in all_designs()
    }
    specs["MBAC"] = MbacConfig(0.9)
    return specs


# ---------------------------------------------------------------------------
# Figure 1 — fluid thrashing model
# ---------------------------------------------------------------------------

def figure1(config: FluidModelConfig = FluidModelConfig()) -> FigureResult:
    """Figure 1: utilization and in-band loss vs mean probe duration."""
    points = figure1_series(config=config)
    durations = [p.probe_duration for p in points]
    series = {
        "utilization": [p.utilization for p in points],
        "loss_inband": [p.loss_probability_inband for p in points],
        "mean_accepted": [p.mean_accepted for p in points],
        "mean_probing": [p.mean_probing for p in points],
    }
    text = format_series(
        "probe_s", durations, series,
        title="Figure 1: thrashing in the fluid model (out-of-band loss is 0)",
    )
    return FigureResult("figure1", points, text)


# ---------------------------------------------------------------------------
# Figure 2 — basic scenario loss-load curves
# ---------------------------------------------------------------------------

def figure2(scale: Optional[float] = None) -> FigureResult:
    """Figure 2: the four designs + MBAC on the basic scenario."""
    config = get_scenario("basic").config(scale)
    curves = loss_load_curves(config, scale, all_designs())
    text = format_curves(curves, title="Figure 2: basic scenario (EXP1, tau=3.5s)")
    return FigureResult("figure2", curves, text)


# ---------------------------------------------------------------------------
# Figure 3 — longer probing
# ---------------------------------------------------------------------------

def figure3(scale: Optional[float] = None) -> FigureResult:
    """Figure 3: 5 s vs 25 s slow-start probing, in-band dropping."""
    base = EndpointDesign(
        CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
    )
    curves = loss_load_curves(
        get_scenario("basic").config(scale), scale,
        [base, replace(base, probe_duration=25.0)],
        labels=["5-second probes", "25-second probes"],
    )
    text = format_curves(curves, title="Figure 3: longer probing (in-band dropping)")
    return FigureResult("figure3", curves, text)


# ---------------------------------------------------------------------------
# Figures 4-7 — high load, three probing algorithms per design
# ---------------------------------------------------------------------------

_HIGH_LOAD_DESIGNS = {
    "figure4": EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND),
    "figure5": EndpointDesign(CongestionSignal.DROP, ProbeBand.OUT_OF_BAND),
    "figure6": EndpointDesign(CongestionSignal.MARK, ProbeBand.IN_BAND),
    "figure7": EndpointDesign(CongestionSignal.MARK, ProbeBand.OUT_OF_BAND),
}


def _high_load_figure(name: str, scale: Optional[float]) -> FigureResult:
    base = _HIGH_LOAD_DESIGNS[name]
    schemes = (ProbingScheme.SIMPLE, ProbingScheme.SLOW_START,
               ProbingScheme.EARLY_REJECT)
    curves = loss_load_curves(
        get_scenario("high-load").config(scale), scale,
        [base.with_probing(scheme) for scheme in schemes],
        labels=[scheme.value for scheme in schemes], narrow=True,
    )
    title = (
        f"{name.capitalize()}: high load (tau=1.0s), "
        f"{base.signal.value}/{base.band.value}"
    )
    return FigureResult(name, curves, format_curves(curves, title=title))


def figure4(scale: Optional[float] = None) -> FigureResult:
    """Figure 4: high load, in-band dropping, three probing schemes."""
    return _high_load_figure("figure4", scale)


def figure5(scale: Optional[float] = None) -> FigureResult:
    """Figure 5: high load, out-of-band dropping."""
    return _high_load_figure("figure5", scale)


def figure6(scale: Optional[float] = None) -> FigureResult:
    """Figure 6: high load, in-band marking."""
    return _high_load_figure("figure6", scale)


def figure7(scale: Optional[float] = None) -> FigureResult:
    """Figure 7: high load, out-of-band marking."""
    return _high_load_figure("figure7", scale)


# ---------------------------------------------------------------------------
# Figure 8 — robustness panels
# ---------------------------------------------------------------------------

#: Panel order of Figure 8 in the paper.
FIGURE8_PANELS = ("burstier", "bigger", "lrd", "video", "heterogeneous", "low-mux")


def figure8(
    scale: Optional[float] = None,
    panels: Sequence[str] = FIGURE8_PANELS,
) -> FigureResult:
    """Figure 8(a-f): loss-load curves across the robustness scenarios."""
    data: Dict[str, List[LossLoadCurve]] = {}
    blocks = []
    for panel in panels:
        scenario = get_scenario(panel)
        curves = loss_load_curves(scenario.config(scale), scale, all_designs(), narrow=True)
        data[panel] = curves
        blocks.append(
            format_curves(
                curves,
                title=f"Figure 8 [{panel}]: {scenario.description} ({scenario.figure})",
            )
        )
    return FigureResult("figure8", data, "\n\n".join(blocks))


# ---------------------------------------------------------------------------
# Figure 9 — loss at a fixed threshold across scenarios
# ---------------------------------------------------------------------------

#: Scenario set of Figure 9 (paper: the robustness set plus heavy load).
FIGURE9_SCENARIOS = (
    "basic", "burstier", "bigger", "lrd", "heterogeneous",
    "low-mux", "video", "high-load",
)


def figure9(
    scale: Optional[float] = None,
    scenarios: Sequence[str] = FIGURE9_SCENARIOS,
) -> FigureResult:
    """Figure 9: loss variation across scenarios at a fixed epsilon.

    eps = 0.01 for in-band designs, 0.05 for out-of-band designs.
    """
    seeds = scaled_seeds(scale)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    designs = list(all_designs())
    # One flat (design x scenario) grid through the parallel runner.
    pairs = [
        (get_scenario(name).config(scale), design.with_epsilon(fixed_epsilon(design)))
        for design in designs
        for name in scenarios
    ]
    results = iter(replicate_many(pairs, seeds))
    for design in designs:
        eps = fixed_epsilon(design)
        losses: Dict[str, float] = {
            name: next(results).loss_probability for name in scenarios
        }
        data[design.name] = losses
        spread = max(losses.values()) / max(min(losses.values()), 1e-9)
        rows.append([design.name, eps] + [losses[n] for n in scenarios] + [spread])
    text = format_table(
        ["design", "eps"] + list(scenarios) + ["max/min"],
        rows,
        title="Figure 9: loss probability across scenarios at fixed eps",
    )
    return FigureResult("figure9", data, text)


# ---------------------------------------------------------------------------
# Table 3 — heterogeneous thresholds
# ---------------------------------------------------------------------------

def table3(scale: Optional[float] = None) -> FigureResult:
    """Table 3: blocking probability for low-eps vs high-eps flow classes."""
    scale = _table_scale(scale)
    warmup, duration = scaled_times(scale)
    seeds = scaled_seeds(scale)
    spec = get_source_spec("EXP1")
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    designs = all_designs()
    pairs = []
    for design in designs:
        classes = (
            FlowClass(label="low-eps", spec=spec, epsilon=0.0),
            FlowClass(label="high-eps", spec=spec,
                      epsilon=_BAND_EPSILONS[design.band].high),
        )
        config = ScenarioConfig(
            classes=classes, interarrival=3.5, duration=duration, warmup=warmup,
        )
        pairs.append((config, design))
    for design, result in zip(designs, replicate_many(pairs, seeds)):
        blocking = {
            label: result.class_mean(label, "blocking_probability")
            for label in ("low-eps", "high-eps")
        }
        data[design.name] = blocking
        rows.append(
            [design.name, blocking["low-eps"], blocking["high-eps"],
             result.loss_probability]
        )
    text = format_table(
        ("design", "blocking(eps=0)", "blocking(high eps)", "shared loss"),
        rows,
        title="Table 3: heterogeneous acceptance thresholds",
    )
    return FigureResult("table3", data, text)


# ---------------------------------------------------------------------------
# Table 4 — heterogeneous traffic (large vs small flows)
# ---------------------------------------------------------------------------

def table4(scale: Optional[float] = None) -> FigureResult:
    """Table 4: blocking for large (EXP2) vs small flows, EAC vs MBAC."""
    scale = _table_scale(scale)
    config = get_scenario("heterogeneous").config(scale)
    seeds = scaled_seeds(scale)
    small_labels = ("EXP1", "EXP4", "POO1")
    rows = []
    data: Dict[str, Tuple[float, float]] = {}
    controllers = _controllers(fixed_epsilon)
    results = replicate_many([(config, spec) for spec in controllers.values()], seeds)
    for label, result in zip(controllers, results):
        small = sum(result.class_mean(s, "blocking_probability") for s in small_labels)
        small /= len(small_labels)
        large = result.class_mean("EXP2", "blocking_probability")
        data[label] = (small, large)
        rows.append([label, small, large, large / max(small, 1e-9)])
    text = format_table(
        ("design", "small flows", "large flows", "large/small"),
        rows,
        title="Table 4: blocking for large vs small flows (heterogeneous traffic)",
    )
    return FigureResult("table4", data, text)


# ---------------------------------------------------------------------------
# Tables 5-6 — multi-hop topology
# ---------------------------------------------------------------------------

def multihop_classes() -> Tuple[FlowClass, ...]:
    """Flow classes of the Figure-10 topology: one three-hop class and
    one single-hop cross class per backbone link."""
    spec = get_source_spec("EXP1")
    classes = [FlowClass(label="long", spec=spec, src="b0", dst="b3")]
    for i in range(3):
        classes.append(
            FlowClass(label=f"short{i}", spec=spec, src=f"in{i}", dst=f"out{i}")
        )
    return tuple(classes)


def multihop_config(scale: Optional[float] = None) -> ScenarioConfig:
    """The Tables 5-6 scenario: 3 congested backbone links, 4 flow classes.

    The paper does not state the multi-hop arrival rate; tau=1.8 s across
    the four classes loads each backbone link (one cross class plus the
    long class) at roughly the basic scenario's 110%.
    """
    warmup, duration = scaled_times(scale)
    return ScenarioConfig(
        classes=multihop_classes(), interarrival=1.8,
        duration=duration, warmup=warmup, topology="parking-lot",
    )


def table5(scale: Optional[float] = None) -> FigureResult:
    """Table 5: data loss probability, short vs long flows at eps=0."""
    scale = _table_scale(scale)
    config = multihop_config(scale)
    seeds = scaled_seeds(scale)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    controllers = _controllers(lambda design: 0.0)
    results = replicate_many([(config, spec) for spec in controllers.values()], seeds)
    for label, result in zip(controllers, results):
        short = [result.class_mean(f"short{i}", "loss_probability") for i in range(3)]
        long_loss = result.class_mean("long", "loss_probability")
        mean_short = sum(short) / len(short)
        data[label] = {"short": mean_short, "long": long_loss}
        rows.append([label, mean_short, long_loss,
                     long_loss / max(mean_short, 1e-9)])
    text = format_table(
        ("design", "short flows", "long flows", "long/short"),
        rows,
        title="Table 5: multi-hop loss probability (eps=0)",
    )
    return FigureResult("table5", data, text)


def table6(scale: Optional[float] = None) -> FigureResult:
    """Table 6: multi-hop blocking and the product approximation."""
    scale = _table_scale(scale)
    config = multihop_config(scale)
    seeds = scaled_seeds(scale)
    rows = []
    data: Dict[str, Dict[str, object]] = {}
    controllers = _controllers(lambda design: 0.0)
    results = replicate_many([(config, spec) for spec in controllers.values()], seeds)
    for label, result in zip(controllers, results):
        shorts = [result.class_mean(f"short{i}", "blocking_probability") for i in range(3)]
        long_block = result.class_mean("long", "blocking_probability")
        product_block = 1.0 - math.prod(1.0 - b for b in shorts)
        data[label] = {"shorts": shorts, "long": long_block, "product": product_block}
        rows.append([label] + shorts + [long_block, product_block])
    text = format_table(
        ("design", "short I", "short II", "short III", "long", "product"),
        rows,
        title="Table 6: multi-hop blocking probabilities (eps=0)",
    )
    return FigureResult("table6", data, text)


# ---------------------------------------------------------------------------
# Figure 11 — coexistence with TCP at a legacy router
# ---------------------------------------------------------------------------

def figure11(
    scale: Optional[float] = None,
    epsilons: Sequence[float] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05),
    n_tcp: int = 20,
    ac_start: float = 50.0,
    interval: float = 10.0,
) -> FigureResult:
    """Figure 11: TCP bandwidth share vs time at a legacy (FIFO) router.

    The admission-controlled traffic shares a single drop-tail FIFO with
    ``n_tcp`` long-lived TCP Reno flows — there is no DiffServ class, so
    probe losses are induced by TCP's own sawtooth.  For small eps the TCP
    loss keeps admission-controlled flows out entirely; for larger eps the
    two classes split the link.
    """
    s = default_scale() if scale is None else scale
    duration = 200.0 + s * 12000.0
    series: Dict[float, List[float]] = {}
    summary_rows = []
    for eps in epsilons:
        sim = Simulator()
        streams = RandomStreams(1)
        network, port = single_link(
            sim, mbps(10), lambda: DropTailFifo(200), prop_delay=0.020
        )
        # Reverse direction for ACKs (uncongested).
        network.add_link("dst", "src", mbps(100), lambda: DropTailFifo(1000), 0.020)
        forward = network.route("src", "dst")
        reverse = network.route("dst", "src")
        stagger = streams.get("tcp-starts")
        connections = []
        for i in range(n_tcp):
            conn = TcpConnection(sim, forward, reverse, flow_id=1000 + i)
            conn.start(delay=float(stagger.uniform(0.0, 1.0)))
            connections.append(conn)

        design = EndpointDesign(
            CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START,
            epsilon=eps,
        )
        controller = EndpointAdmissionControl(sim, network, design, streams)
        classes = [FlowClass(label="EXP1", spec=get_source_spec("EXP1"))]
        generator = FlowGenerator(sim, streams, classes, 3.5, controller.handle)
        sim.schedule_at(ac_start, generator.start)

        # Cumulative TCP (best-effort) bytes at t = interval, 2*interval, ...
        be_bytes: List[int] = []

        def sample() -> None:
            be_bytes.append(port.stats.be_bytes)
            sim.schedule(interval, sample)

        sim.schedule_at(interval, sample)
        sim.run(until=duration)

        tcp_share = [
            (now - before) * BITS_PER_BYTE / (port.rate_bps * interval)
            for before, now in zip([0] + be_bytes, be_bytes)
        ]
        series[eps] = tcp_share
        tail = tcp_share[len(tcp_share) // 3:]
        summary_rows.append([
            eps,
            sum(tail) / len(tail),
            controller.totals().blocking_probability,
            controller.totals().loss_probability,
        ])
    text = format_table(
        ("eps", "tcp share (steady)", "ac blocking", "ac loss"),
        summary_rows,
        title=(
            "Figure 11: TCP bandwidth share with admission-controlled traffic "
            f"at a legacy router ({n_tcp} TCP flows, AC arrivals from t={ac_start:g}s)"
        ),
    )
    return FigureResult("figure11", series, text)
