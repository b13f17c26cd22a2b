"""Ablations of the design choices DESIGN.md calls out.

Each test prints its table (``pytest -rP`` shows it): EXPERIMENTS.md quotes
these numbers, and no ``repro-eac`` command prints them.

* Section 2.1.1 — Fair Queueing steals bandwidth from admitted large
  flows; FIFO does not (the reason FQ must not serve the AC class).
* Footnote 11 — drop-tail vs RED for the AC queue barely changes the
  loss-load point (the paper's justification for using drop-tail).
* Section 3.1 — the virtual-queue fraction controls how early marking
  designs signal congestion.
* Section 3.1 — early-abort of hopeless probes saves probe bandwidth
  without changing admission decisions.
"""

from dataclasses import replace

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments.parallel import run_many
from repro.experiments.report import format_table
from repro.experiments.scenarios import get_scenario
from repro.experiments.ablations import stolen_bandwidth_demo as run_two_groups
from repro.net.queues import DropTailFifo, FairQueueing


def test_ablation_fq_stealing():
    """Quantify Section 2.1.1: large-flow loss under FQ vs FIFO after a
    crowd of small flows arrives."""
    fq_large, fq_small = run_two_groups(FairQueueing(100))
    fifo_large, fifo_small = run_two_groups(DropTailFifo(100))
    print(format_table(
        ("scheduler", "large-flow loss", "mean small-flow loss"),
        [
            ("fair queueing", fq_large, sum(fq_small) / len(fq_small)),
            ("FIFO", fifo_large, sum(fifo_small) / len(fifo_small)),
        ],
        title="Ablation (Sec 2.1.1): stolen bandwidth, 512k flow vs 6x128k crowd",
    ))
    assert fq_large > 0.5          # FQ starves the admitted large flow
    assert max(fq_small) < 0.05    # while small-flow probes stay clean
    assert fifo_large < 0.35       # FIFO spreads the overload


def test_ablation_red_vs_droptail():
    """Footnote 11: RED instead of drop-tail on the AC queue."""
    config = get_scenario("basic").config()
    base = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                          ProbingScheme.SLOW_START, epsilon=0.01)
    droptail, red = run_many([(config, base),
                              (config, replace(base, queue_discipline="red"))])
    print(format_table(
        ("queue", "utilization", "loss", "blocking"),
        [
            ("drop-tail", droptail.utilization, droptail.loss_probability,
             droptail.blocking_probability),
            ("RED", red.utilization, red.loss_probability,
             red.blocking_probability),
        ],
        title="Ablation (footnote 11): AC queue drop-tail vs RED",
    ))
    # The paper: "we don't think this affected the results" — same regime.
    assert abs(red.utilization - droptail.utilization) < 0.1
    assert red.loss_probability < 10 * max(droptail.loss_probability, 1e-4)


def test_ablation_vq_fraction():
    """Sweep the virtual-queue rate fraction for in-band marking."""
    config = get_scenario("basic").config()
    base = EndpointDesign(CongestionSignal.MARK, ProbeBand.IN_BAND,
                          ProbingScheme.SLOW_START, epsilon=0.01)
    fractions = (0.8, 0.9, 0.99)
    results = run_many([(config, replace(base, vq_fraction=f))
                        for f in fractions])
    rows = [(f, r.utilization, r.loss_probability, r.blocking_probability)
            for f, r in zip(fractions, results)]
    print(format_table(
        ("vq fraction", "utilization", "loss", "blocking"), rows,
        title="Ablation (Sec 3.1): virtual-queue rate fraction, in-band marking",
    ))
    # A more aggressive virtual queue (smaller fraction) marks earlier, so
    # admission gets more conservative: utilization must not increase.
    assert results[0].utilization <= results[-1].utilization + 0.02


def test_ablation_early_abort():
    """Early-abort of failing simple probes: saves probe bandwidth,
    preserves decisions."""
    config = get_scenario("high-load").config()
    base = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                          ProbingScheme.SIMPLE, epsilon=0.01)
    on, off = run_many([(config, base),
                        (config, replace(base, early_abort=False))])
    rows = [
        ("abort on", on.utilization, on.probe_utilization,
         on.blocking_probability, on.loss_probability),
        ("abort off", off.utilization, off.probe_utilization,
         off.blocking_probability, off.loss_probability),
    ]
    print(format_table(
        ("early abort", "utilization", "probe util", "blocking", "loss"), rows,
        title="Ablation (Sec 3.1): early-abort of hopeless probes, high load",
    ))
    # Without abort, rejected flows probe at full rate for all 5 seconds:
    # strictly more probe traffic on the link.
    assert off.probe_utilization > on.probe_utilization
    # Decisions land in the same regime.
    assert abs(off.blocking_probability - on.blocking_probability) < 0.15


def test_ablation_probe_shape():
    """Section 3.1's optional refinement: bucket-aware probe shapes.

    Only the video source has a deep bucket (200 kbit at 800 kbps), so the
    video scenario is where probe shape can matter.  Bursty probing
    stresses the queue the way the flow's worst case would, making
    admission somewhat more conservative; effective-rate probing (r + b/T)
    probes 5% harder.
    """
    from repro.core.design import ProbeShape

    config = get_scenario("video").config()
    base = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                          ProbingScheme.SLOW_START, epsilon=0.01)

    shapes = (ProbeShape.SMOOTH, ProbeShape.BURSTY, ProbeShape.EFFECTIVE_RATE)
    results = dict(zip(shapes, run_many(
        [(config, replace(base, probe_shape=shape)) for shape in shapes]
    )))
    rows = [
        (shape.value, r.utilization, r.loss_probability,
         r.blocking_probability)
        for shape, r in results.items()
    ]
    print(format_table(
        ("probe shape", "utilization", "loss", "blocking"), rows,
        title="Ablation (Sec 3.1): bucket-aware probe shapes, video scenario",
    ))
    # All three shapes must land in the same operating regime...
    for shape, r in results.items():
        assert r.utilization > 0.45, shape
        assert r.loss_probability < 0.05, shape
    # ...with the bucket-aware shapes no less conservative than smooth.
    smooth = results[ProbeShape.SMOOTH]
    for shape in (ProbeShape.BURSTY, ProbeShape.EFFECTIVE_RATE):
        assert (results[shape].blocking_probability
                >= smooth.blocking_probability - 0.15), shape
