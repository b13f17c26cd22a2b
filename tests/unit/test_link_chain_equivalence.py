"""The chain slot is behaviour-invisible across ports.

Every serialization an output port starts goes through
:meth:`Simulator.call_chained`; with several ports busy at once the
slot keeps spilling the older chain into the timer heap.  The engine
documents the slot as identical to :meth:`Simulator.call` in semantics,
so a parking lot run with ``call_chained`` replaced by ``call`` (the
reference dispatch) must give the same result byte for byte, event
count included.  A link-flap fault takes ports down and brings them back
up, so ``set_enabled(True)`` restarts transmitters mid-run.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from unittest import mock

import pytest

from repro import canonical
from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments.figures import multihop_config
from repro.experiments.runner import ControllerSpec, MbacConfig, run_scenario
from repro.faults.model import FaultConfig
from repro.sim.engine import Simulator

_CONFIG = replace(
    multihop_config(0.004), warmup=3.0, duration=8.0, interarrival=0.5,
    faults=FaultConfig(flap_every=2.0, flap_downtime=0.5, target="all"),
    seed=3,
)

_SPECS = [
    pytest.param(MbacConfig(0.9), id="mbac"),
    pytest.param(
        EndpointDesign(
            CongestionSignal.DROP, ProbeBand.OUT_OF_BAND, ProbingScheme.SLOW_START
        ),
        id="drop-out-of-band",
    ),
]


def _run(spec: ControllerSpec) -> str:
    result = run_scenario(_CONFIG, spec)
    assert result.fault_events > 0
    return canonical.dumps(asdict(result))


@pytest.mark.parametrize("spec", _SPECS)
def test_chained_and_reference_dispatch_agree(spec: ControllerSpec) -> None:
    chained = _run(spec)
    with mock.patch.object(Simulator, "call_chained", Simulator.call):
        reference = _run(spec)
    assert chained == reference
