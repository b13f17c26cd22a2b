"""Regenerate the golden byte-identity fixtures (tests/fixtures/golden_scenarios.json).

Run from the repo root with the *reference* implementation checked out:

    PYTHONPATH=src python tests/fixtures/generate_golden.py

The fixture pins, for a small deterministic matrix of (scenario, seed)
points plus the :data:`VARIANTS`, the exact
:class:`~repro.experiments.runner.ScenarioResult` payload and the cache
``run_key`` computed with the code fingerprint pinned to a constant.  ``tests/unit/test_golden_identity.py`` replays the same runs on
the current code and asserts byte-for-byte equality, which is what lets
hot-path optimisations (pooled events, self-clocked links, packet free
lists) prove they are behaviour-invisible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from unittest import mock

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments import cache
from repro.experiments.figures import multihop_config
from repro.experiments.runner import (
    ControllerSpec,
    MbacConfig,
    ScenarioConfig,
    run_scenario,
)
from repro.experiments.scenarios import get_scenario
from repro.obs.config import ObsConfig

#: Small but non-trivial scale: 120 s warm-up + 48 s measured window.
SCALE = 0.004
SEEDS = (1, 2, 3)
SCENARIOS = ("basic", "high-load-flaky")
#: Code fingerprint is pinned so the key checks config/schema stability,
#: not source bytes (any commit changes the real fingerprint by design).
PINNED_FINGERPRINT = "golden-fixture"

DESIGN = EndpointDesign(
    CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
)

#: Seed 1 again as (scenario, controller, obs) variants.  The matrix above
#: never runs the MBAC estimator or the time-series sampler, which is how a
#: negative load sample and a 0.0 utilisation sample at the warm-up
#: boundary once lived unpinned.  The two ``*-metrics`` variants pin
#: the end-of-run metrics snapshot byte for byte: the flaky one carries the
#: fault, trace, port, class and probe-fraction series (its trace capped
#: so the fixture stays small), the MBAC one the estimator series.  The
#: ten points above are all single-link; ``multihop-mbac`` is the Tables
#: 5-6 parking lot under MBAC(0.9), shortened to a few seconds of replay,
#: and pins the path where several ports serialize at once.
VARIANTS: Dict[str, Tuple[str, ControllerSpec, Optional[ObsConfig]]] = {
    "mbac": ("basic", MbacConfig(0.9), None),
    "timeseries": (
        "basic", DESIGN, ObsConfig(metrics=False, trace=False, timeseries=True)
    ),
    "flaky-metrics": (
        "basic-flaky", DESIGN,
        ObsConfig(metrics=True, trace=True, max_records=32),
    ),
    "mbac-metrics": (
        "basic", MbacConfig(0.9), ObsConfig(metrics=True, trace=False)
    ),
    "multihop-mbac": (
        "multihop", MbacConfig(0.9), ObsConfig(metrics=True, trace=False)
    ),
}


def _config(scenario: str, seed: int) -> ScenarioConfig:
    """A catalog scenario at :data:`SCALE`, or the shortened parking lot."""
    if scenario == "multihop":
        return replace(
            multihop_config(SCALE), warmup=5.0, duration=16.0, seed=seed
        )
    return get_scenario(scenario).config(scale=SCALE, seed=seed)


def task(point: Dict[str, Any]) -> Tuple[ScenarioConfig, ControllerSpec]:
    """The (config, controller spec) a fixture point pins."""
    _, spec, obs = VARIANTS.get(point.get("variant"), ("basic", DESIGN, None))
    config = _config(point["scenario"], point["seed"])
    return replace(config, obs=obs), spec


def build() -> dict:
    matrix = [
        {"scenario": name, "seed": seed} for name in SCENARIOS for seed in SEEDS
    ] + [
        {"scenario": scenario, "seed": 1, "variant": variant}
        for variant, (scenario, _, _) in VARIANTS.items()
    ]
    points = []
    for point in matrix:
        config, spec = task(point)
        result = run_scenario(config, spec)
        with mock.patch.object(
            cache, "code_fingerprint", return_value=PINNED_FINGERPRINT
        ):
            key = cache.run_key(config, spec)
        points.append({**point, "run_key": key, "result": asdict(result)})
    return {
        "scale": SCALE,
        "design": "drop/in-band/slow-start",
        "pinned_fingerprint": PINNED_FINGERPRINT,
        "points": points,
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("golden_scenarios.json")
    out.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(json.loads(out.read_text())['points'])} points)")
