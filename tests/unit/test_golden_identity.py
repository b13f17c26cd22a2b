"""Golden byte-identity: the fast path must be behaviour-invisible.

The fixture ``tests/fixtures/golden_scenarios.json`` pins, for a small
matrix of (scenario, seed) points plus the MBAC, time-series,
metrics-snapshot and parking-lot variants (``tests/fixtures/generate_golden.py`` defines
them), the exact
ScenarioResult payload and the cache ``run_key`` produced by the
reference implementation (with the code fingerprint pinned to a constant
so the key checks config/schema stability rather than source bytes).
These tests replay every point on the current code and assert equality
— the contract that lets hot-path optimisations (pooled event records,
the self-clocked transmit chain, packet free lists) land without any
behavioural review: if a single counter, float, or key moves, the
optimisation is not an optimisation.

The full matrix replays with ``strict=False`` engines — the production
fast path the optimisations target.  One point additionally replays
under ``strict=True`` to pin that the checked engine agrees bit-for-bit
with the fast one.  Regenerate the fixture (only when behaviour is
*meant* to change) with ``PYTHONPATH=src python
tests/fixtures/generate_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple
from unittest import mock

import pytest

from repro import canonical
from repro.experiments import cache
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.sim.engine import set_strict_default

from tests.fixtures.generate_golden import SCALE, VARIANTS, task

_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "golden_scenarios.json"
_GOLDEN: Dict[str, Any] = json.loads(_FIXTURE.read_text())

#: SHA-256 over the ``result`` and ``run_key`` entries of the six
#: (scenario, seed) points as committed before the variants were appended
#: (PR 22's file): regenerating the fixture must never move them.
_ORIGINAL_SIX_SHA256 = (
    "6e57bf71b71b2e3e05159b71a59aa693dc6b4b45a1983a5a220d2a1e7b8a0d64"
)


def _point_id(point: Dict[str, Any]) -> str:
    name = f"{point['scenario']}-seed{point['seed']}"
    return f"{name}-{point['variant']}" if "variant" in point else name


_POINTS = [
    pytest.param(point, id=_point_id(point)) for point in _GOLDEN["points"]
]


def _canonical(result: ScenarioResult) -> Dict[str, Any]:
    """The result as it appears in the fixture (JSON round-trip normalizes
    tuples to lists and non-string dict keys to strings)."""
    payload: Dict[str, Any] = json.loads(json.dumps(asdict(result)))
    return payload


def _replay(point: Dict[str, Any]) -> Tuple[ScenarioResult, str]:
    config, spec = task(point)
    result = run_scenario(config, spec)
    with mock.patch.object(
        cache, "code_fingerprint", return_value=_GOLDEN["pinned_fingerprint"]
    ):
        key = cache.run_key(config, spec)
    return result, key


def test_fixture_is_well_formed() -> None:
    assert _GOLDEN["design"] == "drop/in-band/slow-start"
    assert _GOLDEN["scale"] == SCALE
    assert len(_GOLDEN["points"]) == 11
    scenarios = {p["scenario"] for p in _GOLDEN["points"]}
    assert scenarios == {"basic", "high-load-flaky", "basic-flaky", "multihop"}
    assert len({p["run_key"] for p in _GOLDEN["points"]}) == 11
    assert [p.get("variant") for p in _GOLDEN["points"]] == [None] * 6 + list(VARIANTS)


def test_original_six_points_never_moved() -> None:
    pinned = [
        {"result": p["result"], "run_key": p["run_key"]}
        for p in _GOLDEN["points"][:6]
    ]
    digest = hashlib.sha256(canonical.dumps(pinned).encode()).hexdigest()
    assert digest == _ORIGINAL_SIX_SHA256


def _values(series: List[Dict[str, Any]]) -> Dict[Tuple[Any, ...], Any]:
    """``{(name, *label values): value}`` of one kind of metrics series."""
    return {(s["name"], *s["labels"].values()): s["value"] for s in series}


def test_variants_exercise_what_they_pin() -> None:
    mbac, sampled, flaky, mbac_metrics, multihop = _GOLDEN["points"][6:]
    assert mbac["result"]["controller_name"] == "mbac(u=0.9)"
    series = sampled["result"]["timeseries"]["series"]["port:src->dst:util"]
    times = sampled["result"]["timeseries"]["t"]
    # No phantom outage at the warm-up boundary (t = 120 s is a sample time).
    assert 120.0 in times
    assert all(u > 0.5 for t, u in zip(times, series) if t >= 5.0)

    metrics = flaky["result"]["metrics"]
    counters = _values(metrics["counters"])
    assert counters["fault_actions", "down"] >= 1
    assert counters[("trace_capped",)] > 0
    assert counters["port_fault_drops", "src->dst"] > 0
    assert counters["flows_offered", "EXP1"] > 0
    (hist,) = metrics["histograms"]
    assert hist["name"] == "probe_fraction" and hist["count"] > 0
    metrics = mbac_metrics["result"]["metrics"]
    assert _values(metrics["counters"])["mbac_samples", "src->dst"] > 0
    assert ("mbac_estimate_bps", "src->dst") in _values(metrics["gauges"])

    # The parking lot: three congested backbone links, the long class
    # crossing all of them, and an estimator on every port.
    result = multihop["result"]
    assert result["controller_name"] == "mbac(u=0.9)"
    assert len(result["per_link_utilization"]) == 3
    assert all(u > 0.3 for u in result["per_link_utilization"])
    assert set(result["per_class"]) == {"long", "short0", "short1", "short2"}
    samples = {
        key[1]: value for key, value in _values(result["metrics"]["counters"]).items()
        if key[0] == "mbac_samples"
    }
    assert {"b0->b1", "b1->b2", "b2->b3"} <= set(samples)
    assert all(n > 0 for n in samples.values())


@pytest.mark.parametrize("point", _POINTS)
def test_fast_path_matches_golden(point: Dict[str, Any]) -> None:
    """Non-strict (production) engines reproduce the fixture exactly."""
    previous = set_strict_default(False)
    try:
        result, key = _replay(point)
    finally:
        set_strict_default(previous)
    payload = _canonical(result)
    assert payload == point["result"]
    # Bytes, not just values: 3 == 3.0, but an int counter that became a
    # float would change every metrics dump and cache entry.
    assert canonical.dumps(payload) == canonical.dumps(point["result"])
    assert key == point["run_key"]


def test_strict_engine_matches_golden() -> None:
    """The strict engine agrees bit-for-bit with the fast path.

    One point suffices: divergence between the strict and fast dispatch
    orders would corrupt every downstream counter, not a single seed.
    (conftest arms ``set_strict_default(True)`` session-wide, so this
    replay runs strict without further setup.)
    """
    point = _GOLDEN["points"][0]
    result, key = _replay(point)
    assert _canonical(result) == point["result"]
    assert key == point["run_key"]
