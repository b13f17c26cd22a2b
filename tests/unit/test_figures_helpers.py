"""Unit tests for the figure-harness helpers (no simulations)."""

import pytest

from repro.core.design import (
    IN_BAND_EPSILONS,
    OUT_OF_BAND_EPSILONS,
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
)
from repro.experiments.figures import (
    FIGURE8_PANELS,
    FIGURE9_SCENARIOS,
    FIXED_EPS_IN_BAND,
    FIXED_EPS_OUT_OF_BAND,
    bench_epsilons,
    bench_mbac_targets,
    figure1,
    fixed_epsilon,
    multihop_classes,
    multihop_config,
)

IN_BAND = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND)
OUT_BAND = EndpointDesign(CongestionSignal.DROP, ProbeBand.OUT_OF_BAND)


def test_full_scale_uses_paper_sweeps():
    assert bench_epsilons(IN_BAND, 1.0) == IN_BAND_EPSILONS
    assert bench_epsilons(OUT_BAND, 1.0) == OUT_OF_BAND_EPSILONS


def test_small_scale_sweeps_include_fixed_epsilon():
    for design in (IN_BAND, OUT_BAND):
        eps = bench_epsilons(design, 0.01)
        assert 0.0 in eps
        assert fixed_epsilon(design) in eps
        assert len(eps) < len(design.default_epsilons)


def test_fixed_epsilons_match_paper_section_43():
    assert fixed_epsilon(IN_BAND) == FIXED_EPS_IN_BAND == 0.01
    assert fixed_epsilon(OUT_BAND) == FIXED_EPS_OUT_OF_BAND == 0.05


def test_mbac_targets_by_scale():
    assert len(bench_mbac_targets(1.0)) == 5
    assert len(bench_mbac_targets(0.01)) == 3


def test_figure8_panel_names_are_table2_scenarios():
    from repro.experiments.scenarios import SCENARIOS

    assert set(FIGURE8_PANELS) <= set(SCENARIOS)
    assert len(FIGURE8_PANELS) == 6  # panels (a)-(f)


def test_figure9_covers_eight_scenarios():
    assert len(FIGURE9_SCENARIOS) == 8
    assert "high-load" in FIGURE9_SCENARIOS


def test_multihop_classes_shape():
    classes = multihop_classes()
    assert [c.label for c in classes] == ["long", "short0", "short1", "short2"]
    long = classes[0]
    assert (long.src, long.dst) == ("b0", "b3")


def test_multihop_config_is_parking_lot():
    config = multihop_config(scale=0.01)
    assert config.topology == "parking-lot"
    assert config.interarrival == pytest.approx(1.8)


def test_figure1_result_renders():
    result = figure1()
    assert result.name == "figure1"
    assert "utilization" in result.text
    assert str(result) == result.text


#: SHA-256 over each artifact's task-ordered cache ``run_key``s at
#: ``scale=0.004`` with the code fingerprint pinned, and its task count.
#: A moved, added, dropped or reordered sweep point changes a digest.
_SWEEP_PLAN = {
    'figure2': (15, 'c41304e4c40fd4a1150484b73a79088b27f6ed640a53050e37456cce7aa2ca0f'),
    'figure3': (9, 'c3f42f624d0d654d812c8617cde5c9f701aecd40ede76f41f658f3da45d150f2'),
    'figure4': (8, 'b32525044fca4e8f9fa66939dd5d2193e353509919647698ad7659645e1f797f'),
    'figure5': (8, '951baa2f58ff8a1510903989d5b1aa596fb2c61eaa21e07e53692277dff82281'),
    'figure6': (8, '9fc496600f525add8bab26706be19160b5eb57b04463755ddaf641754071b258'),
    'figure7': (8, 'e87eba7b542255bffbf124029f5e6be0f702fa3e887efd28e9d00004e9a51b17'),
    'figure8': (60, 'a8908cd26b93da5802635e8beb0da1f9a8046a0802f021e1927cd5885dc0b1f1'),
    'figure9': (32, '7a8193ef1ed4d69c88098f91293651f156b9d6313fdc88b78e65a436aaa2fa71'),
    'table3': (4, 'a38656f7726b814ec3ab141a7387f60a8ed5c5e91bf7a5977bed5e81d519d306'),
    'table4': (5, '77f48b9629b503419e8ed02853ea931f4b477592e3ee64e61fbd6a2e642e2266'),
    'table5': (5, '40cc8b1d5081daa98b09db5a4e0e9368ebe282694da96c960bce228c990e42d5'),
    'table6': (5, '40cc8b1d5081daa98b09db5a4e0e9368ebe282694da96c960bce228c990e42d5'),
}


def test_sweep_plan_is_pinned(monkeypatch):
    """Every artifact of Figures 2-9 and Tables 3-6 submits exactly the
    pinned tasks, in the pinned order, without simulating any of them."""
    import hashlib

    from repro import canonical
    from repro.experiments import cache, figures, parallel
    from repro.experiments.runner import ScenarioResult

    tasks = []
    canned = ScenarioResult(
        controller_name="canned", seed=1, utilization=0.5,
        loss_probability=0.01, blocking_probability=0.1, offered=10, admitted=9,
    )

    def record(task):
        tasks.append(task)
        return canned, 0.0, ()

    monkeypatch.setattr(parallel, "_compute", record)
    monkeypatch.setattr(cache, "code_fingerprint", lambda: "pinned")
    parallel.set_jobs(1)
    cache.set_cache_dir(None)
    plan = {}
    for name in ("figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
                 "figure8", "figure9", "table3", "table4", "table5", "table6"):
        tasks.clear()
        getattr(figures, name)(scale=0.004)
        keys = [cache.run_key(config, spec) for config, spec in tasks]
        digest = hashlib.sha256(canonical.dumps(keys).encode()).hexdigest()
        plan[name] = (len(keys), digest)
    table = "".join(f"    {name!r}: {entry!r},\n" for name, entry in plan.items())
    assert plan == _SWEEP_PLAN, f"sweep plan moved; new table:\n{table}"
