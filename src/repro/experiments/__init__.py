"""Experiment harness: scenarios, runners, caching, parallel sweeps, figures, CLI."""

from repro.experiments.cache import (
    clear_cache,
    get_cache_dir,
    set_cache_dir,
)
from repro.experiments.lossload import (
    LossLoadCurve,
    LossLoadPoint,
)
from repro.experiments.parallel import (
    replicate_many,
    run_many,
    set_jobs,
    set_progress,
)
from repro.experiments.runner import (
    MbacConfig,
    ReplicatedResult,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    default_scale,
    get_scenario,
    heterogeneous_classes,
    scaled_seeds,
    scaled_times,
)

__all__ = [
    "LossLoadCurve",
    "LossLoadPoint",
    "MbacConfig",
    "ReplicatedResult",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioSpec",
    "clear_cache",
    "default_scale",
    "get_cache_dir",
    "get_scenario",
    "heterogeneous_classes",
    "replicate_many",
    "run_many",
    "run_scenario",
    "scaled_seeds",
    "scaled_times",
    "set_cache_dir",
    "set_jobs",
    "set_progress",
]
