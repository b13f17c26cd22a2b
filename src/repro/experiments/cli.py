"""Command-line interface: ``repro-eac`` / ``python -m repro.experiments.cli``.

Subcommands::

    repro-eac list                      # scenarios, designs, experiments
    repro-eac run basic --design drop/in-band --epsilon 0.01 --scale 0.02
    repro-eac figure figure2 --scale 0.02
    repro-eac figure table5 figure9 --scale 0.05 --jobs 4

The ``figure`` subcommand accepts any experiment name from DESIGN.md's
index (figure1..figure9, figure11, table3..table6) and prints the
regenerated rows/series.  ``run`` and ``figure`` share the execution
flags ``--jobs N`` (worker processes; 0 = one per CPU), ``--cache-dir``
(the persistent result cache, default ``results/cache``), ``--no-cache``
(no result cache at all), ``--task-timeout``, ``--profile``
(per-callback wall-time summary) and ``--obs-dir DIR`` (per-run obs
artifacts plus a canonical manifest); ``run`` additionally takes
``--trace PATH`` / ``--metrics PATH`` / ``--timeseries PATH`` /
``--trace-sample CAT=N`` to dump a deterministic repro.obs event trace,
metrics snapshot, and periodic time series (inspect with
``python -m repro.obs``), and ``--seeds N`` to replicate over
consecutive seeds.  Per-run progress goes to stderr so piped figure
output stays clean.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
    all_designs,
)
from repro.errors import ReproError
from repro.experiments import cache, figures, parallel
from repro.experiments.runner import MbacConfig
from repro.experiments.scenarios import SCENARIOS, get_scenario
from repro.obs import ObsConfig
from repro.obs.export import write_artifact

#: Default directory of the persistent result cache (``--cache-dir``).
DEFAULT_CACHE_DIR = "results/cache"

#: Experiment registry for the ``figure`` subcommand.
EXPERIMENTS = {
    "figure1": figures.figure1,
    "figure2": figures.figure2,
    "figure3": figures.figure3,
    "figure4": figures.figure4,
    "figure5": figures.figure5,
    "figure6": figures.figure6,
    "figure7": figures.figure7,
    "figure8": figures.figure8,
    "figure9": figures.figure9,
    "figure11": figures.figure11,
    "table3": figures.table3,
    "table4": figures.table4,
    "table5": figures.table5,
    "table6": figures.table6,
}


def parse_design(text: str, epsilon: float, probing: str) -> EndpointDesign:
    """Parse ``signal/band`` (e.g. ``drop/in-band``) into a design."""
    try:
        signal_text, band_text = text.split("/", 1)
        signal = CongestionSignal(signal_text)
        band = ProbeBand(band_text)
        scheme = ProbingScheme(probing)
    except ValueError as exc:
        raise ReproError(
            f"bad design {text!r} (want e.g. 'drop/in-band', "
            f"'mark/out-of-band'): {exc}"
        ) from None
    return EndpointDesign(signal, band, scheme, epsilon=epsilon)


def _cmd_list(args: argparse.Namespace) -> int:
    print("Scenarios (Table 2):")
    for name, spec in SCENARIOS.items():
        print(f"  {name:15s} {spec.description}  [{spec.figure}]")
    print("\nDesigns:")
    for design in all_designs():
        print(f"  {design.signal.value}/{design.band.value}")
    print("  (probing schemes: simple, early-reject, slow-start)")
    print("\nExperiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def _apply_execution_options(args: argparse.Namespace) -> parallel.ProgressTracker:
    """Wire --jobs/--cache-dir/--no-cache/--task-timeout into sweep state.

    Returns the installed progress tracker so command handlers can print
    its timing summary after the work is done.
    """
    parallel.set_jobs(args.jobs)
    parallel.set_task_timeout(args.task_timeout)
    parallel.set_profile(args.profile)
    parallel.set_obs_dir(args.obs_dir)
    cache.set_cache_dir(None if args.no_cache else args.cache_dir)
    tracker = parallel.ProgressTracker(stream=sys.stderr)
    parallel.set_progress(tracker)
    return tracker


def _parse_samples(values: Optional[List[str]]) -> Tuple[Tuple[str, int], ...]:
    """Parse repeated ``--trace-sample CAT=N`` flags into ObsConfig pairs."""
    if not values:
        return ()
    pairs: List[Tuple[str, int]] = []
    for value in values:
        category, sep, count = value.partition("=")
        if not sep or not category:
            raise ReproError(
                f"bad --trace-sample {value!r} (want CATEGORY=N, e.g. tx=100)"
            )
        try:
            every = int(count)
        except ValueError:
            raise ReproError(
                f"bad --trace-sample {value!r}: {count!r} is not an integer"
            ) from None
        pairs.append((category, every))
    return tuple(pairs)


def _obs_config(args: argparse.Namespace) -> Optional[ObsConfig]:
    """The ObsConfig the run subcommand's flags describe (None when off).

    ``--obs-dir`` with no per-artifact flag turns everything on (trace,
    metrics, timeseries) — the sweep-artifact use case; individual
    ``--trace``/``--metrics``/``--timeseries`` flags select exactly what
    they name.
    """
    want_trace = args.trace is not None
    want_metrics = args.metrics is not None
    want_timeseries = args.timeseries is not None
    if not want_trace and not want_metrics and not want_timeseries:
        if args.obs_dir is not None:
            return ObsConfig(
                timeseries=True,
                sample_every=_parse_samples(args.trace_sample),
            )
        return None
    return ObsConfig(
        metrics=want_metrics,
        trace=want_trace,
        timeseries=want_timeseries,
        sample_every=_parse_samples(args.trace_sample),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    tracker = _apply_execution_options(args)
    config = get_scenario(args.scenario).config(args.scale, seed=args.seed)
    obs_config = _obs_config(args)
    if obs_config is not None:
        config = replace(config, obs=obs_config)
    if args.mbac is not None:
        spec = MbacConfig(target_utilization=args.mbac)
    elif args.design is not None:
        spec = parse_design(args.design, args.epsilon, args.probing)
    else:
        spec = None
    if args.seeds < 1:
        raise ReproError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seeds > 1:
        per_run = [flag for flag, value in (
            ("--trace", args.trace), ("--metrics", args.metrics),
            ("--timeseries", args.timeseries),
        ) if value is not None]
        if per_run:
            raise ReproError(
                f"{'/'.join(per_run)} write one file but --seeds "
                f"{args.seeds} produces several runs; use --obs-dir for "
                f"per-run artifacts"
            )
        seeds = range(args.seed, args.seed + args.seeds)
        aggregate = parallel.replicate_many([(config, spec)], seeds)[0]
        if args.profile:
            print(tracker.summary(), file=sys.stderr)
        print(f"controller : {aggregate.controller_name}")
        print(f"seeds      : {aggregate.seeds}")
        print(f"utilization: {aggregate.utilization:.4f}")
        print(f"loss prob  : {aggregate.loss_probability:.3e}")
        print(f"blocking   : {aggregate.blocking_probability:.4f}")
        for label in sorted(aggregate.per_class_means):
            print(f"  class {label}: "
                  f"blocking={aggregate.class_mean(label, 'blocking_probability'):.4f} "
                  f"loss={aggregate.class_mean(label, 'loss_probability'):.3e}")
        return 0
    result = parallel.run_many([(config, spec)])[0]
    for kind, path, unit in (("trace", args.trace, "records"),
                             ("metrics", args.metrics, None),
                             ("timeseries", args.timeseries, "samples")):
        if path is not None:
            payload = getattr(result, kind) or ([] if kind == "trace" else {})
            entry = write_artifact(Path(path), kind, payload)
            count = f"{entry['records']} {unit} " if unit else ""
            print(f"{kind:<11}: {count}-> {path}", file=sys.stderr)
    if args.profile:
        print(tracker.summary(), file=sys.stderr)
    print(f"controller : {result.controller_name}")
    print(f"utilization: {result.utilization:.4f}")
    print(f"loss prob  : {result.loss_probability:.3e}")
    print(f"blocking   : {result.blocking_probability:.4f} "
          f"({result.blocked}/{result.offered})")
    if result.fault_events:
        print(f"faults     : {result.fault_events} events injected")
    for label, stats in sorted(result.per_class.items()):
        print(f"  class {label}: blocking={stats['blocking_probability']:.4f} "
              f"loss={stats['loss_probability']:.3e}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    tracker = _apply_execution_options(args)
    for name in args.names:
        fn = EXPERIMENTS.get(name)
        if fn is None:
            known = ", ".join(EXPERIMENTS)
            raise ReproError(f"unknown experiment {name!r}; known: {known}")
        result = fn(scale=args.scale) if name != "figure1" else fn()
        print(result.text)
        print()
    print(tracker.summary(), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-eac`` argument parser (list/run/figure)."""
    parser = argparse.ArgumentParser(
        prog="repro-eac",
        description="Endpoint admission control (SIGCOMM 2000) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenarios, designs and experiments")

    def add_execution_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for independent runs "
                            "(0 = one per CPU; default $REPRO_JOBS or 1)")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="persistent result cache directory "
                            f"(default {DEFAULT_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true",
                       help="keep no result cache (every run is simulated)")
        p.add_argument("--task-timeout", type=float, default=None,
                       help="no-progress deadline (seconds) before a "
                            "parallel sweep presumes hung workers and "
                            "recycles the pool (default: wait forever)")
        p.add_argument("--profile", action="store_true",
                       help="profile per-callback wall time in fresh runs "
                            "and print the top callbacks in the summary")
        p.add_argument("--obs-dir", metavar="DIR", default=None,
                       help="export per-run obs artifacts (trace/metrics/"
                            "timeseries) plus a canonical manifest.json "
                            "into DIR")

    run_p = sub.add_parser("run", help="run one scenario under one controller")
    add_execution_flags(run_p)
    run_p.add_argument("scenario", help="scenario name (see 'list')")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="record a deterministic event trace "
                            "(repro.obs JSONL) to PATH")
    run_p.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the run's metrics snapshot "
                            "(repro.obs JSON) to PATH")
    run_p.add_argument("--trace-sample", action="append", metavar="CAT=N",
                       help="keep every N-th trace record of a category "
                            "(repeatable; e.g. --trace-sample tx=100)")
    run_p.add_argument("--timeseries", metavar="PATH", default=None,
                       help="record a periodic time series (repro.obs "
                            "JSON) to PATH")
    run_p.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="replicate over N consecutive seeds starting "
                            "at --seed and print the aggregate (per-run "
                            "artifacts go to --obs-dir)")
    run_p.add_argument("--design", help="signal/band, e.g. drop/in-band")
    run_p.add_argument("--probing", default="slow-start",
                       help="simple | early-reject | slow-start")
    run_p.add_argument("--epsilon", type=float, default=0.01)
    run_p.add_argument("--mbac", type=float, default=None,
                       help="run the MBAC benchmark at this target utilization")
    run_p.add_argument("--scale", type=float, default=None,
                       help="run scale in (0, 1]; default from REPRO_SCALE")
    run_p.add_argument("--seed", type=int, default=1)

    fig_p = sub.add_parser("figure", help="regenerate paper tables/figures")
    add_execution_flags(fig_p)
    fig_p.add_argument("names", nargs="+", help="experiment names (see 'list')")
    fig_p.add_argument("--scale", type=float, default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "figure": _cmd_figure}
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
