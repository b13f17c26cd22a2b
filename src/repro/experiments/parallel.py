"""Process-pool fan-out of independent scenario runs.

Every point of a figure sweep is an independent ``(ScenarioConfig,
ControllerSpec)`` simulation — the paper's own evaluation averages 7 seeds
per point and sweeps epsilon per design, so a single figure is dozens of
runs with no data dependencies between them.  This module executes such a
task list concurrently on a :class:`~concurrent.futures.ProcessPoolExecutor`
while preserving bit-for-bit determinism:

* each run is hermetic — :func:`~repro.experiments.runner.run_scenario`
  builds its own :class:`~repro.sim.engine.Simulator` and seeds its own
  :class:`~repro.sim.rng.RandomStreams` from ``config.seed``, so a worker
  process computes exactly the bytes the serial path would;
* results are keyed and yielded in **task order**, never completion
  order, so aggregation sees the same sequence regardless of scheduling;
* the disk cache (:mod:`repro.experiments.cache`), when configured, is
  consulted before any process is spawned and filled as results arrive,
  so a parallel sweep and a serial sweep leave identical cache contents.

One loop runs every sweep.  :func:`iter_run_results` looks each task up
in the cache, then pulls batches of cache misses from a *completion
source* until the next index is ready, storing and reporting every
completion of a batch, exports that run's obs artifacts and yields it.
The sources only compute: :func:`_in_process` yields in index order, one
run per batch, and :func:`_in_pool` yields each batch of futures that
finished together and falls back to :func:`_in_process` when no pool
can be had.  A sweep abandoned before its end (``close()``, Ctrl-C)
closes its source, which shuts the pool down, and writes no obs
manifest.

The harness is crash-tolerant (DESIGN.md §10): a worker process dying
(OOM kill, segfault, ``os._exit``) breaks the pool, but never the sweep —
results completed before the crash are harvested, the pool is respawned,
and only the unfinished tasks are resubmitted, with capped exponential
backoff between rounds and a bounded per-task retry budget.  Because each
run is a pure function of its task, a retried task recomputes exactly the
bytes the first attempt would have produced, so the yielded sequence stays
byte-identical to the serial path even through injected crashes.  Tasks
that raise *deterministically* (the same exception every attempt) are
never retried: the sweep aborts with a :class:`~repro.errors.SweepTaskError`
carrying the failing task's cache ``run_key``, so the failure is
reproducible in isolation.

Wall-clock timing of runs lives here (and only here) by design: the
module is on the determinism linter's explicit DET002 exemption list,
next to ``benchmarks/`` — see DESIGN.md §9.

The worker count resolves, in order: an explicit ``jobs=`` argument, the
process-wide :func:`set_jobs` value (the CLI's ``--jobs`` flag), the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=0`` means
"one worker per CPU".
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from itertools import islice
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    SweepError,
    SweepTaskError,
    SweepWorkerError,
)
from repro.experiments import cache
from repro.obs.export import ObsDirWriter
from repro.obs.profile import (
    CallbackProfile,
    ProfileRow,
    format_rows,
    merge_rows,
)
from repro.experiments.runner import (
    ControllerSpec,
    ReplicatedResult,
    ScenarioConfig,
    ScenarioResult,
    _controller_name,
    run_scenario,
)

#: One unit of work: a fully-seeded scenario under one controller.
RunTask = Tuple[ScenarioConfig, ControllerSpec]
#: A task index and ``_compute``'s output; a completion source yields
#: lists of these, one list per batch that finished together.
Completion = Tuple[int, Tuple[ScenarioResult, float, Tuple[ProfileRow, ...]]]


@dataclass(frozen=True)
class RunEvent:
    """Progress record for one observed event of a sweep.

    ``source`` is ``"run"`` for a fresh simulation, ``"disk"`` for a
    cache hit, ``"failed"`` for a task that raised deterministically
    (the sweep aborts right after emitting it), and ``"retry"`` for a task
    being resubmitted after a worker crash or stall.  ``seconds`` is the
    wall-clock compute time (0 for everything but ``"run"``); ``error``
    carries the exception repr for ``"failed"`` and the attempt counter
    for ``"retry"``, and is empty otherwise.
    """

    index: int
    total: int
    controller: str
    seed: int
    seconds: float
    source: str
    error: str = ""
    #: Per-callback wall-time rows (qualname, seconds, calls) when
    #: :func:`set_profile` is on and the event is a fresh ``"run"``;
    #: empty otherwise.  Profiles are wall-clock and nondeterministic,
    #: which is why they ride here and never in a cached result.
    profile: Tuple[ProfileRow, ...] = ()


ProgressCallback = Callable[[RunEvent], None]

_progress_hook: Optional[ProgressCallback] = None
_configured_jobs: Optional[int] = None
_configured_task_timeout: Optional[float] = None
#: Test/drill seam: called with the task at the top of every ``_compute``.
#: Installed in the parent before the pool spawns, it reaches workers via
#: fork — a hook that crashes the process exercises the recovery path.
_task_hook: Optional[Callable[[RunTask], None]] = None
#: When True, ``_compute`` attaches a per-callback wall-time profiler to
#: each run's engine and ships the snapshot back in the RunEvent.  Like
#: the task hook it must be set before the pool spawns (workers inherit
#: it via fork).
_profile_enabled = False
#: Directory for per-run observability artifacts (the CLI's ``--obs-dir``
#: flag); ``None`` disables export.  Artifacts are written in the parent
#: at yield time — task order — so serial and parallel sweeps produce
#: byte-identical directories, and cache hits export too (trace/metrics/
#: timeseries ride the cached ScenarioResult).
_configured_obs_dir: Optional[str] = None

#: Per-task resubmission budget after worker crashes or stalls.
DEFAULT_TASK_RETRIES = 2
#: First inter-round backoff (seconds); doubles per round, capped below.
_RETRY_BACKOFF = 0.25
_RETRY_BACKOFF_CAP = 2.0


def set_progress(callback: Optional[ProgressCallback]) -> None:
    """Install a process-wide progress hook (``None`` to remove it).

    Called once per completed run of every sweep that does not pass its
    own ``progress=`` callback; the CLI installs a stderr printer here.
    """
    global _progress_hook
    _progress_hook = callback


def set_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` to unset)."""
    global _configured_jobs
    if jobs is not None and jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    _configured_jobs = jobs


def set_task_timeout(seconds: Optional[float]) -> None:
    """Set the process-wide no-progress deadline (``None`` to unset).

    When set, a parallel sweep in which *no* task completes for this many
    seconds presumes the workers are hung, recycles the pool, and retries
    the unfinished tasks (within the retry budget).
    """
    global _configured_task_timeout
    if seconds is not None and seconds <= 0:
        raise ConfigurationError(
            f"task timeout must be positive, got {seconds!r}"
        )
    _configured_task_timeout = seconds


def set_profile(enabled: bool) -> None:
    """Turn per-callback wall-time profiling of sweep runs on or off.

    The CLI's ``--profile`` flag calls this.  Profiling makes the
    engine's dispatch loop read an injected clock around every callback
    (see :meth:`repro.sim.engine.Simulator.enable_profiling`), so fresh
    runs get slower; cached results are unaffected (and carry no profile).
    Set it *before* a sweep starts so forked workers inherit it.
    """
    global _profile_enabled
    _profile_enabled = bool(enabled)


def set_obs_dir(path: Optional[str]) -> None:
    """Export per-run obs artifacts of every sweep to ``path`` (None: off).

    The CLI's ``--obs-dir`` flag calls this.  Each sweep writes one
    trace/metrics/timeseries file per run (whichever the run's ObsConfig
    produced) plus a canonical ``manifest.json`` — see
    :class:`repro.obs.export.ObsDirWriter`.
    """
    global _configured_obs_dir
    _configured_obs_dir = path


def set_task_hook(hook: Optional[Callable[[RunTask], None]]) -> None:
    """Install the per-task worker hook (``None`` to remove it).

    Fault-injection seam for tests and the CI crash drill: the hook runs
    inside the worker at the top of every task computation.  Install it
    *before* the sweep starts so forked workers inherit it.
    """
    global _task_hook
    _task_hook = hook


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument > set_jobs() > $REPRO_JOBS > 1.

    ``0`` at any level resolves to the number of CPUs this process may
    run on — its affinity mask where the platform has one (``taskset``,
    ``docker --cpuset-cpus``, a pinned CI runner), else the host's count.
    """
    if jobs is None:
        jobs = _configured_jobs
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"REPRO_JOBS={raw!r} is not an integer") from exc
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    return jobs


def _compute(task: RunTask) -> Tuple[ScenarioResult, float, Tuple[ProfileRow, ...]]:
    """Worker entry point: run one task, timing it (picklable top-level).

    The clock injection happens here: this module is on the DET002
    exemption list, so it may hand ``time.perf_counter`` to the profile;
    the engine itself never imports :mod:`time`.
    """
    hook = _task_hook
    if hook is not None:
        hook(task)
    profile = CallbackProfile(time.perf_counter) if _profile_enabled else None
    start = time.perf_counter()
    result = run_scenario(task[0], task[1], profile=profile)
    seconds = time.perf_counter() - start
    rows = profile.snapshot() if profile is not None else ()
    return result, seconds, rows


def _emit(
    progress: Optional[ProgressCallback],
    index: int,
    total: int,
    task: RunTask,
    seconds: float,
    source: str,
    error: str = "",
    profile: Tuple[ProfileRow, ...] = (),
) -> None:
    if progress is not None:
        progress(RunEvent(
            index=index,
            total=total,
            controller=_controller_name(task[1]),
            seed=task[0].seed,
            seconds=seconds,
            source=source,
            error=error,
            profile=profile,
        ))


def _task_error(
    progress: Optional[ProgressCallback],
    index: int,
    total: int,
    task: RunTask,
    exc: BaseException,
) -> SweepTaskError:
    """A ``"failed"`` event plus the :class:`SweepTaskError` to raise.

    The error message carries the task's cache ``run_key`` so the failing
    run can be reproduced in isolation (``run_many`` on the same task
    alone recomputes exactly this run).
    """
    _emit(progress, index, total, task, 0.0, "failed", error=repr(exc))
    key = cache.run_key(task[0], task[1])
    return SweepTaskError(
        f"sweep task {index} ({_controller_name(task[1])}, seed "
        f"{task[0].seed}) failed deterministically: {exc!r} [run_key {key}]",
        task_index=index,
        run_key=key,
    )


def iter_run_results(
    tasks: Iterable[RunTask],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> Iterator[ScenarioResult]:
    """Yield one :class:`ScenarioResult` per task, in task order.

    The determinism contract: the yielded sequence is a pure function of
    the task list — identical for ``jobs=1`` and ``jobs=N``, with or
    without cache hits, and with or without worker crashes along the way.

    This is the only loop of a sweep.  It looks every task up in the
    cache, then pulls batches of completed misses — from :func:`_in_pool`
    when ``resolve_jobs(jobs)`` leaves more than one worker, else from
    :func:`_in_process` — until the next index is ready.  Every completion
    of a pulled batch is stored before anything is yielded (a killed
    sweep keeps its finished work) and reported as a ``"run"`` event.
    Nothing else keeps a yielded result: consumed lazily, the serial path
    holds one result at a time.

    A task that *raises* is never retried — that failure is deterministic,
    and the sweep aborts with a :class:`~repro.errors.SweepTaskError`
    naming the task's ``run_key``.  With :func:`set_obs_dir` configured,
    each run's artifacts are exported as it is yielded and a canonical
    manifest once the sweep is fully consumed; a sweep abandoned early
    (``close()``, an exception) shuts its pool down and writes none.
    """
    task_list = list(tasks)
    total = len(task_list)
    if progress is None:
        progress = _progress_hook
    obs_dir = _configured_obs_dir
    writer = ObsDirWriter(obs_dir) if obs_dir is not None else None
    ready: Dict[int, ScenarioResult] = {}
    misses: List[int] = []
    for i, task in enumerate(task_list):
        hit, source = cache.lookup(task[0], task[1])
        if hit is None:
            misses.append(i)
        else:
            ready[i] = hit
            _emit(progress, i, total, task, 0.0, source)
    workers = min(resolve_jobs(jobs), len(misses))
    if workers > 1:
        completions = _in_pool(task_list, misses, workers, progress)
    else:
        completions = _in_process(task_list, misses, progress)
    try:
        for i in range(total):
            while i not in ready:
                for j, (result, seconds, rows) in next(completions):
                    task = task_list[j]
                    cache.store(task[0], task[1], result)
                    _emit(progress, j, total, task, seconds, "run", profile=rows)
                    ready[j] = result
            result = ready.pop(i)
            if writer is not None and (
                result.trace is not None or result.metrics is not None
                or result.timeseries is not None
            ):
                writer.write_run(
                    i, result.controller_name, result.seed,
                    trace=result.trace, metrics=result.metrics,
                    timeseries=result.timeseries,
                )
            yield result
            del result  # not held while the next run computes
    finally:
        completions.close()
    if writer is not None:
        writer.write_manifest()


def _in_process(
    task_list: List[RunTask],
    indices: Sequence[int],
    progress: Optional[ProgressCallback],
) -> Generator[List[Completion], None, None]:
    """Compute ``indices`` here, in order, one per batch."""
    for i in indices:
        task = task_list[i]
        try:
            outcome = _compute(task)
        except Exception as exc:
            raise _task_error(progress, i, len(task_list), task, exc) from exc
        yield [(i, outcome)]


def _new_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """A fresh pool, or ``None`` when the platform can't provide one."""
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (NotImplementedError, OSError):
        return None


def _in_pool(
    task_list: List[RunTask],
    indices: Sequence[int],
    workers: int,
    progress: Optional[ProgressCallback],
) -> Generator[List[Completion], None, None]:
    """Compute ``indices`` on a process pool; yield each finished batch.

    A batch is every success of one ``wait()`` — the futures that had
    finished when it returned — so the caller stores them all at once.

    Crash recovery: a dead worker poisons every unfinished future of its
    pool with :class:`BrokenExecutor`, but futures that completed *before*
    the crash still hold their results — those are yielded, the broken
    pool is discarded, and only the still-outstanding indices are
    resubmitted to a fresh pool after a capped exponential backoff.  Each
    resubmission round charges one attempt to every outstanding task; a
    task over :data:`DEFAULT_TASK_RETRIES` attempts aborts the sweep with
    :class:`SweepWorkerError`.  A :func:`set_task_timeout` deadline with
    no completion is treated the same way (hung workers), except the
    stalled pool is abandoned without waiting for it.  When no pool can
    be had — at the start or at a respawn (a restricted sandbox) — the
    outstanding indices are computed in process instead.
    """
    total = len(task_list)
    task_timeout = _configured_task_timeout
    task_retries = DEFAULT_TASK_RETRIES
    outstanding = list(indices)
    # Keyed by the unfinished indices only: a yielded index leaves it.
    attempts = dict.fromkeys(outstanding, 0)
    pool = _new_pool(workers)
    try:
        while outstanding:
            if pool is None:
                yield from _in_process(task_list, outstanding, progress)
                return
            futures: Dict[Future, int] = {
                pool.submit(_compute, task_list[i]): i for i in outstanding
            }
            pending = set(futures)
            broken = False
            while pending and not broken:
                done, pending = wait(
                    pending, timeout=task_timeout, return_when=FIRST_COMPLETED
                )
                broken = not done  # no-progress deadline: presume hung
                batch: List[Completion] = []
                for future in done:
                    i = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        broken = True
                        continue  # keep harvesting this batch's successes
                    except Exception as exc:
                        raise _task_error(
                            progress, i, total, task_list[i], exc
                        ) from exc
                    del attempts[i]
                    batch.append((i, outcome))
                if batch:
                    yield batch
            outstanding = [i for i in outstanding if i in attempts]
            if not outstanding:
                break
            worst = 0
            for i in outstanding:
                attempts[i] += 1
                worst = max(worst, attempts[i])
            if worst > task_retries:
                over = [i for i in outstanding if attempts[i] > task_retries]
                raise SweepWorkerError(
                    f"worker pool kept failing: tasks {over} exceeded the "
                    f"retry budget of {task_retries}"
                )
            for i in outstanding:
                _emit(
                    progress, i, total, task_list[i], 0.0, "retry",
                    error=f"attempt {attempts[i] + 1} of {task_retries + 1}",
                )
            pool.shutdown(wait=False, cancel_futures=True)
            time.sleep(min(_RETRY_BACKOFF * 2.0 ** (worst - 1), _RETRY_BACKOFF_CAP))
            pool = _new_pool(workers)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def run_many(
    tasks: Iterable[RunTask],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[ScenarioResult]:
    """Materialized form of :func:`iter_run_results` (task-ordered list)."""
    return list(iter_run_results(tasks, jobs=jobs, progress=progress))


def replicate_many(
    pairs: Sequence[Tuple[ScenarioConfig, ControllerSpec]],
    seeds: Sequence[int] = (1,),
) -> List[ReplicatedResult]:
    """Multi-seed replications of many (config, spec) pairs, fanned out flat.

    The full ``len(pairs) × len(seeds)`` task grid goes through one
    :func:`iter_run_results` pass — a sweep with one seed per point still
    parallelizes across its points.  Results aggregate streamingly per
    pair, in pair order.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    tasks: List[RunTask] = [
        (config.with_seed(seed), spec)
        for config, spec in pairs
        for seed in seeds
    ]
    results = iter_run_results(tasks)
    out: List[ReplicatedResult] = []
    per_pair = len(seeds)
    for _ in pairs:
        chunk = islice(results, per_pair)
        out.append(ReplicatedResult.aggregate(chunk))
    # Run the generator to its end, not just to its last result: what
    # follows the final yield (the --obs-dir manifest) must happen too.
    if next(results, None) is not None:
        raise SweepError(f"sweep yielded more than its {len(tasks)} results")
    return out


class ProgressTracker:
    """Progress printer + timing accumulator for the CLI.

    Install with ``parallel.set_progress(tracker)``; each finished run
    prints one ``[i/N] controller seed s  ...`` line to ``stream``
    (``None`` keeps it silent), and :meth:`summary` renders the totals —
    runs computed, disk hits, compute vs. elapsed wall time.
    Lives in this module so that every wall-clock read stays on the
    DET002-exempt path.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream
        self.computed = 0
        self.disk_hits = 0
        self.failures = 0
        self.retries = 0
        self.run_seconds = 0.0
        #: Per-callback wall time folded from every profiled RunEvent.
        self.profile: Dict[str, Tuple[float, int]] = {}
        self._started = time.perf_counter()

    def __call__(self, event: RunEvent) -> None:
        if event.source == "run":
            self.computed += 1
            self.run_seconds += event.seconds
            if event.profile:
                merge_rows(self.profile, event.profile)
        elif event.source == "disk":
            self.disk_hits += 1
        elif event.source == "failed":
            self.failures += 1
        elif event.source == "retry":
            self.retries += 1
        if self.stream is not None:
            detail = f"{event.controller} seed {event.seed}"
            if event.error:
                detail = f"{detail}: {event.error}"
            if event.source == "run":
                outcome = f"{event.seconds:.2f}s"
            elif event.source == "disk":
                outcome = "(disk hit)"
            else:
                outcome = f"({event.source})"
            width = len(str(event.total))
            print(f"[{event.index + 1:>{width}}/{event.total}] {detail}  {outcome}",
                  file=self.stream, flush=True)

    def summary(self) -> str:
        """One-line totals for everything observed since construction."""
        # run_seconds sums across workers, so with --jobs N it can exceed
        # the elapsed time; the ratio is the achieved speedup.
        elapsed = time.perf_counter() - self._started
        line = (
            f"{self.computed + self.disk_hits} runs: {self.computed} simulated "
            f"({self.run_seconds:.2f}s cpu), {self.disk_hits} disk hits; "
            f"{elapsed:.2f}s elapsed"
        )
        if self.retries or self.failures:
            line += f" ({self.retries} retries, {self.failures} failures)"
        if self.profile:
            line += f"\nprofile (top callbacks): {format_rows(self.profile)}"
        return line
