"""Cross-module (XMOD) rules over the whole-program project model.

Each rule consumes the resolved :class:`~repro.lint.graph.ProjectModel`
and anchors its findings at real call sites, so a violation created by
the *composition* of two perfectly clean modules is reported where the
dangerous edge lives.  Rationale, precise semantics, and the suppression
policy for every code are documented in DESIGN.md §12.

All four rules scope their findings to ``src/`` — tests and benchmarks
may do what they like with pools, clocks, and streams; the library may
not.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lint.base import (
    WALLCLOCK_EXEMPT_PATH_PARTS,
    GraphChecker,
    GraphFinding,
    register_graph,
)
from repro.lint.graph import ProjectModel


@register_graph
class WorkerSchedulingChecker(GraphChecker):
    """XMOD001: engine state touched from process-pool worker context.

    Functions reachable from a worker entry point (``pool.submit``
    targets, ``__worker_entry_points__`` declarations, installed task
    hooks) run in forked processes; each run must stay hermetic.  Two
    things break that hermeticity and are flagged here:

    * scheduling onto a **module-global** receiver — an engine that
      outlives the run and is shared (or silently diverges) across
      workers, the ROADMAP's "callback registered in one module but
      scheduled from another" case;
    * writing **module globals** from worker-reachable code — parent and
      workers each mutate their own copy, so the sweep's outcome depends
      on which process computed which task.

    Scheduling on a *local or parameter* simulator is the sanctioned
    hermetic pattern (``run_scenario`` builds its own engine) and is
    never flagged.
    """

    code = "XMOD001"
    message = "worker-reachable code touches shared engine state"
    hint = (
        "keep worker tasks hermetic: build the Simulator inside the run "
        "and pass it down; hoist global mutation to the parent process, "
        "or suppress with `# noqa: XMOD001` / the committed baseline if "
        "the state is genuinely per-process"
    )
    only_path_parts = ("src/",)

    def check(self, model: ProjectModel) -> List[GraphFinding]:
        findings: List[GraphFinding] = []
        for qual in sorted(model.worker_reachable):
            info = model.functions.get(qual)
            if info is None or not self.applies_to(info.path):
                continue
            chain = model.entry_chain(qual)
            for sched in info.schedule_calls:
                if sched.receiver_kind == "global":
                    findings.append(self.finding(
                        info.path, sched.line, sched.col,
                        detail=(
                            f"{sched.receiver_name}.{sched.method} targets a "
                            f"module-global engine; worker path: {chain}"
                        ),
                        symbol=qual,
                    ))
            if info.global_writes:
                findings.append(self.finding(
                    info.path, info.line, 0,
                    detail=(
                        f"writes module global(s) "
                        f"{', '.join(info.global_writes)}; worker path: {chain}"
                    ),
                    symbol=qual,
                ))
        return findings


@register_graph
class StreamDomainChecker(GraphChecker):
    """XMOD002: one RNG stream drawn from two scheduling domains.

    ``RandomStreams.get`` memoizes per label, so every ``get("x")`` on a
    family aliases *one* generator project-wide; a generator stored on an
    instance is likewise one draw sequence.  If such an entity is drawn
    from two different scheduling domains — sim callbacks vs. worker
    tasks vs. the harness — the interleaving of the two consumers decides
    every subsequent draw, and the run is only reproducible by accident.

    Deriving a stream in one domain and drawing it in another is *not*
    flagged: handing a worker-constructed per-flow generator to sim
    callbacks is the sanctioned seeding pattern.  Only draw sites are
    domain-checked.
    """

    code = "XMOD002"
    message = "RNG stream drawn from multiple scheduling domains"
    hint = (
        "derive one stream per consumer with a distinct label "
        "(streams.get('faults'), streams.get('faults/loss/<port>')) so "
        "each domain owns its draw sequence; see DESIGN.md §12 before "
        "suppressing with `# noqa: XMOD002`"
    )
    only_path_parts = ("src/",)

    def check(self, model: ProjectModel) -> List[GraphFinding]:
        # entity key -> sorted draw records (path, line, col, qual, domain)
        draws: Dict[str, List[Tuple[str, int, int, str, str]]] = {}
        for qual in sorted(model.functions):
            info = model.functions[qual]
            domain = model.domain_of(qual)
            for event in info.stream_events:
                if event.kind != "draw":
                    continue
                draws.setdefault(event.key, []).append(
                    (info.path, event.line, event.col, qual, domain)
                )
        findings: List[GraphFinding] = []
        for key in sorted(draws):
            sites = sorted(draws[key])
            domains = sorted({site[4] for site in sites})
            if len(domains) < 2:
                continue
            representatives = []
            for domain in domains:
                first = next(site for site in sites if site[4] == domain)
                representatives.append(
                    f"{domain}: {first[0]}:{first[1]} in {first[3]}"
                )
            anchor = sites[0]
            if not self.applies_to(anchor[0]):
                continue
            findings.append(self.finding(
                anchor[0], anchor[1], anchor[2],
                detail=f"entity {key} drawn in {'; '.join(representatives)}",
                symbol=anchor[3],
            ))
        return findings


@register_graph
class TransitiveWallClockChecker(GraphChecker):
    """XMOD003: wall-clock reads reachable from simulator callbacks.

    DET001/DET002 flag ambient-state reads where they are *written*; this
    rule flags them where they are *called from* — a helper that reads
    ``time.time()`` taints every caller transitively, and each call edge
    from sim-callback-reachable code into a tainted function is reported
    at the call site.  Taint neither originates in nor flows through the
    sanctioned wall-clock modules (the DET002 exemption list: benchmarks
    and the parallel sweep runner), so timing a sweep from the harness
    stays legal while timing *inside* the event loop does not.
    """

    code = "XMOD003"
    message = "sim-reachable call into wall-clock-tainted code"
    hint = (
        "derive time from Simulator.now inside the event loop; move "
        "wall-clock measurement to the harness (or a DET002-exempt "
        "module); suppress a sanctioned edge with `# noqa: XMOD003`"
    )
    only_path_parts = ("src/",)

    @staticmethod
    def _exempt(path: str) -> bool:
        normalized = path.replace("\\", "/")
        return any(part in normalized for part in WALLCLOCK_EXEMPT_PATH_PARTS)

    def _tainted(self, model: ProjectModel) -> Set[str]:
        """Fixpoint: non-exempt functions that transitively read the clock."""
        tainted: Set[str] = set()
        for qual, info in model.functions.items():
            if info.wallclock and not self._exempt(info.path):
                tainted.add(qual)
        callers: Dict[str, Set[str]] = {}
        for qual, info in model.functions.items():
            for callee in info.callees:
                callers.setdefault(callee, set()).add(qual)
        queue = sorted(tainted)
        while queue:
            current = queue.pop(0)
            for caller in sorted(callers.get(current, ())):
                if caller in tainted:
                    continue
                info = model.functions.get(caller)
                if info is None or self._exempt(info.path):
                    continue  # sanctioned modules absorb the taint
                tainted.add(caller)
                queue.append(caller)
        return tainted

    def check(self, model: ProjectModel) -> List[GraphFinding]:
        tainted = self._tainted(model)
        if not tainted:
            return []
        findings: List[GraphFinding] = []
        for qual in sorted(model.callback_reachable):
            info = model.functions.get(qual)
            if info is None or not self.applies_to(info.path):
                continue
            if self._exempt(info.path):
                continue
            for call in info.calls:
                bad = sorted(set(call.targets) & tainted)
                if bad:
                    findings.append(self.finding(
                        info.path, call.line, call.col,
                        detail=(
                            f"{call.raw} reaches wall clock via {bad[0]}"
                        ),
                        symbol=qual,
                    ))
        return findings


@register_graph
class SchedulingSwallowChecker(GraphChecker):
    """XMOD004: broad handler swallowing a cross-module scheduling edge.

    A ``try`` body that calls into *scheduling* code in another module,
    wrapped by a bare/``Exception``/``BaseException`` handler that never
    re-raises, silently discards failures of event registration: the sim
    keeps running with a partially-built calendar and produces plausible
    but wrong numbers — worse than crashing.  ERR001/ERR002 catch the
    per-module shape; this rule catches the handler in module A guarding
    a call edge into module B.
    """

    code = "XMOD004"
    message = "broad handler swallows cross-module scheduling call"
    hint = (
        "catch the narrow exception type, or re-raise after cleanup "
        "(`raise`/`raise X from exc`); a deliberately-best-effort edge "
        "needs `# noqa: XMOD004` and a comment saying why losing the "
        "event is safe"
    )
    only_path_parts = ("src/",)

    def check(self, model: ProjectModel) -> List[GraphFinding]:
        schedulers = model.schedulers
        findings: List[GraphFinding] = []
        for qual in sorted(model.functions):
            info = model.functions[qual]
            if not self.applies_to(info.path):
                continue
            for handler in info.handlers:
                if handler.reraises:
                    continue
                cross = sorted(
                    target for target in handler.guarded_targets
                    if target in schedulers
                    and model.functions.get(target) is not None
                    and model.functions[target].module != info.module
                )
                if cross:
                    findings.append(self.finding(
                        info.path, handler.line, handler.col,
                        detail=(
                            f"except {handler.clause} guards scheduling "
                            f"call into {cross[0]}"
                        ),
                        symbol=qual,
                    ))
        return findings
