"""Names, units and directions of every metric; the text of BENCHMARK.json.

``BENCHMARK.json`` at the repo root is ``render()`` written out
(``python -m bench.metrics > BENCHMARK.json``); a self-test keeps the two
equal, and others check that a run emits exactly these names.

``failed_share`` is the sixth end-to-end metric of the issue.  It is 0 on a
healthy tree, and the contract wants bounded metrics that are never 0, so a
run reports it through the contract's ``attempted`` / ``failed`` keys and
the full set prints it per workload; it has no entry below.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

#: Seconds one run measures for (the contract's ``run_seconds``).
RUN_SECONDS = 8

#: (name, unit, better, bound).  Times are reference-host seconds
#: (bench.host).  The issue asked for 0.10 on the three time metrics; ten
#: runs with ten seeds spread (interquartile / median) 2-7 % on four
#: workloads and 6-12 % on sweep-warm, whose 6000 file reads per second
#: feel the host's I/O path, which the calibration loop cannot see.  A bound
#: holds for every workload, so it is the widest the contract allows;
#: bench.compare prints ratios and quartiles for finer judgement.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("sim_rate", "sim_s/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

_COUNTS = [
    "sim.events", "sim.scheduled", "sim.cancelled", "sim.compactions",
    "net.pkts_tx", "net.fault_drops", "core.flows_offered",
    "core.flows_admitted", "core.probe_retries", "core.timed_out",
    "faults.applied", "mbac.samples", "experiments.tasks",
]

#: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = (
    [(name, "count", "lower") for name in _COUNTS]
    + [
        ("experiments.disk_hits", "count", "higher"),
        ("experiments.cache_bytes", "bytes", "lower"),
        ("obs.trace_records", "count", "lower"),
        ("obs.export_bytes", "bytes", "lower"),
        ("sim.events_per_pkt", "1/pkt", "lower"),
        ("sim.cancel_share", "ratio", "lower"),
        # The ledger of the traced call: these rows sum to trace.wall_s.
        ("traffic.cb_s", "s", "lower"),
        ("net.cb_s", "s", "lower"),
        ("core.cb_s", "s", "lower"),
        ("mbac.cb_s", "s", "lower"),
        ("faults.cb_s", "s", "lower"),
        ("obs.cb_s", "s", "lower"),
        ("other.cb_s", "s", "lower"),
        ("sim.loop_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("run.build_s", "s", "lower"),
        ("experiments.lookup_s", "s", "lower"),
        ("experiments.store_s", "s", "lower"),
        ("obs.export_s", "s", "lower"),
        ("experiments.other_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        # Isolated drivers (bench.layers); 0 where not measured.
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.ns_per_cancel", "ns", "lower"),
        ("net.ns_per_pkt_fifo", "ns", "lower"),
        ("net.ns_per_pkt_prio_vq", "ns", "lower"),
        ("net.ns_per_pkt_3hop", "ns", "lower"),
        ("traffic.ns_per_pkt_onoff", "ns", "lower"),
        ("core.us_per_decision", "us", "lower"),
        ("mbac.us_per_decision", "us", "lower"),
        ("experiments.run_key_us", "us", "lower"),
        ("experiments.fingerprint_ms", "ms", "lower"),
        ("experiments.disk_store_us", "us", "lower"),
        ("experiments.disk_hit_us", "us", "lower"),
        ("experiments.memo_hit_us", "us", "lower"),
        ("experiments.pickle_us", "us", "lower"),
        ("experiments.jobs2_wall_s", "s", "lower"),
        ("experiments.jobs2_speedup", "ratio", "higher"),
        ("obs.trace_on_ratio", "ratio", "lower"),
        ("obs.timeseries_on_ratio", "ratio", "lower"),
        ("obs.export_ms_per_run", "ms", "lower"),
        # The host while the traced run was measured (raw seconds).
        ("host.raw_wall_s", "s", "lower"),
        ("host.calib_s", "s", "lower"),
        ("host.calib_drift", "ratio", "lower"),
    ]
)

#: Per-layer metrics that repeat exactly and compare with tolerance 0.
#: ``experiments.cache_bytes`` is not among them: every cache entry carries
#: ``created_unix``, a float whose printed length varies by a few bytes.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count") + (
    "obs.export_bytes", "sim.events_per_pkt", "sim.cancel_share",
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
    "failed_share": "fraction",
}


def render() -> str:
    """The text of ``BENCHMARK.json``."""
    from bench.workloads import all_workloads

    spec: Dict[str, Any] = {
        "command": ["python3", "-m", "bench", "run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in all_workloads().values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
    return json.dumps(spec, indent=2) + "\n"


if __name__ == "__main__":
    print(render(), end="")
