"""Unit tests for the persistent result cache and the parallel sweep runner.

Covers the disk cache's contract (content-addressed keys stable across
processes, corruption tolerance, ``clear_cache``) and the parallel
runner's determinism contract (``jobs=4`` output byte-identical to
serial, task-ordered progress events, streaming replication).
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro import canonical
from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.errors import ConfigurationError
from repro.experiments import cache, parallel
from repro.experiments.figures import loss_load_curves
from repro.experiments.report import format_curves
from repro.experiments.runner import MbacConfig, ScenarioConfig
from repro.experiments.scenarios import get_scenario
from repro.faults.model import FaultConfig
from repro.obs import ObsConfig
from repro.units import mbps

FAST = dict(duration=60.0, warmup=20.0, lifetime_mean=20.0,
            link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)


#: A traced run keeps a few dozen trace lines; one whose only category
#: never fires keeps none, so its trace is ``[]`` rather than ``None``.
TRACED = ObsConfig(trace=True, max_records=32)
NO_RECORDS = ObsConfig(trace=True, categories=("no-such-category",))


def fast_config(seed: int = 1, obs=None) -> ScenarioConfig:
    return ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed,
                          obs=obs, **FAST)


class TestRunKey:
    def test_stable_within_process(self):
        config = fast_config()
        assert cache.run_key(config, DESIGN) == cache.run_key(config, DESIGN)

    def test_distinguishes_seed_and_controller(self):
        keys = {
            cache.run_key(fast_config(1), DESIGN),
            cache.run_key(fast_config(2), DESIGN),
            cache.run_key(fast_config(1), DESIGN.with_epsilon(0.05)),
            cache.run_key(fast_config(1), None),
        }
        assert len(keys) == 4

    def test_key_bytes_pinned(self, monkeypatch):
        """Three literals computed before ``_canonical`` went leaves-first,
        with the code fingerprint held constant: the canonical form — and
        so every key of every existing cache directory — did not move."""
        monkeypatch.setattr(cache, "code_fingerprint", lambda: "pinned")
        config = get_scenario("basic").config(scale=0.002, seed=1)
        flaky = replace(
            config, faults=FaultConfig(flap_every=30.0, start=config.warmup)
        )
        assert [
            cache.run_key(config, DESIGN),
            cache.run_key(config, MbacConfig(0.9)),
            cache.run_key(flaky, DESIGN),
        ] == [
            "0c91923a90983a6c192542a8c8adb1cd1a9deaec943560ac61efcdf070308e23",
            "2b165b0a3fcf61f10a9073e04a30ffa0ff392e472468ab165290bb1f59424ffc",
            "abc4098dd15eb7ac062e51a8a80addf19fe20f2ab88c09633b156e3135bf4ca0",
        ]

    def test_stable_across_processes(self):
        """The disk tier only works if a fresh interpreter derives the
        same key for the same (config, design) — no id()/hash() leakage."""
        script = (
            "from repro.core.design import CongestionSignal, EndpointDesign, "
            "ProbeBand, ProbingScheme\n"
            "from repro.experiments import cache\n"
            "from repro.experiments.runner import ScenarioConfig\n"
            "from repro.units import mbps\n"
            "config = ScenarioConfig(source='EXP1', interarrival=2.0, seed=7,\n"
            "                        duration=60.0, warmup=20.0,\n"
            "                        lifetime_mean=20.0, link_rate_bps=mbps(2))\n"
            "design = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,\n"
            "                        ProbingScheme.SLOW_START, epsilon=0.02)\n"
            "print(cache.run_key(config, design))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        here = cache.run_key(
            fast_config(7), DESIGN.with_epsilon(0.02)
        )
        assert child.stdout.strip() == here


class TestDiskCache:
    def test_disabled_without_directory(self):
        assert cache.get_cache_dir() is None
        parallel.run_many([(fast_config(), DESIGN)])
        assert cache.disk_cache_size() == 0

    def test_suite_never_touches_the_callers_cache(self, tmp_path):
        """The library never reads ``REPRO_CACHE_DIR``: a suite run with
        it exported leaves the caller's cache directory empty."""
        user_cache = tmp_path / "user-cache"
        user_cache.mkdir()
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, REPRO_CACHE_DIR=str(user_cache),
                   PYTHONPATH=str(root / "src"))
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/unit/test_experiments_misc.py::TestLossLoad::"
             "test_eac_curve_has_point_per_epsilon"],
            cwd=root, env=env, capture_output=True, check=True,
        )
        assert list(user_cache.iterdir()) == []

    def test_disabled_tier_never_fingerprints(self, monkeypatch, tmp_path):
        """The key (and the AST-walking code fingerprint under it) is disk
        business: with the tier off nothing may compute it; with a
        directory set the entry is still named by ``run_key``."""
        def fingerprint():
            raise AssertionError("fingerprinted with the disk tier off")

        config = fast_config()
        with monkeypatch.context() as patched:
            patched.setattr(cache, "code_fingerprint", fingerprint)
            assert cache.lookup(config, DESIGN) == (None, "miss")
            (result,) = parallel.run_many([(config, DESIGN)])
            cache.store(config, DESIGN, result)
        cache.set_cache_dir(tmp_path)
        cache.store(config, DESIGN, result)
        (entry,) = tmp_path.iterdir()
        assert entry.name == f"{cache.run_key(config, DESIGN)}.json"
        assert json.loads(entry.read_text())["key"] == entry.stem

    def test_miss_compute_then_disk_hit(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        config = fast_config()
        (computed,) = parallel.run_many([(config, DESIGN)])
        assert cache.disk_cache_size() == 1
        loaded, tier = cache.lookup(config, DESIGN)
        assert tier == "disk"
        assert loaded == computed  # dataclass-equal after the JSON round trip
        # Nothing is kept in the process: every lookup reads the file anew.
        again, tier = cache.lookup(config, DESIGN)
        assert tier == "disk" and again == loaded and again is not loaded

    @pytest.mark.parametrize("obs, expected", [
        (None, None), (NO_RECORDS, []), (TRACED, "stored"),
    ], ids=["untraced", "no-records", "traced"])
    def test_trace_round_trips(self, tmp_path, obs, expected):
        """The trace comes back as stored: ``None`` untraced, ``[]`` with no
        records, else the entry's lines after its header, byte for byte."""
        cache.set_cache_dir(tmp_path)
        config = fast_config(obs=obs)
        (computed,) = parallel.run_many([(config, DESIGN)])
        (entry,) = tmp_path.glob("*.json")
        lines = entry.read_text().split("\n")[1:-1]
        loaded, tier = cache.lookup(config, DESIGN)
        assert tier == "disk" and loaded == computed
        if expected == "stored":
            assert len(lines) > 1 and loaded.trace == lines == computed.trace
        else:
            assert loaded.trace == computed.trace == expected and lines == []

    def test_entry_bytes_depend_only_on_the_result(self, tmp_path):
        """No timestamp, pid or path inside: two stores, identical files."""
        config = fast_config()
        (result,) = parallel.run_many([(config, DESIGN)])
        entries = []
        for name in ("first", "second"):
            cache.set_cache_dir(tmp_path / name)
            cache.store(config, DESIGN, result)
            (entry,) = (tmp_path / name).glob("*.json")
            entries.append((entry.name, entry.read_bytes()))
        assert entries[0] == entries[1]

    def test_corrupt_file_recovered(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        config = fast_config()
        (computed,) = parallel.run_many([(config, DESIGN)])
        entry = next(Path(tmp_path).glob("*.json"))
        entry.write_text("{definitely not json")
        assert parallel.run_many([(config, DESIGN)]) == [computed]
        # The bad file was evicted and replaced with a valid one.
        assert json.loads(entry.read_text())["schema"] == cache.SCHEMA_VERSION

    def test_wrong_schema_discarded(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        config = fast_config()
        parallel.run_many([(config, DESIGN)])
        entry = next(Path(tmp_path).glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["schema"] = cache.SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))
        assert cache.lookup(config, DESIGN) == (None, "miss")

    def test_clear_cache_empties_the_directory(self, tmp_path):
        """Entries go, and so does the temp file of a writer killed before
        its rename, which ``disk_cache_size`` never counted."""
        cache.set_cache_dir(tmp_path)
        parallel.run_many([(fast_config(), DESIGN)])
        (entry,) = tmp_path.glob("*.json")
        stray = entry.with_name(f"{entry.name}.tmp4242")
        stray.write_text(entry.read_text()[:100])
        cache.clear_cache(disk=False)  # kept for old callers: does nothing
        assert cache.disk_cache_size() == 1
        cache.clear_cache()
        assert cache.disk_cache_size() == 0
        assert list(tmp_path.iterdir()) == []


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert parallel.resolve_jobs() == 1

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        parallel.set_jobs(2)
        assert parallel.resolve_jobs(3) == 3

    def test_set_jobs_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        parallel.set_jobs(2)
        assert parallel.resolve_jobs() == 2

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert parallel.resolve_jobs() == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        """0 is the CPUs this process may use (its affinity mask), not the
        host's count; platforms without a mask fall back to ``cpu_count``."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parallel.resolve_jobs(0) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            parallel.resolve_jobs(-1)
        with pytest.raises(ConfigurationError):
            parallel.set_jobs(-2)

    def test_rejects_bad_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ConfigurationError):
            parallel.resolve_jobs()


class TestParallelDeterminism:
    def test_jobs4_byte_identical_to_serial(self, tmp_path):
        """A figure sweep rendered from a 4-worker run is byte-for-byte
        the text rendered from a serial run (and fills the same cache).
        Scale 0.3 keeps two seeds per point and two points per curve."""
        config = fast_config()

        parallel.set_jobs(1)
        cache.set_cache_dir(tmp_path / "serial")
        serial = loss_load_curves(config, 0.3, [DESIGN], narrow=True)
        serial_keys = sorted(p.name for p in (tmp_path / "serial").glob("*.json"))

        parallel.set_jobs(4)
        cache.set_cache_dir(tmp_path / "pool")
        pooled = loss_load_curves(config, 0.3, [DESIGN], narrow=True)
        pooled_keys = sorted(p.name for p in (tmp_path / "pool").glob("*.json"))

        assert format_curves(pooled) == format_curves(serial)
        assert pooled_keys == serial_keys
        assert len(serial_keys) == 8  # (MBAC + DESIGN) x 2 points x 2 seeds

    def test_progress_events_are_task_ordered(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        events = []
        tasks = [(fast_config(seed), DESIGN) for seed in (1, 2, 3)]
        results = parallel.run_many(tasks, jobs=2, progress=events.append)
        assert len(results) == 3
        assert sorted(e.index for e in events) == [0, 1, 2]
        assert {e.total for e in events} == {3}
        assert {e.source for e in events} == {"run"}
        # Second pass: everything is a disk hit, reported in task order.
        events.clear()
        parallel.run_many(tasks, jobs=2, progress=events.append)
        assert [e.index for e in events] == [0, 1, 2]
        assert {e.source for e in events} == {"disk"}

    def test_streamed_results_are_not_retained(self):
        """With the cache off, the sweep keeps nothing it has yielded, so
        a streaming consumer (``ReplicatedResult.aggregate``) holds one
        run at a time."""
        tasks = [(fast_config(seed), DESIGN) for seed in (1, 2, 3)]
        refs = [weakref.ref(r) for r in parallel.iter_run_results(tasks)]
        gc.collect()
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]

    def test_replicate_many_streams_by_default(self):
        (rep,) = parallel.replicate_many([(fast_config(), DESIGN)], seeds=(1, 2))
        assert rep.n_runs == 2
        assert not hasattr(rep, "runs")  # the aggregate retains no run
        # A caller that wants the per-seed results asks run_many for them.
        kept = parallel.run_many([(fast_config(s), DESIGN) for s in (1, 2)])
        assert len(kept) == 2
        assert sum(r.utilization for r in kept) / 2 == rep.utilization
        assert sum(r.loss_probability for r in kept) / 2 == rep.loss_probability
        assert [r.seed for r in kept] == rep.seeds == [1, 2]


class TestProgressTracker:
    def test_counts_and_summary(self, capsys, tmp_path):
        cache.set_cache_dir(tmp_path)
        tracker = parallel.ProgressTracker(stream=sys.stderr)
        tasks = [(fast_config(9), DESIGN)]
        parallel.run_many(tasks, progress=tracker)
        parallel.run_many(tasks, progress=tracker)
        assert tracker.computed == 1
        assert tracker.disk_hits == 1
        summary = tracker.summary()
        assert "2 runs: 1 simulated" in summary
        assert "1 disk hits" in summary
        err = capsys.readouterr().err
        assert "[1/1]" in err and "(disk hit)" in err


class TestDiskPartialWrites:
    """Interrupted writes (crash mid-store) must degrade to a cache miss.

    The writer is atomic (temp file + rename), but a kill can still leave
    a zero-byte entry from a foreign tool, a truncated file from a torn
    copy, or an orphaned ``.tmp<pid>`` from a worker that died before its
    rename.  None of these may crash a sweep or be served as a result.
    """

    def _seed_entry(self, tmp_path, obs=None):
        cache.set_cache_dir(tmp_path)
        config = fast_config(obs=obs)
        (computed,) = parallel.run_many([(config, DESIGN)])
        entry = next(Path(tmp_path).glob("*.json"))
        return config, computed, entry

    def test_zero_byte_entry_is_a_miss_and_heals(self, tmp_path):
        config, computed, entry = self._seed_entry(tmp_path)
        entry.write_text("")
        assert cache.lookup(config, DESIGN) == (None, "miss")
        assert not entry.exists()  # the unreadable file was evicted
        assert parallel.run_many([(config, DESIGN)]) == [computed]
        assert json.loads(entry.read_text())["schema"] == cache.SCHEMA_VERSION

    def test_truncated_entry_is_a_miss_and_heals(self, tmp_path):
        config, computed, entry = self._seed_entry(tmp_path)
        whole = entry.read_text()
        entry.write_text(whole[: len(whole) // 2])
        assert cache.lookup(config, DESIGN) == (None, "miss")
        assert not entry.exists()
        assert parallel.run_many([(config, DESIGN)]) == [computed]

    @pytest.mark.parametrize("cut", [
        lambda whole: whole[: len(whole) // 2],
        # Whole trace lines lost: the count disagrees with the header.
        lambda whole: whole[: whole.rindex("\n", 0, -1) + 1],
        # The last trace line cut short: the file lacks its final newline.
        lambda whole: whole[:-2],
    ], ids=["half", "last-line-lost", "inside-last-line"])
    def test_traced_entry_cut_short_is_a_miss_and_heals(self, tmp_path, cut):
        config, computed, entry = self._seed_entry(tmp_path, TRACED)
        whole = entry.read_text()
        assert whole.index("\n") < len(cut(whole))  # the cut is in the trace
        entry.write_text(cut(whole))
        assert cache.lookup(config, DESIGN) == (None, "miss")
        assert not entry.exists()
        assert parallel.run_many([(config, DESIGN)]) == [computed]

    @pytest.mark.parametrize("obs", [None, TRACED], ids=["untraced", "traced"])
    def test_single_document_entry_is_a_miss(self, tmp_path, obs):
        """An entry in the older layout — one JSON document, the trace an
        escaped list inside ``result`` — is evicted, never misread."""
        config, computed, entry = self._seed_entry(tmp_path, obs)
        entry.write_text(canonical.dumps({
            "schema": cache.SCHEMA_VERSION, "key": entry.stem,
            "controller": computed.controller_name, "seed": computed.seed,
            "result": asdict(computed),
        }))
        assert cache.lookup(config, DESIGN) == (None, "miss")
        assert not entry.exists()

    def test_entry_missing_result_field_is_a_miss(self, tmp_path):
        config, computed, entry = self._seed_entry(tmp_path)
        payload = json.loads(entry.read_text())
        del payload["result"]
        entry.write_text(json.dumps(payload))  # valid JSON, wrong shape
        assert cache.lookup(config, DESIGN) == (None, "miss")
        assert parallel.run_many([(config, DESIGN)]) == [computed]

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A full or read-only directory degrades to compute-always without
        leaving ``<key>.json.tmp<pid>`` files nothing would ever remove."""
        real_replace = os.replace
        failures = []

        def failing_replace(src, dst):
            if not failures:
                failures.append(src)
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        cache.set_cache_dir(tmp_path)
        config = fast_config()
        (computed,) = parallel.run_many([(config, DESIGN)])
        assert len(failures) == 1
        assert list(tmp_path.iterdir()) == []
        # Only the disk write was lost; the next store goes through.
        assert cache.lookup(config, DESIGN) == (None, "miss")
        cache.store(config, DESIGN, computed)
        assert cache.disk_cache_size() == 1

    def test_orphaned_tmp_file_is_inert(self, tmp_path):
        config, computed, entry = self._seed_entry(tmp_path)
        orphan = entry.with_name(f"{entry.name}.tmp99999")
        orphan.write_text("{partial write from a dead work")
        # The orphan is neither counted nor read; the real entry serves.
        assert cache.disk_cache_size() == 1
        loaded, tier = cache.lookup(config, DESIGN)
        assert tier == "disk"
        assert loaded == computed
        # A fresh store over the same key leaves the orphan untouched.
        cache.store(config, DESIGN, computed)
        assert orphan.exists()
        assert json.loads(entry.read_text())["schema"] == cache.SCHEMA_VERSION
