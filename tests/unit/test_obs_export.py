"""Sweep artifact export (``--obs-dir``) and merge validation contracts.

The export guarantee: a serial sweep and a ``--jobs 4`` sweep of the
same task list write byte-identical directories — artifacts and
``manifest.json`` alike — because everything is keyed on the task index
and serialized canonically with no wall-clock fields.  The merge
guarantee: malformed inputs (pre-v2 records, shared recorder ids,
unordered streams) fail loudly instead of producing a plausible but
non-canonical stream.
"""

import json
from pathlib import Path

import pytest

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.errors import ReproError
from repro.experiments import cache, cli, parallel
from repro.experiments.runner import ScenarioConfig
from repro.obs import ObsConfig, ObsDirWriter, TraceRecorder
from repro.obs import cli as obs_cli
from repro.obs.export import sanitize_name
from repro.obs.merge import merge_streams
from repro.units import mbps

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)

OBS = ObsConfig(timeseries=True, timeseries_interval=10.0,
                sample_every=(("tx", 200),))


def fast_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed,
                          duration=60.0, warmup=20.0, lifetime_mean=20.0,
                          link_rate_bps=mbps(2), obs=OBS)


def _dir_bytes(directory):
    if not directory.exists():
        return {}
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestObsDirDoesNotLeak:
    """``--obs-dir`` is process-wide state; conftest resets it per test."""

    @pytest.fixture(scope="class")
    def cli_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-obs") / "out"

    def test_cli_run_exports_into_the_obs_dir(self, cli_dir, monkeypatch,
                                              capsys):
        # Keep the CLI's configuration of the sweep runner, shrink its task.
        real_run_many = parallel.run_many
        monkeypatch.setattr(
            parallel, "run_many",
            lambda tasks, **kw: real_run_many([(fast_config(1), DESIGN)], **kw),
        )
        assert cli.main(["run", "basic", "--design", "drop/in-band",
                         "--no-cache", "--obs-dir", str(cli_dir)]) == 0
        assert "manifest.json" in _dir_bytes(cli_dir)

    def test_following_bare_sweep_writes_nothing(self, cli_dir):
        # Meaningful after the test above (file order); alone it is vacuous.
        before = _dir_bytes(cli_dir)
        parallel.run_many([(fast_config(2), DESIGN)], jobs=1)
        assert _dir_bytes(cli_dir) == before


def _cli_run(monkeypatch, *flags):
    """``repro-eac run`` with the CLI's own flags but a small task."""
    real_run_many = parallel.run_many
    monkeypatch.setattr(
        parallel, "run_many",
        lambda tasks, **kw: real_run_many([(fast_config(1), DESIGN)], **kw),
    )
    return cli.main(["run", "basic", "--design", "drop/in-band",
                     "--no-cache", *flags])


def _torn_write_text(monkeypatch):
    """Make ``Path.write_text`` write half its text, then fail."""
    real_write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", torn)


class TestPerFileArtifacts:
    """``run --trace/--metrics/--timeseries PATH`` and ``merge -o`` write
    the ``--obs-dir`` encoding, and a failed write leaves no file."""

    def test_per_file_outputs_equal_obs_dir_files(self, tmp_path, monkeypatch):
        obs_dir = tmp_path / "obs"
        assert _cli_run(monkeypatch,
                        "--trace", str(tmp_path / "run.trace.jsonl"),
                        "--metrics", str(tmp_path / "run.metrics.json"),
                        "--timeseries", str(tmp_path / "run.timeseries.json"),
                        "--obs-dir", str(obs_dir)) == 0
        for suffix in ("trace.jsonl", "metrics.json", "timeseries.json"):
            per_file = (tmp_path / f"run.{suffix}").read_bytes()
            exported = (obs_dir / f"0000-drop-in-band-slow-start-s1.{suffix}")
            assert len(per_file) > 2, suffix
            assert per_file == exported.read_bytes(), suffix

    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--timeseries"])
    def test_failed_run_write_leaves_no_file(self, tmp_path, monkeypatch,
                                             flag):
        target = tmp_path / "out" / "artifact"
        target.parent.mkdir()
        _torn_write_text(monkeypatch)
        with pytest.raises(OSError):
            _cli_run(monkeypatch, flag, str(target))
        assert list(target.parent.iterdir()) == []

    def test_failed_merge_write_leaves_no_file(self, tmp_path, monkeypatch):
        source = tmp_path / "a.jsonl"
        source.write_text("\n".join(_trace_lines("a", EVENTS)) + "\n")
        target = tmp_path / "out" / "merged.jsonl"
        target.parent.mkdir()
        _torn_write_text(monkeypatch)
        with pytest.raises(OSError):
            obs_cli.run_merge([str(source)], str(target))
        assert list(target.parent.iterdir()) == []


class TestSanitizeName:
    def test_slug_rules(self):
        assert sanitize_name("drop/in-band/slow-start") == \
            "drop-in-band-slow-start"
        assert sanitize_name("a  b//c") == "a-b-c"
        assert sanitize_name("///") == "run"
        assert sanitize_name("v1.2_ok") == "v1.2_ok"


def _trace_lines(recorder_id, events):
    rec = TraceRecorder(ObsConfig(), recorder_id=recorder_id)
    for category, t, fields in events:
        rec.emit(category, t, **fields)
    return rec.lines()


EVENTS = [("probe", 1.0, dict(event="start", flow=1)),
          ("probe", 2.0, dict(event="admit", flow=1))]


class TestMergeValidation:
    def test_missing_recorder_rejected(self):
        legacy = ['{"v":1,"i":0,"t":0.5,"cat":"probe"}']
        with pytest.raises(ReproError, match="recorder"):
            merge_streams([legacy])

    def test_shared_recorder_rejected(self):
        a = _trace_lines("same", EVENTS)
        b = _trace_lines("same", EVENTS)
        with pytest.raises(ReproError, match="both stream"):
            merge_streams([a, b])

    def test_unordered_stream_rejected(self):
        lines = _trace_lines("r", EVENTS)
        with pytest.raises(ReproError, match="not ordered"):
            merge_streams([list(reversed(lines))])

    def test_empty_and_single_stream(self):
        assert merge_streams([]) == []
        lines = _trace_lines("r", EVENTS)
        assert merge_streams([lines]) == lines


class TestObsDirWriter:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        writer = ObsDirWriter(tmp_path)
        trace = _trace_lines("run-a", EVENTS)
        name = writer.write_run(0, "drop/in-band", 1, trace=trace,
                                timeseries={"v": 1, "t": [0.0],
                                            "series": {"x": [1.0]}})
        assert name == "0000-drop-in-band-s1"
        writer.write_run(1, "drop/in-band", 2, metrics={"counters": []})
        manifest_path = writer.write_manifest()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["v"] == 1
        assert [r["name"] for r in manifest["runs"]] == [
            "0000-drop-in-band-s1", "0001-drop-in-band-s2"]
        first = manifest["runs"][0]["files"]
        assert set(first) == {"trace", "timeseries"}
        assert first["trace"]["records"] == len(trace)
        trace_file = tmp_path / first["trace"]["path"]
        assert trace_file.read_text() == "\n".join(trace) + "\n"
        assert set(manifest["runs"][1]["files"]) == {"metrics"}

    def test_artifact_free_run_still_listed(self, tmp_path):
        writer = ObsDirWriter(tmp_path)
        writer.write_run(0, "c", 1)
        manifest = json.loads(writer.write_manifest().read_text())
        assert manifest["runs"][0]["files"] == {}


class TestSweepExport:
    def _sweep(self, directory, jobs, progress=None):
        parallel.set_obs_dir(str(directory))
        try:
            tasks = [(fast_config(seed), DESIGN) for seed in (1, 2)]
            parallel.run_many(tasks, jobs=jobs, progress=progress)
        finally:
            parallel.set_obs_dir(None)

    def test_serial_vs_jobs_byte_identical_dirs(self, tmp_path):
        self._sweep(tmp_path / "serial", jobs=1)
        self._sweep(tmp_path / "pooled", jobs=2)
        serial_files = sorted(p.name for p in (tmp_path / "serial").iterdir())
        pooled_files = sorted(p.name for p in (tmp_path / "pooled").iterdir())
        assert serial_files == pooled_files
        assert "manifest.json" in serial_files
        assert any(name.endswith(".trace.jsonl") for name in serial_files)
        assert any(name.endswith(".timeseries.json") for name in serial_files)
        for name in serial_files:
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "pooled" / name).read_bytes()
            assert a == b, f"{name} differs between serial and jobs=2"

    def test_cache_hits_still_export(self, tmp_path):
        # First sweep fills the cache; the second, all hits, must still
        # write files.
        cache.set_cache_dir(str(tmp_path / "cache"))
        events = []
        self._sweep(tmp_path / "warm", jobs=1)
        self._sweep(tmp_path / "hit", jobs=1, progress=events.append)
        assert {e.source for e in events} == {"disk"}
        assert ((tmp_path / "warm" / "manifest.json").read_bytes()
                == (tmp_path / "hit" / "manifest.json").read_bytes())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicate_many_writes_the_manifest(self, tmp_path, jobs):
        """``replicate_many`` (what ``repro-eac figure --obs-dir`` goes
        through) must run the sweep generator to its end: the manifest is
        written after the last result is yielded."""
        marking = EndpointDesign(CongestionSignal.MARK, ProbeBand.IN_BAND,
                                 ProbingScheme.SLOW_START)
        pairs = [(fast_config(0), DESIGN), (fast_config(0), marking)]
        parallel.set_jobs(jobs)
        parallel.set_obs_dir(str(tmp_path))
        try:
            replicated = parallel.replicate_many(pairs, seeds=(1, 2))
        finally:
            parallel.set_obs_dir(None)
        assert [r.seeds for r in replicated] == [[1, 2], [1, 2]]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [r["name"] for r in manifest["runs"]] == [
            "0000-drop-in-band-slow-start-s1",
            "0001-drop-in-band-slow-start-s2",
            "0002-mark-in-band-slow-start-s1",
            "0003-mark-in-band-slow-start-s2",
        ]
