"""Golden-output tests for ``python -m repro.obs``.

The CLI's text is part of the observability contract — EXPERIMENTS.md
walks users through reading it — so summarize/diff output is pinned
verbatim against hand-built dumps here.
"""

import json

import pytest

from repro.obs import ObsConfig, TraceRecorder
from repro.obs.cli import (
    diff_dumps,
    filter_trace,
    load_dump,
    main,
    run_spans,
    summarize,
)


def write_trace(path, events):
    """Build a trace file from (category, t, fields) triples."""
    rec = TraceRecorder(ObsConfig())
    for category, t, fields in events:
        rec.emit(category, t, **fields)
    path.write_text("\n".join(rec.lines()) + "\n")
    return str(path)


EVENTS = [
    ("probe", 1.0, dict(event="start", flow=1)),
    ("tx", 1.5, dict(port="l0", seq=0)),
    ("tx", 2.0, dict(port="l0", seq=1)),
    ("probe", 2.5, dict(event="admit", flow=1)),
    ("fault", 3.0, dict(event="apply", port="l0", action="down")),
]


def write_metrics(path, values):
    """A metrics dump with one counter per (name, labels, value) triple."""
    counters = [{"name": name, "labels": labels, "value": value}
                for name, labels, value in values]
    payload = {"v": 1, "counters": counters, "gauges": [], "histograms": []}
    path.write_text(json.dumps(payload, sort_keys=True,
                               separators=(",", ":")) + "\n")
    return str(path)


class TestLoadDump:
    def test_classifies_both_kinds(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", EVENTS)
        metrics = write_metrics(tmp_path / "m.json", [("x", {}, 1)])
        assert load_dump(trace)[0] == "trace"
        assert load_dump(metrics)[0] == "metrics"


class TestSummarize:
    def test_trace_summary_golden(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", EVENTS)
        assert summarize(path) == (
            "trace: 5 records, t=[1, 3], schema v2\n"
            "  fault           1 records  t=[3, 3]  (apply=1)\n"
            "  probe           2 records  t=[1, 2.5]  (admit=1, start=1)\n"
            "  tx              2 records  t=[1.5, 2]"
        )

    def test_trace_summary_category_filter(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", EVENTS)
        assert summarize(path, category="tx") == (
            "trace: 2 records, t=[1.5, 2], schema v2\n"
            "  tx              2 records  t=[1.5, 2]"
        )
        assert summarize(path, category="nope") == "trace: 0 records"

    def test_metrics_summary_golden(self, tmp_path):
        path = write_metrics(tmp_path / "m.json", [
            ("flows_offered", {"cls": "EXP1"}, 7),
            ("sim_time", {}, 120),
        ])
        assert summarize(path) == (
            "metrics: 2 series\n"
            "  flows_offered{cls=EXP1} 7\n"
            "  sim_time 120"
        )


class TestFilter:
    def test_filters_are_byte_preserving(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", EVENTS)
        all_lines = (tmp_path / "t.jsonl").read_text().splitlines()
        kept = filter_trace(path, category="probe")
        assert kept == [l for l in all_lines if '"cat":"probe"' in l]
        assert filter_trace(path, since=2.0, until=2.5) == [
            l for l in all_lines
            if 2.0 <= json.loads(l)["t"] <= 2.5
        ]

    def test_rejects_metrics_dump(self, tmp_path):
        path = write_metrics(tmp_path / "m.json", [("x", {}, 1)])
        with pytest.raises(SystemExit):
            filter_trace(path)


class TestDiff:
    def test_identical_traces_exit_zero(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", EVENTS)
        report, status = diff_dumps(a, b)
        assert status == 0
        assert report == "identical: 5 records, zero deltas"

    def test_divergent_traces_name_first_record(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        changed = list(EVENTS)
        changed[1] = ("tx", 1.5, dict(port="l0", seq=99))
        b = write_trace(tmp_path / "b.jsonl", changed)
        report, status = diff_dumps(a, b)
        assert status == 1
        assert "traces differ: 5 records vs 5 records" in report
        assert "record 1:" in report
        assert '"seq":99' in report

    def test_extra_records_reported(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", EVENTS[:3])
        report, status = diff_dumps(a, b)
        assert status == 1
        assert "2 extra record(s)" in report

    def test_metrics_deltas(self, tmp_path):
        a = write_metrics(tmp_path / "a.json", [
            ("x", {}, 1), ("only_a", {}, 1)])
        b = write_metrics(tmp_path / "b.json", [
            ("x", {}, 2), ("only_b", {}, 1)])
        report, status = diff_dumps(a, b)
        assert status == 1
        assert "~ x: 1 -> 2" in report
        assert "- only_a" in report
        assert "+ only_b" in report

    def test_identical_metrics_exit_zero(self, tmp_path):
        a = write_metrics(tmp_path / "a.json", [("x", {}, 1)])
        b = write_metrics(tmp_path / "b.json", [("x", {}, 1)])
        assert diff_dumps(a, b) == ("identical: 1 series, zero deltas", 0)

    def test_kind_mismatch_exit_two(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_metrics(tmp_path / "b.json", [("x", {}, 1)])
        report, status = diff_dumps(a, b)
        assert status == 2
        assert "cannot diff" in report


def write_timeseries(path, t, series, interval=5.0):
    payload = {"v": 1, "interval": interval, "t": t, "series": series}
    path.write_text(json.dumps(payload, sort_keys=True,
                               separators=(",", ":")) + "\n")
    return str(path)


class TestTimeseries:
    def test_load_dump_classifies_timeseries(self, tmp_path):
        path = write_timeseries(tmp_path / "ts.json", [0.0, 5.0],
                                {"port:l0:util": [0.0, 0.5]})
        assert load_dump(path)[0] == "timeseries"

    def test_summary_golden(self, tmp_path):
        path = write_timeseries(tmp_path / "ts.json", [0.0, 5.0, 10.0], {
            "port:l0:util": [0.0, 0.5, 0.25],
            "class:EXP1:live": [0, 3, 2],
        })
        assert summarize(path) == (
            "timeseries: 2 series, 3 samples, t=[0, 10], interval=5\n"
            "  class:EXP1:live min=0 max=3 last=2\n"
            "  port:l0:util min=0 max=0.5 last=0.25"
        )

    def test_diff_names_changed_series(self, tmp_path):
        a = write_timeseries(tmp_path / "a.json", [0.0, 5.0],
                             {"port:l0:util": [0.0, 0.5]})
        b = write_timeseries(tmp_path / "b.json", [0.0, 5.0],
                             {"port:l0:util": [0.0, 0.75]})
        report, status = diff_dumps(a, b)
        assert status == 1
        assert "~ port:l0:util" in report

    def test_identical_exit_zero(self, tmp_path):
        a = write_timeseries(tmp_path / "a.json", [0.0], {"x": [1.0]})
        b = write_timeseries(tmp_path / "b.json", [0.0], {"x": [1.0]})
        report, status = diff_dumps(a, b)
        assert status == 0
        assert "zero deltas" in report


class TestMaxDeltas:
    def test_trace_diff_counts_all_shows_bounded(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        changed = [(cat, t, dict(fields, extra=1))
                   for cat, t, fields in EVENTS]
        b = write_trace(tmp_path / "b.jsonl", changed)
        report, status = diff_dumps(a, b, max_shown=2)
        assert status == 1
        assert "5 delta(s)" in report
        assert report.count("record ") == 2
        assert "... and 3 more" in report

    def test_main_accepts_flag(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        changed = [(cat, t, dict(fields, extra=1))
                   for cat, t, fields in EVENTS]
        b = write_trace(tmp_path / "b.jsonl", changed)
        assert main(["diff", a, b, "--max-deltas", "1"]) == 1
        out = capsys.readouterr().out
        assert "... and 4 more" in out


SPAN_EVENTS = [
    ("probe", 1.0, dict(event="start", flow=1, label="EXP1",
                        epsilon=0.05, rate_bps=64000.0)),
    ("tx", 1.5, dict(port="l0", flow=1, kind=1, seq=0)),
    ("probe", 2.0, dict(event="stall", flow=1)),
    ("port", 2.2, dict(event="queue-drop", port="l0", flow=1, kind=1)),
    ("probe", 3.0, dict(event="admit", flow=1, fraction=0.01, sent=10)),
    ("probe", 4.0, dict(event="start", flow=2, label="EXP1",
                        epsilon=0.05, rate_bps=64000.0)),
    ("probe", 5.0, dict(event="reject", flow=2, fraction=0.4, sent=10)),
]


class TestSpansCommand:
    def test_text_output_tallies_outcomes(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", SPAN_EVENTS)
        out = run_spans(path)
        assert out.startswith("2 span(s)  (admit=1, reject=1)")
        assert "flow      1 EXP1   [1, 3] admit" in out

    def test_flow_and_outcome_filters(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", SPAN_EVENTS)
        assert "1 span(s)" in run_spans(path, outcome="reject")
        assert run_spans(path, flow="nope") == "0 span(s)"

    def test_jsonl_is_canonical(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", SPAN_EVENTS)
        lines = run_spans(path, fmt="jsonl").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["flow"] == 1 and first["outcome"] == "admit"
        assert first["probe_tx"] == 1 and first["probe_drops"] == 1
        assert lines[0] == json.dumps(first, sort_keys=True,
                                      separators=(",", ":"))

    def test_rejects_metrics_dump(self, tmp_path):
        path = write_metrics(tmp_path / "m.json", [("x", {}, 1)])
        with pytest.raises(SystemExit):
            run_spans(path)


def write_recorder_trace(path, recorder_id, events):
    rec = TraceRecorder(ObsConfig(), recorder_id=recorder_id)
    for category, t, fields in events:
        rec.emit(category, t, **fields)
    path.write_text("\n".join(rec.lines()) + "\n")
    return str(path)


class TestMergeCommand:
    def test_merge_to_file(self, tmp_path, capsys):
        a = write_recorder_trace(tmp_path / "a.jsonl", "run-a", EVENTS)
        b = write_recorder_trace(tmp_path / "b.jsonl", "run-b", EVENTS)
        out = tmp_path / "merged.jsonl"
        assert main(["merge", a, b, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * len(EVENTS)
        keys = [(r["t"], r["recorder"], r["i"])
                for r in map(json.loads, lines)]
        assert keys == sorted(keys)

    def test_duplicate_recorder_is_an_error(self, tmp_path, capsys):
        a = write_recorder_trace(tmp_path / "a.jsonl", "same", EVENTS)
        b = write_recorder_trace(tmp_path / "b.jsonl", "same", EVENTS)
        assert main(["merge", a, b]) == 2
        assert "recorder" in capsys.readouterr().err


class TestMain:
    def test_main_wires_subcommands(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", EVENTS)

        assert main(["summarize", a]) == 0
        assert "trace: 5 records" in capsys.readouterr().out

        assert main(["filter", a, "--category", "fault"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and '"action":"down"' in out

        assert main(["diff", a, b]) == 0
        assert "zero deltas" in capsys.readouterr().out

        assert main(["spans", str(write_trace(tmp_path / "s.jsonl",
                                              SPAN_EVENTS))]) == 0
        assert "2 span(s)" in capsys.readouterr().out
