"""Exporter tests: Chrome-trace schema, metrics files, text breakdown."""

import json

import pytest

from repro.obs.export import (
    EXEC_PID,
    SIM_PID,
    WALL_TRACK,
    Timeline,
    chrome_trace,
    merge_run_telemetry,
    top_breakdown,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.obs.spans import SpanRecorder


def recorded_run(label="LULESH/OpenCL/dgpu/single", kernel_s=2e-3):
    rec = SpanRecorder(meta={"app": "LULESH", "model": "OpenCL"})
    rec.add("dgpu/interconnect", "h2d", "transfer", 1e-4, direction="h2d")
    rec.add("dgpu/gpu", "CalcForce", "kernel", kernel_s, limited_by="memory")
    rec.add("dgpu/gpu", "launch:CalcForce", "launch", 5e-6)
    rec.cache_event("kernel", hit=False)
    return rec.finish(label)


def small_timeline():
    return merge_run_telemetry([recorded_run(), recorded_run("b")])


def check_trace_schema(doc):
    """Assert the invariants chrome://tracing / Perfetto rely on."""
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    named_threads = {}
    for event in doc["traceEvents"]:
        assert event["ph"] in {"M", "X", "i"}
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            if event["name"] == "thread_name":
                named_threads[(event["pid"], event["tid"])] = event["args"]["name"]
        else:
            assert isinstance(event["ts"], float) or isinstance(event["ts"], int)
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] in {"g", "p", "t"}
    # Every span/instant lands on a declared thread.
    for event in doc["traceEvents"]:
        if event["ph"] != "M":
            assert (event["pid"], event["tid"]) in named_threads
    return named_threads


class TestChromeTrace:
    def test_schema_valid_and_both_processes_present(self):
        doc = chrome_trace(small_timeline())
        threads = check_trace_schema(doc)
        pids = {pid for pid, _ in threads}
        assert pids == {SIM_PID, EXEC_PID}

    def test_one_thread_per_device_queue_and_per_worker(self):
        timeline = small_timeline()
        doc = chrome_trace(timeline)
        threads = check_trace_schema(doc)
        names = set(threads.values())
        assert {"dgpu/gpu", "dgpu/interconnect", "memo"} <= names
        assert WALL_TRACK in names
        assert set(timeline.tracks()) == names
        assert {pid for (pid, _), name in threads.items() if name == WALL_TRACK} == {EXEC_PID}

    def test_sim_spans_use_sim_domain_and_worker_spans_wall(self):
        timeline = small_timeline()
        doc = chrome_trace(timeline)
        threads = check_trace_schema(doc)
        by_name = {name: key for key, name in threads.items()}
        gpu_pid, gpu_tid = by_name["dgpu/gpu"]
        kernel = next(
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "CalcForce"
            and (e["pid"], e["tid"]) == (gpu_pid, gpu_tid)
        )
        assert kernel["dur"] == pytest.approx(2e-3 * 1e6)  # µs, sim domain
        runs = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["cat"] == "run"]
        assert [run["name"] for run in runs] == ["LULESH/OpenCL/dgpu/single", "b"]
        assert all(threads[run["pid"], run["tid"]] == WALL_TRACK for run in runs)
        assert all(run["pid"] == EXEC_PID for run in runs)

    def test_span_args_survive_into_trace(self):
        doc = chrome_trace(small_timeline())
        kernel = next(e for e in doc["traceEvents"] if e.get("name") == "CalcForce")
        assert kernel["args"]["limited_by"] == "memory"

    def test_instant_events_exported(self):
        doc = chrome_trace(small_timeline())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "kernel-miss" for e in instants)

    def test_other_data_reports_drops(self):
        timeline = small_timeline()
        timeline.dropped = 12
        doc = chrome_trace(timeline)
        assert doc["otherData"]["dropped_records"] == 12

    def test_write_round_trips_through_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(small_timeline(), path)
        with open(path) as fh:
            check_trace_schema(json.load(fh))


class TestTimeline:
    def test_track_partition(self):
        timeline = small_timeline()
        assert WALL_TRACK in timeline.tracks()
        assert "dgpu/gpu" in timeline.sim_tracks()
        assert WALL_TRACK not in timeline.sim_tracks()
        assert set(timeline.sim_tracks()) == set(timeline.tracks()) - {WALL_TRACK}

    def test_empty_timeline_exports(self):
        doc = chrome_trace(Timeline())
        check_trace_schema(doc)
        assert top_breakdown(Timeline())  # no division by zero


class TestWriteMetrics:
    def test_json_extension_selects_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        path = str(tmp_path / "metrics.json")
        write_metrics(reg, path)
        with open(path) as fh:
            assert json.load(fh)["repro_x_total"]["type"] == "counter"

    def test_other_extensions_select_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        path = str(tmp_path / "metrics.prom")
        write_metrics(reg, path)
        with open(path) as fh:
            assert parse_prometheus(fh.read())["repro_x_total"] == [("", 1.0)]


class TestTopBreakdown:
    def test_reports_phases_and_top_spans(self):
        text = top_breakdown(small_timeline(), top=3)
        assert "kernel" in text and "transfer" in text and "launch" in text
        assert "CalcForce" in text
        # Kernel dominates; it must be the first phase line.
        phase_lines = [l for l in text.splitlines() if l.startswith("  ")]
        assert phase_lines[0].split()[0] == "kernel"

    def test_run_envelopes_do_not_double_count(self):
        timeline = small_timeline()
        text = top_breakdown(timeline)
        assert "[run]" not in text

    def test_mentions_dropped_records(self):
        timeline = small_timeline()
        timeline.dropped = 3
        assert "3 records dropped" in top_breakdown(timeline)
