"""Span recorder unit tests: clock, nesting, activation, merging."""

import pickle

import pytest

from repro.obs.export import WALL_TRACK, merge_run_telemetry
from repro.obs.spans import (
    NullRecorder,
    SpanRecorder,
    active,
    recording,
)


class TestCursor:
    def test_leaf_spans_advance_the_simulated_clock(self):
        rec = SpanRecorder()
        rec.add("dgpu/gpu", "k1", "kernel", 2.0)
        rec.add("dgpu/gpu", "k2", "kernel", 3.0)
        assert rec.sim_now == pytest.approx(5.0)
        assert [(s.sim_start, s.sim_end) for s in rec.spans] == [(0.0, 2.0), (2.0, 5.0)]

    def test_spans_on_different_tracks_share_one_clock(self):
        """The engine charges costs serially to one run; tracks are
        display rows, not independent clocks."""
        rec = SpanRecorder()
        rec.add("dgpu/gpu", "k", "kernel", 1.0)
        rec.add("dgpu/interconnect", "h2d", "transfer", 1.0)
        assert rec.spans[1].sim_start == pytest.approx(1.0)

    def test_zero_duration_span_allowed(self):
        rec = SpanRecorder()
        rec.add("apu/interconnect", "h2d", "transfer", 0.0)
        assert rec.spans[0].sim_seconds == 0.0


class TestNesting:
    def test_enclosing_span_covers_children(self):
        rec = SpanRecorder()
        with rec.span("dgpu/gpu", "phase", "host"):
            rec.add("dgpu/gpu", "k1", "kernel", 1.0)
            rec.add("dgpu/gpu", "k2", "kernel", 2.0)
        envelope = rec.spans[-1]
        assert envelope.name == "phase"
        assert envelope.sim_start == pytest.approx(0.0)
        assert envelope.sim_end == pytest.approx(3.0)

    def test_nested_span_recorded_even_on_exception(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("t", "phase", "host"):
                raise RuntimeError("boom")
        assert rec.spans[-1].name == "phase"

    def test_instants_stamp_the_current_cursor(self):
        rec = SpanRecorder()
        rec.add("t", "k", "kernel", 1.5)
        rec.instant("memo", "kernel-hit", "memo")
        assert rec.events[0].sim_ts == pytest.approx(1.5)


class TestActivation:
    def test_disabled_by_default(self):
        assert active() is None

    def test_recording_installs_and_restores(self):
        rec = SpanRecorder()
        with recording(rec) as installed:
            assert installed is rec
            assert active() is rec
        assert active() is None

    def test_recording_nests(self):
        outer, inner = SpanRecorder(), SpanRecorder()
        with recording(outer):
            with recording(inner):
                assert active() is inner
            assert active() is outer

    def test_null_recorder_swallows_everything(self):
        rec = NullRecorder()
        rec.add("t", "k", "kernel", 1.0)
        rec.instant("t", "e", "memo")
        rec.cache_event("kernel", hit=True)
        with rec.span("t", "p", "host"):
            pass
        assert rec.spans == [] and rec.events == []
        assert rec.finish("x").spans == []


class TestCap:
    def test_cap_counts_dropped_but_keeps_the_clock(self):
        rec = SpanRecorder(max_records=2)
        for _ in range(5):
            rec.add("t", "k", "kernel", 1.0)
        assert len(rec.spans) == 2
        assert rec.dropped == 3
        assert rec.sim_now == pytest.approx(5.0)  # cap never skews the clock

    def test_cache_event_counts_metrics_past_the_cap(self):
        rec = SpanRecorder(max_records=1)
        for _ in range(3):
            rec.cache_event("kernel", hit=True)
        counter = rec.metrics.get("repro_memo_lookups_total", cache="kernel", result="hit")
        assert counter.value == 3


class TestTelemetry:
    def test_finish_seals_a_picklable_recording(self):
        rec = SpanRecorder(meta={"app": "LULESH"})
        rec.add("dgpu/gpu", "k", "kernel", 1.0, limited_by="memory")
        rec.cache_event("setup", hit=False)
        telemetry = rec.finish("LULESH/OpenCL/dgpu/single")
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.label == telemetry.label
        assert clone.sim_seconds == pytest.approx(1.0)
        assert clone.spans[0].args_dict["limited_by"] == "memory"
        assert clone.metrics.get(
            "repro_memo_lookups_total", cache="setup", result="miss"
        ).value == 1


class TestMerge:
    def _run(self, label, seconds):
        rec = SpanRecorder()
        rec.add("dgpu/gpu", "k", "kernel", seconds)
        rec.cache_event("kernel", hit=True)
        telemetry = rec.finish(label)
        telemetry.wall_seconds = seconds / 10.0  # deterministic for the test
        return telemetry

    def test_runs_are_laid_end_to_end_in_submission_order(self):
        timeline = merge_run_telemetry([self._run("a", 2.0), self._run("b", 3.0)])
        device = [s for s in timeline.spans if s.track == "dgpu/gpu"]
        assert [(s.sim_start, s.sim_end) for s in device] == [(0.0, 2.0), (2.0, 5.0)]
        # Events shift with their run.
        assert [e.sim_ts for e in timeline.events] == [2.0, 5.0]

    def test_each_run_becomes_a_span_on_its_worker_track(self):
        timeline = merge_run_telemetry([self._run("a", 2.0), self._run("b", 3.0)])
        runs = [s for s in timeline.spans if s.category == "run"]
        assert [(s.track, s.name) for s in runs] == [(WALL_TRACK, "a"), (WALL_TRACK, "b")]

    def test_worker_wall_cursor_accumulates(self):
        timeline = merge_run_telemetry([self._run("a", 2.0), self._run("b", 3.0)])
        runs = [s for s in timeline.spans if s.category == "run"]
        assert runs[0].wall_start == 0.0
        assert runs[1].wall_start == pytest.approx(runs[0].wall_end)
        # The simulated and wall clocks stay apart: 2.0 s simulated
        # against the run's 0.2 s of wall time.
        assert (runs[1].sim_start, runs[1].wall_start) == pytest.approx((2.0, 0.2))

    def test_merge_is_deterministic(self):
        items = [self._run("a", 2.0), self._run("b", 3.0)]
        first = merge_run_telemetry(items)
        second = merge_run_telemetry(items)
        assert [(s.track, s.name, s.sim_start, s.sim_end) for s in first.spans] == [
            (s.track, s.name, s.sim_start, s.sim_end) for s in second.spans
        ]

    def test_metrics_merge_alongside_spans(self):
        timeline = merge_run_telemetry([self._run("a", 1.0), self._run("b", 1.0)])
        counter = timeline.metrics.get(
            "repro_memo_lookups_total", cache="kernel", result="hit"
        )
        assert counter.value == 2
