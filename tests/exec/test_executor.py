"""Executor unit tests: dedup, stats, cache toggling."""

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.engine import memo
from repro.engine.memo import MemoStats
from repro.exec.executor import (
    ExecStats,
    execute,
    execute_run,
)
from repro.exec.plan import APU, DGPU, RunSpec
from repro.exec.retry import run_with_retry
from repro.hardware.specs import Precision


def run_spec(model="OpenCL", platform=APU, size=1024, **overrides):
    return RunSpec(
        app="read-benchmark",
        model=model,
        platform=platform,
        precision=Precision.SINGLE,
        config=ReadMemConfig(size=size),
        **overrides,
    )


@pytest.fixture(autouse=True)
def fresh_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


class TestExecuteRun:
    def test_produces_result_and_counters(self):
        outcome = execute_run(run_spec())
        assert outcome.result.seconds > 0
        assert outcome.wall_seconds > 0
        assert outcome.caches["plan"].misses > 0  # cold cache captured the schedule
        assert outcome.caches["kernel"].lookups == 0  # priced from the capture

    def test_applies_clock_overrides(self):
        # Big enough that the kernel is bandwidth-bound, not floor-bound.
        base = execute_run(run_spec(platform=DGPU, size=1 << 22)).result
        slow = execute_run(
            run_spec(platform=DGPU, size=1 << 22, core_mhz=500.0, memory_mhz=800.0)
        ).result
        assert slow.kernel_seconds > base.kernel_seconds


class TestDeduplication:
    def test_equal_content_runs_share_one_outcome(self):
        runs = [run_spec(), run_spec(), run_spec(model="OpenACC"), run_spec()]
        outcomes, stats = execute(runs)
        assert stats.requested_runs == 4
        assert stats.unique_runs == 2
        assert stats.deduplicated_runs == 2
        assert outcomes[0] is outcomes[1] is outcomes[3]
        assert outcomes[2] is not outcomes[0]

    def test_outcomes_align_with_submission_order(self):
        runs = [run_spec(model=m) for m in ("OpenMP", "OpenCL", "OpenACC")]
        outcomes, _ = execute(runs)
        assert [o.spec.model for o in outcomes] == ["OpenMP", "OpenCL", "OpenACC"]

    def test_ladder_runs_whole_setup_affinity_blocks(self, monkeypatch):
        # Sizes interleave 1024, 2048, 4096, 1024, ...: the retry ladder
        # takes each problem size's runs together, in first-appearance
        # order, so the bounded setup LRU never rebuilds a setup.
        from repro.exec import executor

        ran = []

        def recording(spec, *args, **kwargs):
            ran.append(spec.config.size)
            return run_with_retry(spec, *args, **kwargs)

        monkeypatch.setattr(executor, "run_with_retry", recording)
        runs = [
            run_spec(model=m, size=s, projection=False)
            for m in ("OpenMP", "OpenCL", "OpenACC")
            for s in (1024, 2048, 4096)
        ]
        outcomes, _ = execute(runs)
        assert ran == [1024] * 3 + [2048] * 3 + [4096] * 3
        assert [o.spec for o in outcomes] == runs


class TestCacheToggling:
    def test_second_execution_hits_the_cache(self):
        execute([run_spec()])
        _, stats = execute([run_spec()])
        assert stats.caches["plan"].hits > 0
        assert stats.caches["plan"].misses == 0

    def test_no_cache_never_hits_and_restores_state(self):
        previous = memo.PLAN_CACHE.enabled
        _, stats = execute([run_spec(), run_spec(size=2048)], use_cache=False)
        assert stats.caches["plan"].hits == 0
        assert stats.caches["plan"].misses == 0  # disabled cache counts nothing
        assert memo.PLAN_CACHE.enabled == previous

    def test_cache_does_not_change_results(self):
        cached, _ = execute([run_spec()])
        memo.clear_caches()
        uncached, _ = execute([run_spec()], use_cache=False)
        assert cached[0].result.seconds == uncached[0].result.seconds
        assert cached[0].result.kernel_seconds == uncached[0].result.kernel_seconds


class TestStats:
    def test_summary_mentions_all_counters(self):
        _, stats = execute([run_spec(), run_spec()])
        text = stats.summary()
        assert "1 deduplicated" in text
        assert "plan memo cache" in text
        assert "stub memo cache" in text
        assert "hit rate" in text
        assert "wall time" in text
        assert "limited by" in text

    def test_merge_adds_counters(self):
        a = ExecStats(requested_runs=2, unique_runs=2, caches={"kernel": MemoStats(hits=5)},
                      wall_seconds=1.0)
        b = ExecStats(requested_runs=3, unique_runs=1, caches={"kernel": MemoStats(hits=7)},
                      wall_seconds=2.0)
        merged = a.merge(b)
        assert merged.requested_runs == 5
        assert merged.caches["kernel"].hits == 12
        assert merged.wall_seconds == pytest.approx(3.0)

    def test_hit_rate_handles_zero_lookups(self):
        assert ExecStats().caches.get("kernel", MemoStats()).hit_rate == 0.0


class TestTraceCounters:
    def test_trace_layer_aggregates_and_merges(self):
        from repro.exec.executor import ExecStats

        a = ExecStats(caches={"trace": MemoStats(hits=3, misses=1)})
        b = ExecStats(caches={"trace": MemoStats(hits=2, misses=4)})
        merged = a.merge(b)
        assert (merged.caches["trace"].hits, merged.caches["trace"].misses) == (5, 5)
        assert merged.caches["trace"].hit_rate == 0.5
        assert "trace-replay memo cache: 5 hits / 5 misses" in merged.summary()

    def test_trace_line_hidden_when_unused(self):
        from repro.exec.executor import ExecStats

        assert "trace-replay" not in ExecStats().summary()

    def test_run_outcome_carries_trace_delta(self):
        memo.clear_caches()
        # A functional cell runs on its own, so its outcome carries
        # its own memo delta (a grouped cell's call reports it).
        outcomes, stats = execute([run_spec(projection=False)])
        # Ports do not replay traces; the counters exist but stay zero.
        assert outcomes[0].caches["trace"].hits == 0
        assert outcomes[0].caches["trace"].misses == 0
        assert (stats.caches["trace"].hits, stats.caches["trace"].misses) == (0, 0)
