"""Executor unit tests: dedup, stats, sharding, cache toggling."""

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.engine import memo
from repro.engine.memo import MemoStats
from repro.exec.executor import (
    ExecStats,
    _shard_by_affinity,
    default_workers,
    execute,
    execute_run,
)
from repro.exec.plan import APU, DGPU, RunSpec
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
        assert outcome.caches["kernel"].misses > 0  # cold cache priced something

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


class TestCacheToggling:
    def test_second_execution_hits_the_cache(self):
        execute([run_spec()])
        _, stats = execute([run_spec()])
        assert stats.caches["kernel"].hits > 0
        assert stats.caches["kernel"].misses == 0

    def test_no_cache_never_hits_and_restores_state(self):
        previous = memo.KERNEL_CACHE.enabled
        _, stats = execute([run_spec(), run_spec(size=2048)], use_cache=False)
        assert stats.caches["kernel"].hits == 0
        assert stats.caches["kernel"].misses == 0  # disabled cache counts nothing
        assert memo.KERNEL_CACHE.enabled == previous

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
        assert "kernel-pricing memo cache" in text
        assert "setup memo cache" in text
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

    def test_default_workers_positive(self):
        assert 1 <= default_workers() <= 8


class TestAffinitySharding:
    def shard_sizes(self, runs, workers):
        shards = _shard_by_affinity(list(enumerate(runs)), workers)
        return [len(s) for s in shards]

    def test_snaps_to_affinity_boundaries(self):
        # Four problem sizes: four affinity blocks of six runs each
        # (precision does not split a block — setups for both
        # precisions of one config belong in the same worker).
        runs = []
        for size in (1024, 2048, 4096, 8192):
            for precision in (Precision.SINGLE, Precision.DOUBLE):
                for model in ("OpenMP", "OpenCL", "OpenACC"):
                    runs.append(
                        RunSpec(
                            app="read-benchmark",
                            model=model,
                            platform=APU,
                            precision=precision,
                            config=ReadMemConfig(size=size),
                        )
                    )
        shards = _shard_by_affinity(list(enumerate(runs)), 4)
        assert len(shards) == 4
        for shard in shards:
            affinities = {(s.app, repr(s.config)) for _, s in shard}
            assert len(affinities) == 1  # no block straddles a boundary

    def test_groups_interleaved_blocks_and_covers_everything(self):
        # Sizes interleave 0,1,2,0,1,2,...: sharding regroups them into
        # whole affinity blocks (shuffle-invariance — outcomes are
        # reassembled by index, so global order is free to change), but
        # every index appears exactly once and blocks stay intact.
        runs = [run_spec(size=1024 * (1 + i % 3)) for i in range(10)]
        shards = _shard_by_affinity(list(enumerate(runs)), 3)
        flat = [index for shard in shards for index, _ in shard]
        assert sorted(flat) == list(range(len(runs)))
        for shard in shards:
            affinities = {(s.app, repr(s.config)) for _, s in shard}
            assert len(affinities) == 1  # whole blocks, never fragments

    def test_single_block_falls_back_to_even_split(self):
        # A frequency sweep is one affinity block: parallelism wins.
        runs = [run_spec(core_mhz=float(mhz)) for mhz in range(500, 572)]
        sizes = self.shard_sizes(runs, 4)
        assert len(sizes) == 4
        assert max(sizes) - min(sizes) <= 1

    def test_never_exceeds_worker_count(self):
        for n_runs in (1, 2, 5, 17):
            for workers in (1, 2, 3, 8):
                runs = [run_spec(size=1024 * (1 + i)) for i in range(n_runs)]
                shards = _shard_by_affinity(list(enumerate(runs)), workers)
                assert 1 <= len(shards) <= workers
                assert sum(len(s) for s in shards) == n_runs


class TestParallelPath:
    def test_pool_results_match_serial(self):
        runs = [
            run_spec(model=m, platform=p, size=s)
            for m in ("OpenMP", "OpenCL")
            for p in (APU, DGPU)
            for s in (1024, 2048)
        ]
        serial, _ = execute(runs, max_workers=1)
        parallel, stats = execute(runs, max_workers=2)
        assert stats.workers == 2
        for a, b in zip(serial, parallel):
            assert a.result.seconds == b.result.seconds
            assert a.result.kernel_seconds == b.result.kernel_seconds


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
        outcomes, stats = execute([run_spec()])
        # Ports do not replay traces; the counters exist but stay zero.
        assert outcomes[0].caches["trace"].hits == 0
        assert outcomes[0].caches["trace"].misses == 0
        assert (stats.caches["trace"].hits, stats.caches["trace"].misses) == (0, 0)
