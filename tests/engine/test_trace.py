"""Trace-generation and cache-replay tests."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern
from repro.engine.trace import generate_trace, replay_pattern
from repro.hardware.specs import R9_280X, CacheSpec


def pattern(kind, **overrides):
    kwargs = dict(working_set_bytes=8 * 1024 * 1024, request_bytes=4)
    kwargs.update(overrides)
    return AccessPattern(kind=kind, **kwargs)


class TestGeneration:
    def test_deterministic(self):
        p = pattern(AccessKind.NEIGHBOR_LIST, reuse_fraction=0.3)
        a = generate_trace(p)
        b = generate_trace(p)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", list(AccessKind))
    def test_every_kind_generates_addresses(self, kind):
        overrides = {"table_entries": 1 << 16} if kind is AccessKind.BINARY_SEARCH else {}
        p = pattern(kind, **overrides)
        trace = generate_trace(p)
        assert len(trace) > 1000
        assert (trace >= 0).all()

    def test_streaming_is_sequential(self):
        trace = generate_trace(pattern(AccessKind.STREAMING))
        deltas = np.diff(trace)
        assert (deltas == 4).mean() > 0.95

    def test_binary_search_shares_the_root(self):
        p = pattern(AccessKind.BINARY_SEARCH, table_entries=1 << 14)
        trace = generate_trace(p, budget=3000)
        # Every lookup probes the table midpoint first, so the root is
        # by far the most frequent address of the trace.
        values, counts = np.unique(trace, return_counts=True)
        root_share = counts.max() / len(trace)
        assert root_share > 0.02  # ~1/(levels + data rows)


class TestReplay:
    CACHE = CacheSpec(size_bytes=768 * 1024, line_bytes=64, ways=16)

    def test_streaming_misses_once_per_line(self):
        result = replay_pattern(pattern(AccessKind.STREAMING), self.CACHE)
        assert result.miss_rate == pytest.approx(4 / 64, rel=0.3)

    def test_stencil_mostly_hits(self):
        result = replay_pattern(pattern(AccessKind.STENCIL, reuse_fraction=0.8), self.CACHE)
        assert result.miss_rate < 0.2

    def test_search_misses_a_lot(self):
        p = pattern(
            AccessKind.BINARY_SEARCH, working_set_bytes=240e6,
            request_bytes=16, table_entries=700_000,
        )
        result = replay_pattern(p, self.CACHE)
        assert result.miss_rate > 0.25

    def test_table1_ordering(self):
        """Measured miss rates must reproduce Table I's ordering:
        LULESH < CoMD < miniFE <= XSBench."""
        lulesh = replay_pattern(
            pattern(AccessKind.STENCIL, working_set_bytes=160e6, reuse_fraction=0.82),
            self.CACHE,
        ).miss_rate
        comd = replay_pattern(
            pattern(AccessKind.NEIGHBOR_LIST, working_set_bytes=40e6,
                    request_bytes=16, reuse_fraction=0.35),
            self.CACHE,
        ).miss_rate
        minife = replay_pattern(
            pattern(AccessKind.CSR_SPMV, working_set_bytes=300e6,
                    request_bytes=8, reuse_fraction=0.6),
            self.CACHE,
        ).miss_rate
        xsbench = replay_pattern(
            pattern(AccessKind.BINARY_SEARCH, working_set_bytes=240e6,
                    request_bytes=16, table_entries=700_000),
            self.CACHE,
        ).miss_rate
        assert lulesh < comd
        assert comd < xsbench
        assert minife < xsbench
        assert comd < minife

    def test_large_working_set_scales_cache(self):
        p = pattern(AccessKind.STREAMING, working_set_bytes=1e9)
        result = replay_pattern(p, self.CACHE)
        assert result.scale < 1.0
        assert 0 < result.miss_rate <= 1.0

    def test_gpu_l2_spec_usable(self):
        result = replay_pattern(pattern(AccessKind.STREAMING), R9_280X.l2_cache)
        assert result.stats.accesses > 0


class TestTraceMemo:
    CACHE = CacheSpec(size_bytes=768 * 1024, line_bytes=64, ways=16)

    def test_repeat_replay_hits_the_memo(self):
        from repro.engine.memo import TRACE_CACHE

        p = pattern(AccessKind.STENCIL, working_set_bytes=1 << 20)
        TRACE_CACHE.clear()
        before = TRACE_CACHE.snapshot()
        first = replay_pattern(p, self.CACHE, budget=10_000)
        second = replay_pattern(p, self.CACHE, budget=10_000)
        delta = TRACE_CACHE.snapshot().since(before)
        assert (delta.hits, delta.misses) == (1, 1)
        assert second is first  # the memo returns the stored result

    def test_key_distinguishes_content(self):
        from repro.engine.memo import TRACE_CACHE

        p = pattern(AccessKind.STENCIL, working_set_bytes=1 << 20)
        TRACE_CACHE.clear()
        before = TRACE_CACHE.snapshot()
        replay_pattern(p, self.CACHE, budget=10_000)
        replay_pattern(p, self.CACHE, budget=12_000)  # different budget
        replay_pattern(pattern(AccessKind.STREAMING, working_set_bytes=1 << 20),
                       self.CACHE, budget=10_000)
        delta = TRACE_CACHE.snapshot().since(before)
        assert (delta.hits, delta.misses) == (0, 3)

    def test_cache_disabled_is_bit_identical(self):
        from repro.engine.memo import TRACE_CACHE, cache_disabled

        p = pattern(AccessKind.NEIGHBOR_LIST, reuse_fraction=0.3)
        memoized = replay_pattern(p, self.CACHE, budget=10_000)
        with cache_disabled():
            recomputed = replay_pattern(p, self.CACHE, budget=10_000)
            assert recomputed is not memoized
        assert recomputed.stats == memoized.stats


class TestCrossProcessDeterminism:
    def test_trace_stable_across_hash_seeds(self):
        """Trace seeding must not depend on Python's salted ``hash()``:
        the same pattern generates the identical trace in subprocesses
        with different PYTHONHASHSEED values."""
        import os
        import subprocess
        import sys

        script = (
            "import zlib, numpy as np\n"
            "from repro.engine.kernel import AccessKind, AccessPattern\n"
            "from repro.engine.trace import generate_trace\n"
            "p = AccessPattern(kind=AccessKind.NEIGHBOR_LIST,"
            " working_set_bytes=1 << 20, request_bytes=4, reuse_fraction=0.3)\n"
            "t = generate_trace(p, budget=5000)\n"
            "print(zlib.crc32(t.tobytes()))\n"
        )
        digests = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
