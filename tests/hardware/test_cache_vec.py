"""Differential and property tests for the vectorized cache replay.

:meth:`SetAssociativeCache.replay` strips guaranteed hits and buckets
the trace by set with numpy before its per-set LRU loop.  It must be
**bit-identical** to the per-access oracle of ``lru_oracle.py`` on
every trace and geometry: same hits, misses, evictions and resident
lines, including across persistent state carried over multiple
``replay`` calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import AccessKind, AccessPattern
from repro.engine.trace import generate_trace
from repro.hardware.cache import SetAssociativeCache
from repro.hardware.specs import CacheSpec

from .lru_oracle import LRUOracle

LINE = 64

GEOMETRIES = {
    "tiny": CacheSpec(size_bytes=LINE * 8 * 2, line_bytes=LINE, ways=2),
    "direct-mapped": CacheSpec(size_bytes=LINE * 16, line_bytes=LINE, ways=1),
    "fully-associative": CacheSpec(size_bytes=LINE * 8, line_bytes=LINE, ways=8),
    "single-set-single-way": CacheSpec(size_bytes=LINE, line_bytes=LINE, ways=1),
    "l2-like": CacheSpec(size_bytes=768 * 1024, line_bytes=LINE, ways=16),
    "odd-line": CacheSpec(size_bytes=48 * 24 * 4, line_bytes=48, ways=4),
}


def assert_identical(spec, traces):
    """Replay ``traces`` through the cache and the oracle on persistent
    state and compare every per-call delta and the cumulative counters."""
    oracle = LRUOracle(spec)
    cache = SetAssociativeCache(spec)
    for trace in traces:
        expected = oracle.replay(list(trace))
        actual = cache.replay(np.asarray(trace, dtype=np.int64))
        assert actual == expected
    assert cache.stats == oracle.stats
    assert cache.resident_lines == oracle.resident_lines


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_random_traces(self, name):
        spec = GEOMETRIES[name]
        rng = np.random.default_rng(7)
        span = 8 * spec.size_bytes
        traces = [rng.integers(0, span, size=n) for n in (1, 7, 500, 3000)]
        assert_identical(spec, traces)

    def test_wide_tags_fall_back_exactly(self):
        """Addresses near 2**60: tags far wider than the 32-bit
        position field of the bucketing sort key stay exact."""
        spec = GEOMETRIES["tiny"]
        rng = np.random.default_rng(13)
        base = 1 << 60
        traces = [base + rng.integers(0, 4 * spec.size_bytes, size=1500)]
        assert_identical(spec, traces)

    def test_skewed_set_pressure(self):
        """One scorching set plus a uniform background: one set's
        bucket runs far deeper than the rest."""
        spec = GEOMETRIES["l2-like"]
        rng = np.random.default_rng(17)
        hot = rng.integers(0, 4, size=4000) * spec.line_bytes * spec.sets
        cold = rng.integers(0, 8 * spec.size_bytes, size=4000)
        trace = np.where(rng.random(4000) < 0.5, hot, cold)
        assert_identical(spec, [trace])

    @pytest.mark.parametrize("kind", list(AccessKind))
    def test_kernel_traces(self, kind):
        overrides = {"table_entries": 1 << 14} if kind is AccessKind.BINARY_SEARCH else {}
        pattern = AccessPattern(
            kind=kind, working_set_bytes=2 * 1024 * 1024, request_bytes=4, **overrides
        )
        trace = generate_trace(pattern, budget=6000)
        assert_identical(GEOMETRIES["l2-like"], [trace])
        assert_identical(GEOMETRIES["tiny"], [trace])

    def test_single_access_matches(self):
        spec = GEOMETRIES["direct-mapped"]
        oracle = LRUOracle(spec)
        cache = SetAssociativeCache(spec)
        for addr in (0, 0, LINE, 0, 17 * LINE, LINE):
            assert cache.access(addr) == oracle.access(addr)
        assert cache.stats == oracle.stats

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=400))
    def test_hypothesis_traces(self, addresses):
        assert_identical(GEOMETRIES["tiny"], [addresses])


class TestProperties:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_counters_conserved(self, name):
        spec = GEOMETRIES[name]
        rng = np.random.default_rng(23)
        cache = SetAssociativeCache(spec)
        for n in (100, 2000):
            cache.replay(rng.integers(0, 8 * spec.size_bytes, size=n))
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert 0 <= cache.resident_lines <= spec.sets * spec.ways
        # Lines enter on misses and leave on evictions; nothing else.
        assert stats.misses - stats.evictions == cache.resident_lines

    def test_replay_returns_per_call_delta(self):
        spec = GEOMETRIES["tiny"]
        cache = SetAssociativeCache(spec)
        first = cache.replay([0, 0, LINE])
        second = cache.replay([0])
        assert (first.accesses, first.hits) == (3, 1)
        assert (second.accesses, second.hits) == (1, 1)
        assert cache.stats.accesses == 4

    def test_reset_clears_state(self):
        cache = SetAssociativeCache(GEOMETRIES["tiny"])
        cache.replay([0, LINE, 2 * LINE])
        cache.reset()
        assert cache.resident_lines == 0
        assert cache.stats == type(cache.stats)()
        assert cache.replay([0]).misses == 1

    def test_negative_address_rejected(self):
        cache = SetAssociativeCache(GEOMETRIES["tiny"])
        with pytest.raises(ValueError):
            cache.replay([0, -1])

    def test_empty_replay(self):
        cache = SetAssociativeCache(GEOMETRIES["tiny"])
        delta = cache.replay([])
        assert delta.accesses == 0


class TestScalarArrayInput:
    def test_scalar_replay_accepts_numpy(self):
        """Lists, ranges and int64 arrays replay identically."""
        spec = GEOMETRIES["tiny"]
        rng = np.random.default_rng(29)
        trace = rng.integers(0, 4 * spec.size_bytes, size=1000)
        from_list = SetAssociativeCache(spec)
        from_array = SetAssociativeCache(spec)
        assert from_array.replay(trace) == from_list.replay(trace.tolist())
        span = range(0, 4 * spec.size_bytes, 24)
        assert SetAssociativeCache(spec).replay(span) == LRUOracle(spec).replay(span)
