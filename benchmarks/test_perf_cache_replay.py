"""Microbenchmark: cache replay against the per-access LRU oracle.

Times one characterization-sized replay of every
:class:`~repro.engine.kernel.AccessKind` through
:class:`~repro.hardware.cache.SetAssociativeCache` and through the
test oracle (one Python dict step per address) and prints the ratio
table, then times the repeated Table I characterization protocol.
Both sides must agree bit for bit, and each measurement holds an
absolute floor below what any machine measures (about 4-5x on the
summed replay, 18-30x on the protocol), so only a real regression of
the replay or the trace memo trips it.  Marked ``perf`` so a plain run
can deselect it (``pytest benchmarks -m 'not perf'``).
"""

import time

import pytest

from repro.apps import ALL_APPS
from repro.core.characterize import dominant_spec
from repro.engine.kernel import AccessKind, AccessPattern
from repro.engine.memo import TRACE_CACHE
from repro.engine.trace import generate_trace, replay_pattern, scaled_cache_spec
from repro.hardware.cache import SetAssociativeCache
from repro.hardware.specs import R9_280X
from tests.hardware.lru_oracle import LRUOracle

pytestmark = pytest.mark.perf

BUDGET = 100_000


def make_pattern(kind: AccessKind) -> AccessPattern:
    overrides = {"table_entries": 700_000} if kind is AccessKind.BINARY_SEARCH else {}
    return AccessPattern(
        kind=kind, working_set_bytes=64 * 1024 * 1024, request_bytes=4,
        reuse_fraction=0.3, **overrides,
    )


def replay_once(cache_cls, spec, trace):
    """The warm-up pass then the measured pass of ``replay_pattern``."""
    cache = cache_cls(spec)
    cache.replay(trace[: len(trace) // 4])
    return cache.replay(trace)


@pytest.mark.parametrize("kind", list(AccessKind))
def test_replay_speed(benchmark, kind):
    """Benchmark the cache replay; cross-check the oracle."""
    pattern = make_pattern(kind)
    spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
    trace = generate_trace(pattern, budget=BUDGET)
    expected = replay_once(LRUOracle, spec, trace)
    stats = benchmark.pedantic(
        lambda: replay_once(SetAssociativeCache, spec, trace), rounds=3, iterations=1
    )
    assert stats == expected


def test_ratio_table():
    """Print the per-kind oracle/replay ratio table (run with -s)."""
    rows = []
    for kind in AccessKind:
        pattern = make_pattern(kind)
        spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
        trace = generate_trace(pattern, budget=BUDGET)
        timings = {}
        results = {}
        for cache_cls in (LRUOracle, SetAssociativeCache):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                results[cache_cls] = replay_once(cache_cls, spec, trace)
                best = min(best, time.perf_counter() - started)
            timings[cache_cls] = best
        assert results[LRUOracle] == results[SetAssociativeCache]
        rows.append((kind.value, timings[LRUOracle], timings[SetAssociativeCache]))
    print(f"\n{'kind':14s} {'oracle':>10s} {'replay':>10s} {'ratio':>7s}")
    for kind, oracle_s, replay_s in rows:
        print(f"{kind:14s} {oracle_s * 1e3:8.1f} ms {replay_s * 1e3:8.1f} ms "
              f"{oracle_s / replay_s:6.1f}x")
    total_oracle = sum(r[1] for r in rows)
    total_replay = sum(r[2] for r in rows)
    print(f"{'TOTAL':14s} {total_oracle * 1e3:8.1f} ms {total_replay * 1e3:8.1f} ms "
          f"{total_oracle / total_replay:6.1f}x")
    assert total_oracle / total_replay > 1.5


def test_repeated_characterization_protocol():
    """Table I's miss-rate measurement, repeated as sweeps and table
    regenerations repeat it: the oracle with no memo regenerates and
    re-simulates every trace every rep; the shipped ``replay_pattern``
    behind ``TRACE_CACHE`` simulates once and serves every later rep
    from the memo."""
    reps = 5
    patterns = [dominant_spec(app, app.paper_config()).access for app in ALL_APPS]

    def oracle_miss_rate(pattern):
        spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
        return replay_once(LRUOracle, spec, generate_trace(pattern)).miss_rate

    def measure(miss_rate):
        started = time.perf_counter()
        for _ in range(reps):
            rates = [miss_rate(p) for p in patterns]
        return rates, time.perf_counter() - started

    oracle_rates, oracle_s = measure(oracle_miss_rate)
    TRACE_CACHE.clear()
    before = TRACE_CACHE.snapshot()
    memo_rates, memo_s = measure(lambda p: replay_pattern(p, R9_280X.l2_cache).miss_rate)
    memo = TRACE_CACHE.snapshot().since(before)
    TRACE_CACHE.clear()

    print(f"\nrepeated characterization ({reps} reps x {len(patterns)} patterns): "
          f"oracle/no memo {oracle_s * 1e3:.1f} ms, replay+memo "
          f"{memo_s * 1e3:.1f} ms, {oracle_s / memo_s:.1f}x "
          f"(trace memo {memo.hits} hits / {memo.misses} misses)")
    assert memo_rates == oracle_rates
    # Rep 1 misses once per pattern; every later rep hits.
    assert memo.misses == len(patterns)
    assert memo.hits == len(patterns) * (reps - 1)
    assert oracle_s / memo_s > 5.0
