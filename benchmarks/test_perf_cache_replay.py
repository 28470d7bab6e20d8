"""Microbenchmark: scalar vs vectorized cache replay.

Times one characterization-sized replay of every
:class:`~repro.engine.kernel.AccessKind` through both engines and
prints the ratio table, then times the repeated Table I
characterization protocol.  Both engines must agree bit for bit, and
each measurement holds an absolute floor far below what any machine
measures (about 4-6x on the summed replay, 18-30x on the protocol), so
only a real regression of the vector engine or the trace memo trips
it.  Marked ``perf`` so a plain run can deselect it
(``pytest benchmarks -m 'not perf'``).
"""

import time

import pytest

from repro.apps import ALL_APPS
from repro.core.characterize import dominant_spec
from repro.engine.kernel import AccessKind, AccessPattern
from repro.engine.memo import TRACE_CACHE, cache_disabled
from repro.engine.trace import (
    generate_trace,
    make_replay_cache,
    replay_pattern,
    scaled_cache_spec,
)
from repro.hardware.specs import R9_280X

pytestmark = pytest.mark.perf

BUDGET = 100_000


def make_pattern(kind: AccessKind) -> AccessPattern:
    overrides = {"table_entries": 700_000} if kind is AccessKind.BINARY_SEARCH else {}
    return AccessPattern(
        kind=kind, working_set_bytes=64 * 1024 * 1024, request_bytes=4,
        reuse_fraction=0.3, **overrides,
    )


def replay_once(engine: str, spec, trace):
    cache = make_replay_cache(spec, engine)
    cache.replay(trace[: len(trace) // 4])
    return cache.replay(trace)


@pytest.mark.parametrize("kind", list(AccessKind))
def test_vector_engine_speedup(benchmark, kind):
    """Benchmark the vector engine; cross-check the scalar reference."""
    pattern = make_pattern(kind)
    spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
    trace = generate_trace(pattern, budget=BUDGET)
    expected = replay_once("scalar", spec, trace)
    stats = benchmark.pedantic(
        lambda: replay_once("vector", spec, trace), rounds=3, iterations=1
    )
    assert stats == expected


def test_ratio_table():
    """Print the per-kind scalar/vector ratio table (run with -s)."""
    rows = []
    for kind in AccessKind:
        pattern = make_pattern(kind)
        spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
        trace = generate_trace(pattern, budget=BUDGET)
        timings = {}
        results = {}
        for engine in ("scalar", "vector"):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                results[engine] = replay_once(engine, spec, trace)
                best = min(best, time.perf_counter() - started)
            timings[engine] = best
        assert results["scalar"] == results["vector"]
        rows.append((kind.value, timings["scalar"], timings["vector"]))
    print(f"\n{'kind':14s} {'scalar':>10s} {'vector':>10s} {'ratio':>7s}")
    for kind, scalar_s, vector_s in rows:
        print(f"{kind:14s} {scalar_s * 1e3:8.1f} ms {vector_s * 1e3:8.1f} ms "
              f"{scalar_s / vector_s:6.1f}x")
    total_scalar = sum(r[1] for r in rows)
    total_vector = sum(r[2] for r in rows)
    print(f"{'TOTAL':14s} {total_scalar * 1e3:8.1f} ms {total_vector * 1e3:8.1f} ms "
          f"{total_scalar / total_vector:6.1f}x")
    assert total_scalar / total_vector > 1.5


def test_repeated_characterization_protocol():
    """Table I's miss-rate measurement, repeated as sweeps and table
    regenerations repeat it: the scalar engine with no memo re-simulates
    every rep; the shipped vector engine behind ``TRACE_CACHE``
    simulates once and serves every later rep from the memo."""
    reps = 5
    patterns = [dominant_spec(app, app.paper_config()).access for app in ALL_APPS]

    def measure(engine):
        started = time.perf_counter()
        for _ in range(reps):
            rates = [
                replay_pattern(p, R9_280X.l2_cache, engine=engine).miss_rate
                for p in patterns
            ]
        return rates, time.perf_counter() - started

    with cache_disabled():
        scalar_rates, scalar_s = measure("scalar")
    TRACE_CACHE.clear()
    before = TRACE_CACHE.snapshot()
    vector_rates, vector_s = measure("vector")
    memo = TRACE_CACHE.snapshot().since(before)
    TRACE_CACHE.clear()

    print(f"\nrepeated characterization ({reps} reps x {len(patterns)} patterns): "
          f"scalar/no memo {scalar_s * 1e3:.1f} ms, vector+memo "
          f"{vector_s * 1e3:.1f} ms, {scalar_s / vector_s:.1f}x "
          f"(trace memo {memo.hits} hits / {memo.misses} misses)")
    assert vector_rates == scalar_rates
    # Rep 1 misses once per pattern; every later rep hits.
    assert memo.misses == len(patterns)
    assert memo.hits == len(patterns) * (reps - 1)
    assert scalar_s / vector_s > 5.0
