"""Exact cache-replay counters pinned as a golden snapshot.

Table I's miss rates are range-checked elsewhere; this pins the exact
``accesses``/``hits``/``misses``/``evictions`` of the warm-up and the
measured replay behind them, so any change to the LRU engine or the
trace generators that moves a single counter fails here.  Two trace
sets are covered: each application's dominant pattern at its paper
configuration (the Table I measurement), and one pattern of every
:class:`~repro.engine.kernel.AccessKind` as timed by
``benchmarks/test_perf_cache_replay.py``.
"""

import dataclasses

from repro.apps import ALL_APPS
from repro.core.characterize import dominant_spec
from repro.engine.kernel import AccessKind, AccessPattern
from repro.engine.memo import cache_disabled
from repro.engine.trace import (
    DEFAULT_TRACE_BUDGET,
    generate_trace,
    replay_pattern,
    scaled_cache_spec,
)
from repro.hardware.cache import SetAssociativeCache
from repro.hardware.specs import R9_280X

#: Trace budget of the per-kind patterns (the replay benchmark's).
KIND_BUDGET = 100_000


def kind_pattern(kind: AccessKind) -> AccessPattern:
    """The replay benchmark's pattern for ``kind``."""
    overrides = {"table_entries": 700_000} if kind is AccessKind.BINARY_SEARCH else {}
    return AccessPattern(
        kind=kind, working_set_bytes=64 * 1024 * 1024, request_bytes=4,
        reuse_fraction=0.3, **overrides,
    )


def replay_counters(pattern: AccessPattern, budget: int) -> dict:
    """Warm-up and measured counters of ``replay_pattern``'s protocol,
    cross-checked against ``replay_pattern`` itself."""
    spec, _ = scaled_cache_spec(pattern, R9_280X.l2_cache)
    trace = generate_trace(pattern, budget=budget)
    cache = SetAssociativeCache(spec)
    warmup = cache.replay(trace[: len(trace) // 4])
    measured = cache.replay(trace)
    with cache_disabled():
        assert replay_pattern(pattern, R9_280X.l2_cache, budget=budget).stats == measured
    return {"warmup": dataclasses.asdict(warmup), "measured": dataclasses.asdict(measured)}


def test_cache_replay_matches_golden(golden):
    table = {
        "dominant": {
            app.name: replay_counters(
                dominant_spec(app, app.paper_config()).access, DEFAULT_TRACE_BUDGET
            )
            for app in ALL_APPS
        },
        "kinds": {kind.value: replay_counters(kind_pattern(kind), KIND_BUDGET)
                  for kind in AccessKind},
    }
    golden("cache_replay", table)
