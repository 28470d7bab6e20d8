"""Synthetic memory-trace generation.

Table I of the paper reports each proxy application's last-level-cache
miss rate.  We reproduce the measurement rather than the number: each
kernel's :class:`~repro.engine.kernel.AccessPattern` is expanded into a
concrete byte-address trace here, then replayed through the
set-associative cache model (``repro.hardware.cache``).

Traces are sampled: replaying the full footprint of a paper-sized run
is unnecessary because miss rates converge quickly once the trace is a
few multiples of the cache.  When a working set greatly exceeds the
trace budget, the footprint and the cache are scaled together, which
preserves the capacity-miss behaviour.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from ..hardware.cache import CacheStats, SetAssociativeCache
from ..hardware.specs import CacheSpec
from ..obs import spans as obs_spans
from .kernel import AccessKind, AccessPattern

#: Upper bound on generated trace length (addresses).
DEFAULT_TRACE_BUDGET = 200_000

#: Footprints larger than this are scaled down together with the cache.
DEFAULT_FOOTPRINT_CAP = 16 * 1024 * 1024


@dataclass(frozen=True)
class TraceResult:
    """Outcome of replaying a pattern through a cache model."""

    pattern: AccessPattern
    stats: CacheStats
    scale: float  # footprint/cache scaling factor applied (<=1)

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


def _rng(pattern: AccessPattern) -> np.random.Generator:
    """Deterministic per-pattern RNG (same pattern -> same trace).

    Seeded from a stable digest of the pattern's content — never from
    Python's ``hash()``, whose string hashing is salted per process
    (PYTHONHASHSEED), which would make identical patterns generate
    different traces across processes.
    """
    canonical = (
        f"{pattern.kind.value}|{int(pattern.working_set_bytes)}|{pattern.table_entries}"
    )
    return np.random.default_rng(zlib.crc32(canonical.encode("ascii")))


def generate_trace(pattern: AccessPattern, budget: int = DEFAULT_TRACE_BUDGET) -> np.ndarray:
    """Byte-address trace (int64 array) realising ``pattern``.

    The trace is generated over ``min(working_set, FOOTPRINT_CAP)``
    bytes; callers that scale the footprint must scale the cache too
    (``replay_pattern`` does this automatically).
    """
    footprint = int(min(pattern.working_set_bytes, DEFAULT_FOOTPRINT_CAP))
    footprint = max(footprint, 4 * pattern.request_bytes)
    step = max(1, pattern.request_bytes)
    rng = _rng(pattern)

    if pattern.kind is AccessKind.STREAMING:
        n = min(budget, footprint // step)
        base = (np.arange(n, dtype=np.int64) * step) % footprint
        return _interleave_reuse(base, pattern.reuse_fraction, rng)

    if pattern.kind is AccessKind.STENCIL:
        # Sweep a 3D structured grid touching the 7-point neighbourhood:
        # the planes of the previous sweep stay resident, giving the
        # high locality LULESH shows.
        elems = footprint // step
        side = max(4, int(round(elems ** (1.0 / 3.0))))
        n_cells = min(budget // 7, side**3)
        idx = np.arange(n_cells, dtype=np.int64)
        offsets = np.array([0, 1, -1, side, -side, side * side, -side * side], dtype=np.int64)
        addrs = ((idx[:, None] + offsets[None, :]) % (side**3)) * step
        return addrs.reshape(-1)

    if pattern.kind is AccessKind.NEIGHBOR_LIST:
        # Particles grouped in cells; each cell re-reads its 27
        # neighbouring cells' particles.  Adjacent particles share
        # lines; neighbouring cells revisit recently-touched spans.
        elems = footprint // step
        particles_per_cell = 16
        n_cells = max(8, elems // particles_per_cell)
        side = max(2, int(round(n_cells ** (1.0 / 3.0))))
        n_cells = side**3
        visits = min(budget // (27 * 4), n_cells)
        cells = np.arange(visits, dtype=np.int64)
        neigh = np.array(
            [dx + dy * side + dz * side * side for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
            dtype=np.int64,
        )
        cell_ids = (cells[:, None] + neigh[None, :]) % n_cells
        # Sample 4 particles per visited neighbour cell.
        samples = rng.integers(0, particles_per_cell, size=(visits, 27, 4))
        addrs = (cell_ids[:, :, None] * particles_per_cell + samples) * step
        return addrs.reshape(-1) % footprint

    if pattern.kind is AccessKind.BINARY_SEARCH:
        # Each lookup descends a sorted table (upper levels shared
        # across lookups, cache-resident; leaves effectively random)
        # and then gathers the associated data rows — index-matrix row
        # plus interpolation points — scattered over the whole table.
        # The data gathers are what push XSBench to Table I's 53%.
        entries = pattern.table_entries or footprint // step
        entries = min(entries, footprint // step)
        levels = max(1, int(math.ceil(math.log2(max(2, entries)))))
        data_rows = 16
        n_lookups = max(1, budget // (levels + 1 + data_rows))
        targets = rng.integers(0, entries, size=n_lookups)
        addrs = np.empty((n_lookups, levels + 1 + data_rows), dtype=np.int64)
        lo = np.zeros(n_lookups, dtype=np.int64)
        hi = np.full(n_lookups, entries, dtype=np.int64)
        for level in range(levels):
            mid = (lo + hi) // 2
            addrs[:, level] = mid * step
            go_right = targets > mid
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(go_right, mid, hi)
        addrs[:, levels] = targets * step
        lines = footprint // 64
        addrs[:, levels + 1 :] = rng.integers(0, max(1, lines), size=(n_lookups, data_rows)) * 64
        return addrs.reshape(-1) % footprint

    if pattern.kind is AccessKind.CSR_SPMV:
        # Stream matrix values and column indices (no reuse), and
        # gather x with the 27-point FEM sparsity: column offsets of
        # {-1, 0, +1} x {-side, 0, +side} x {-side^2, 0, +side^2}.  The
        # plane-distance gathers (side^2 strides) are what defeat the
        # cache on paper-sized meshes (Table I: 39%).
        # A GPU runs many rows concurrently: model 128 far-apart row
        # streams interleaved access-by-access, which divides the cache
        # between streams and defeats the x-window locality a single
        # serial sweep would enjoy.
        concurrency = 128
        elems = footprint // step
        n_rows = max(64, elems // 27)
        side = max(4, int(round(n_rows ** (1.0 / 3.0))))
        nnz = min(budget // 2, elems)
        lane = np.arange(nnz, dtype=np.int64) % concurrency
        pos = np.arange(nnz, dtype=np.int64) // concurrency
        rows = np.mod(lane * (n_rows // concurrency) + pos // 27, n_rows)
        stream_idx = np.mod(rows * 27 + pos % 27, elems)
        stream = stream_idx * step
        d1 = rng.integers(-1, 2, size=nnz)
        d2 = rng.integers(-1, 2, size=nnz) * side
        d3 = rng.integers(-1, 2, size=nnz) * side * side
        x_idx = np.mod(rows + d1 + d2 + d3, n_rows)
        gather = (footprint // 2 + x_idx * step) % footprint
        trace = np.empty(nnz * 2, dtype=np.int64)
        trace[0::2] = stream
        trace[1::2] = gather
        return trace

    raise AssertionError(f"unhandled access kind {pattern.kind}")


def _interleave_reuse(base: np.ndarray, reuse_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Mix re-touches of recent addresses into a base stream."""
    if reuse_fraction <= 0 or len(base) < 16:
        return base
    n_reuse = int(len(base) * reuse_fraction)
    positions = np.sort(rng.integers(8, len(base), size=n_reuse))
    lookback = rng.integers(1, 8, size=n_reuse)
    out = []
    prev = 0
    for pos, back in zip(positions, lookback):
        out.append(base[prev:pos])
        out.append(base[pos - back : pos - back + 1])
        prev = pos
    out.append(base[prev:])
    return np.concatenate(out)


def scaled_cache_spec(
    pattern: AccessPattern, cache_spec: CacheSpec
) -> tuple[CacheSpec, float]:
    """The cache spec a replay of ``pattern`` actually simulates.

    When the pattern's working set exceeds the trace footprint cap the
    cache is scaled down by the same ratio, preserving the working-set
    to cache-size ratio that drives capacity misses.  This scaled spec
    (not the nominal one) keys the trace memo cache.
    """
    scale = 1.0
    if pattern.working_set_bytes > DEFAULT_FOOTPRINT_CAP:
        scale = DEFAULT_FOOTPRINT_CAP / pattern.working_set_bytes
    size = int(cache_spec.size_bytes * scale)
    # Keep geometry legal: at least one set, same line size and ways.
    min_size = cache_spec.line_bytes * cache_spec.ways
    size = max(min_size, (size // min_size) * min_size)
    return (
        CacheSpec(size_bytes=size, line_bytes=cache_spec.line_bytes, ways=cache_spec.ways),
        scale,
    )


def replay_pattern(
    pattern: AccessPattern,
    cache_spec: CacheSpec,
    budget: int = DEFAULT_TRACE_BUDGET,
) -> TraceResult:
    """Measure ``pattern``'s miss rate on a cache of ``cache_spec``.

    Replays run array-native through
    :class:`~repro.hardware.cache.SetAssociativeCache` and are memoized
    content-addressed in :data:`~repro.engine.memo.TRACE_CACHE`:
    repeated characterizations of the same (pattern, scaled cache,
    budget) hit instead of re-simulating, and a hit is bit-identical
    to a fresh replay.
    """
    from .memo import TRACE_CACHE  # late: keep this module importable standalone

    scaled_spec, scale = scaled_cache_spec(pattern, cache_spec)

    def compute() -> TraceResult:
        rec = obs_spans.current()
        with rec.span("characterize", f"generate:{pattern.kind.value}", "trace",
                      budget=budget):
            trace = generate_trace(pattern, budget=budget)
        cache = SetAssociativeCache(scaled_spec)
        with rec.span("characterize", f"replay:{pattern.kind.value}", "trace",
                      accesses=len(trace)):
            # Warm-up pass then measured pass: Table I reports steady state.
            cache.replay(trace[: len(trace) // 4])
            measured = cache.replay(trace)
        return TraceResult(pattern=pattern, stats=measured, scale=scale)

    key = (pattern.kind.value, pattern, scaled_spec, budget)
    return TRACE_CACHE.lookup(key, compute)
