"""Set-associative LRU cache simulator.

Table I of the paper characterises each proxy application by its
last-level-cache miss rate (11% LULESH ... 53% XSBench).  Rather than
hard-coding those numbers, the reproduction measures them: each
application's kernels generate synthetic address traces (see
``repro.engine.trace``) that are replayed through this LRU
set-associative model.

:meth:`SetAssociativeCache.replay` takes whole address arrays: numpy
passes strip the touches that are hits by construction and bucket the
rest by set, and only what survives reaches the per-set LRU dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .specs import CacheSpec


def validate_geometry(spec: CacheSpec) -> None:
    """Reject specs whose size is not a whole number of sets."""
    if spec.size_bytes % (spec.line_bytes * spec.ways) != 0:
        raise ValueError(
            f"cache size {spec.size_bytes} not divisible by "
            f"line_bytes*ways = {spec.line_bytes * spec.ways}"
        )


@dataclass
class CacheStats:
    """Hit/miss counters accumulated over a trace replay."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def copy(self) -> "CacheStats":
        """Snapshot of the counters at this point in time."""
        return CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter delta between two snapshots (per-replay stats from
        cumulative counters)."""
        return CacheStats(
            accesses=self.accesses - earlier.accesses,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combine counters from two replays (e.g. per-kernel stats)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class SetAssociativeCache:
    """An LRU set-associative cache replaying byte-address traces.

    State is one insertion-ordered dict of tags per set, least recently
    used first, so a hit moves its tag to the end and a miss in a full
    set evicts the first one.  State persists across :meth:`replay`
    calls, which the warm-up/measure protocol of ``repro.engine.trace``
    relies on.
    """

    def __init__(self, spec: CacheSpec) -> None:
        validate_geometry(spec)
        self.spec = spec
        self.n_sets = spec.sets
        self._sets: list[dict[int, None]] = [{} for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Flush contents and zero the counters."""
        self._sets = [{} for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return self.replay((address,)).hits == 1

    def replay(self, addresses: Iterable[int]) -> CacheStats:
        """Replay a trace, returning the stats delta for this trace.

        Accepts a list, range or int64 array of non-negative byte
        addresses.  Touches that repeat the previous touch of the same
        set hit and leave the LRU order alone, so they are counted in
        bulk; the rest run through each touched set's dict in program
        order.
        """
        lines = np.asarray(addresses, dtype=np.int64) // self.spec.line_bytes
        n = int(lines.size)
        before = self.stats.copy()
        if not n:
            return self.stats.since(before)
        if lines.min() < 0:
            raise ValueError("cache replay requires non-negative addresses")

        # Consecutive touches of one line: every repeat is a hit.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        lines = lines[keep]

        # Bucket by set.  Positions make the keys unique, so the sort
        # keeps each set's program order, the only order LRU depends on.
        m = int(lines.size)
        key = ((lines % self.n_sets) << 32) | np.arange(m, dtype=np.int64)
        key.sort()
        sets = key >> 32
        key &= 0xFFFFFFFF
        tags = lines[key]

        # Repeats of a set's MRU line, adjacent once bucketed, are hits.
        # Tags are whole line numbers, so equal neighbours share a set
        # and every bucket's first touch (``first``) is kept.
        keep = np.empty(m, dtype=bool)
        keep[0] = True
        np.not_equal(tags[1:], tags[:-1], out=keep[1:])
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(sets[1:], sets[:-1], out=first[1:])
        tags = tags[keep].tolist()
        starts = np.flatnonzero(first[keep]).tolist()
        ends = [*starts[1:], len(tags)]

        # The LRU step.  Every miss fills a way or evicts, so evictions
        # are the misses less the growth in resident lines.
        ways = self.spec.ways
        hits = n - len(tags)
        grown = 0
        for set_idx, lo, hi in zip(sets[first].tolist(), starts, ends):
            lru = self._sets[set_idx]
            resident = len(lru)
            unlink = lru.pop
            for tag in tags[lo:hi]:
                # One lookup unlinks a resident tag (stored value None);
                # an absent one returns the default.
                if unlink(tag, 0) is None:
                    hits += 1
                elif len(lru) >= ways:
                    del lru[next(iter(lru))]
                lru[tag] = None
            grown += len(lru) - resident

        misses = n - hits
        self.stats.accesses += n
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += misses - grown
        return self.stats.since(before)

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached (for invariants in tests)."""
        return sum(len(ways) for ways in self._sets)
