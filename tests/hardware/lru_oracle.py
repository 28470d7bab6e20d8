"""Per-access LRU reference model, the test oracle for the cache engine.

The plainest possible statement of the policy: one insertion-ordered
dict per set, one Python step per byte address.  Tests replay the same
traces through it and through :class:`~repro.hardware.cache.SetAssociativeCache`
and require identical counters and residency.
"""

from repro.hardware.cache import CacheStats, validate_geometry


class LRUOracle:
    def __init__(self, spec):
        validate_geometry(spec)
        self.spec = spec
        self._sets = [{} for _ in range(spec.sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        line = address // self.spec.line_bytes
        ways = self._sets[line % self.spec.sets]
        self.stats.accesses += 1
        if line in ways:
            del ways[line]
            ways[line] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.spec.ways:
            del ways[next(iter(ways))]
            self.stats.evictions += 1
        ways[line] = None
        return False

    def replay(self, addresses) -> CacheStats:
        """Replay a trace, returning the stats delta for this trace."""
        if hasattr(addresses, "tolist"):
            addresses = addresses.tolist()
        before = self.stats.copy()
        for address in addresses:
            self.access(address)
        return self.stats.since(before)

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
