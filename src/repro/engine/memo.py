"""Content-addressed memoization of kernel pricing.

One study prices the same kernels thousands of times: every solver
iteration relaunches the same :class:`~repro.engine.kernel.LoweredKernel`,
every model shares the OpenMP baseline loops, and the frequency sweep
re-prices each kernel per grid point.  The timing model and the
event-driven scheduler are pure functions of

    (lowered kernel, device state, precision[, threads])

so their results are cached here under a key built from the *content*
of those inputs (all field values, via the frozen dataclasses'
equality), never from object identity.  A cache hit is therefore
bit-identical to recomputation, and enabling the cache can never
change a study's numbers — only how often they are recomputed.

Every memo layer (kernel prices, problem setups, trace replays,
captured schedules, projection stubs, whole-run results) is one
:class:`MemoCache` registered by name in :data:`CACHES`; clearing, the
cache toggle and the per-layer hit/miss counters the executor and the
prediction service report all iterate that registry.  The caches are
per-process: the parallel executor (:mod:`repro.exec`) gives each
worker its own and aggregates the counters it reports.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import threading
import time
from collections import OrderedDict
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from ..hardware.device import GPUDevice
from ..hardware.specs import Precision
from ..obs import spans as obs_spans
from ..obs import tracing as obs_tracing
from .kernel import LoweredKernel
from .scheduler import ScheduleResult, simulate_kernel
from .timing import KernelTiming, time_gpu_kernel

T = TypeVar("T")


@dataclass(frozen=True)
class MemoStats:
    """Hit/miss counters of one cache at one point in time."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def since(self, earlier: "MemoStats") -> "MemoStats":
        """Counter delta between two snapshots."""
        return MemoStats(hits=self.hits - earlier.hits, misses=self.misses - earlier.misses)

    def __add__(self, other: "MemoStats") -> "MemoStats":
        return MemoStats(hits=self.hits + other.hits, misses=self.misses + other.misses)


class MemoCache:
    """A content-addressed memo table with hit/miss accounting.

    ``layer`` names the cache in :data:`CACHES` and in telemetry events;
    a lookup's telemetry ``kind`` is the first part of its key.
    """

    #: Whether the cache toggle (:func:`set_cache_enabled`,
    #: :func:`cache_setting`) governs this layer.
    toggled = True

    def __init__(self, layer: str, enabled: bool = True) -> None:
        self.layer = layer
        self.enabled = enabled
        self._values: dict[tuple, object] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._values)

    def _record(self, key: tuple, hit: bool) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        rec = obs_spans.active()
        if rec is not None:
            rec.cache_event(self.layer, hit=hit, kind=str(key[0]))

    def lookup(self, key: tuple, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it on miss."""
        if not self.enabled:
            return compute()
        try:
            value = self._values[key]
        except KeyError:
            self._record(key, hit=False)
            value = self._values[key] = compute()
            return value  # type: ignore[return-value]
        self._record(key, hit=True)
        return value  # type: ignore[return-value]

    def contains(self, key: tuple) -> bool:
        """Uncounted membership probe: the follow-up :meth:`lookup`
        does the official hit/miss accounting.  Always False when the
        cache is disabled, so callers batch-compute everything."""
        return self.enabled and key in self._values

    def snapshot(self) -> MemoStats:
        return MemoStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._values.clear()
        self._hits = 0
        self._misses = 0


#: The process-global cache backing the one-kernel pricing calls
#: (:func:`cached_time_gpu_kernel`, :func:`cached_simulate_kernel`)
#: that model validation and the ablations make; runs are priced
#: columnar from their charge logs and never look it up.
KERNEL_CACHE = MemoCache("kernel")

#: The process-global cache backing ``replay_pattern``: Table I miss
#: rates keyed on ``(pattern kind, pattern, scaled cache spec,
#: budget)``.  Trace generation is deterministic and the replay is a
#: pure function of (trace, cache spec), so a hit is bit-identical to
#: re-simulating.
TRACE_CACHE = MemoCache("trace")

#: The process-global cache backing schedule capture.  The study
#: engines (:mod:`repro.engine.study_vec`) run a port once in
#: projection mode to obtain its launch/transfer schedule, a pure function
#: of the spec's clock-independent content
#: (:meth:`repro.exec.plan.RunSpec.schedule_key`).  The captured
#: program is immutable and shared by every cell that differs only in
#: clocks, so one capture prices a whole frequency sweep.
PLAN_CACHE = MemoCache("plan")


class SingleFlightCache(MemoCache):
    """Thread-safe memo with single-flight coalescing of concurrent
    identical computations.

    The serving layer (:mod:`repro.serve`) memoizes whole run results
    here: many concurrent requests for the same
    :class:`~repro.exec.plan.RunSpec` must cost one engine run, not
    N.  :meth:`get_or_compute` elects the first caller of an absent
    key the *leader* — it computes while every concurrent duplicate
    blocks on an event and is tallied as *coalesced*; once the leader
    stores the value, followers return it without recomputing.  A
    leader that raises wakes its followers empty-handed and the next
    one retries, so failures are never cached.

    All bookkeeping happens under one lock, making the cache safe to
    share between an event loop and backend worker threads.  Engine
    results are deterministic pure functions of their spec, so a
    coalesced or cached answer is bit-identical to a fresh run.
    """

    toggled = False

    def __init__(self, enabled: bool = True) -> None:
        super().__init__("result", enabled)
        self._lock = threading.Lock()
        self._pending: dict[tuple, threading.Event] = {}
        self._coalesced = 0

    @property
    def coalesced(self) -> int:
        """Calls served by waiting on an identical in-flight compute."""
        return self._coalesced

    def record_coalesced(self, count: int = 1) -> None:
        """Tally coalesces detected by a caller's own in-flight map.

        The async batcher deduplicates identical requests on the event
        loop before they ever reach a worker thread; those joins are
        the same single-flight event and count in the same metric.
        """
        with self._lock:
            self._coalesced += count

    def peek(self, key: tuple) -> tuple[bool, object]:
        """Non-computing lookup: ``(True, value)`` on a hit (counted),
        ``(False, None)`` otherwise (not counted as a miss — the
        caller's follow-up :meth:`get_or_compute` does that)."""
        if not self.enabled:
            return False, None
        with self._lock:
            if key in self._values:
                self._hits += 1
                return True, self._values[key]
        return False, None

    def seed(self, key: tuple, value: object) -> None:
        """Install a value computed elsewhere (a persistent store, a
        warm-up pass) without counting a hit or a miss.  Existing
        entries win: a seed never replaces a value concurrent callers
        may already have observed."""
        if not self.enabled:
            return
        with self._lock:
            self._values.setdefault(key, value)

    def discard(self, key: tuple) -> None:
        """Drop one cached value (no-op when absent).

        The serve tier's chaos harness corrupts a store entry and then
        evicts it here, forcing the next request back through the
        store's corrupt-tolerant read path; an in-flight compute for
        the key is unaffected and will re-populate the entry."""
        with self._lock:
            self._values.pop(key, None)

    def get_or_compute(self, key: tuple, compute: Callable[[], T]) -> T:
        """Return the value for ``key``, computing it at most once
        across all concurrent callers."""
        if not self.enabled:
            return compute()
        while True:
            with self._lock:
                if key in self._values:
                    self._hits += 1
                    return self._values[key]  # type: ignore[return-value]
                event = self._pending.get(key)
                if event is None:
                    event = self._pending[key] = threading.Event()
                    self._misses += 1
                    leader = True
                else:
                    self._coalesced += 1
                    leader = False
            if leader:
                try:
                    value = compute()
                except BaseException:
                    with self._lock:
                        self._pending.pop(key, None)
                    event.set()
                    raise
                with self._lock:
                    self._values[key] = value
                    self._pending.pop(key, None)
                event.set()
                return value
            ctx = obs_tracing.current()
            wait_start = time.perf_counter()
            event.wait()
            if ctx is not None:
                # The follower's trace shows it waited for a leader
                # elected elsewhere (the leader's own trace carries the
                # compute span; this cross-trace link is the key).
                obs_tracing.TRACER.record(
                    "singleflight_wait", wait_start, time.perf_counter(),
                    parent=ctx, attrs={"layer": self.layer},
                )
            # Either the leader stored the value (next loop hits) or it
            # failed (this follower re-runs the election and computes).

    def snapshot(self) -> MemoStats:
        with self._lock:
            return MemoStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._hits = 0
            self._misses = 0
            self._coalesced = 0


#: The process-global whole-run result memo the prediction service
#: serves warm queries from.  Not toggled by :func:`set_cache_enabled`
#: (that switch governs engine-internal recomputation purity); the
#: server decides whether to use it.
RESULT_CACHE = SingleFlightCache()


class LruMemoCache(MemoCache):
    """A bounded LRU memo that hands its values out by reference.

    At most ``maxsize`` entries stay resident; a hit refreshes its
    entry's recency.
    """

    def __init__(self, layer: str, maxsize: int, enabled: bool = True) -> None:
        super().__init__(layer, enabled)
        self.maxsize = maxsize
        self._values: OrderedDict[tuple, object] = OrderedDict()

    def lookup(self, key: tuple, compute: Callable[[], T]) -> T:
        if not self.enabled:
            return compute()
        if key in self._values:
            self._values.move_to_end(key)
            self._record(key, hit=True)
            return self._values[key]  # type: ignore[return-value]
        self._record(key, hit=False)
        value = self._values[key] = compute()
        while len(self._values) > self.maxsize:
            self._values.popitem(last=False)
        return value


class SetupMemoCache(LruMemoCache):
    """A bounded LRU memo for problem-setup builders.

    Every port of one application rebuilds the identical problem data
    (the CoMD lattice, the XSBench grids, the miniFE matrix) for each
    (model, platform, precision) cell a functional study runs.  The
    builders are deterministic functions of ``(config, precision[,
    seed])``, so their outputs are memoized here.

    Every stored value is **frozen** (each array reachable through its
    dataclass fields and tuples is read-only) and handed out as a
    **deep copy**, writable and private: functional kernels mutate the
    state they receive, and a copy of a deterministic build is
    bit-identical to a fresh build.  A miss stores a frozen deep copy
    and returns the build itself.  Projection runs never get here:
    they capture their schedule with projection stubs
    (:data:`STUB_CACHE`).
    """

    def lookup(self, key: tuple, compute: Callable[[], T]) -> T:
        if not self.enabled:
            return compute()
        built: list[T] = []

        def build() -> T:
            built.append(compute())
            return _freeze(copy.deepcopy(built[0]))

        stored = super().lookup(key, build)
        return built[0] if built else copy.deepcopy(stored)


def _freeze(value: T) -> T:
    """Mark every array reachable from ``value`` read-only; ``value``.

    Walks dataclass fields and tuples: the shapes problem setups take
    (an array, a tuple of arrays, or a state dataclass of arrays and
    host scalars).
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for item in vars(value).values():
            _freeze(item)
    return value


#: The process-global cache backing the apps' ``make_*``/``assemble``
#: problem builders; at most four problem instances stay resident.
SETUP_CACHE = SetupMemoCache("setup", maxsize=4)

#: Cross-capture memo for projection stub builds.  One schedule capture
#: exists per (app, model, platform, precision) cell, but the stub
#: build depends only on (config, precision): without sharing,
#: capturing a whole study rebuilds the same stub state ~20 times per
#: app.  Shared **by reference** (no copies), which is safe because
#: stub arrays are read-only: a port's host write to one raises instead
#: of leaking into the next capture.  Stubs that carry a checksum
#: compute it once, at build; the only state a port can still change is
#: a host scalar no schedule or checksum reads (LULESH's
#: ``dt``/``time``).
STUB_CACHE = LruMemoCache("stub", maxsize=8)

#: Every memo layer of this process, by name, in report order.
#: :func:`clear_caches` and :func:`snapshot` cover them all; the cache
#: toggle governs the layers whose ``toggled`` is set (engine-internal
#: recomputation; not :data:`RESULT_CACHE`).
CACHES: dict[str, MemoCache] = {
    cache.layer: cache
    for cache in (KERNEL_CACHE, SETUP_CACHE, TRACE_CACHE, PLAN_CACHE, STUB_CACHE, RESULT_CACHE)
}


#: Registered projection stubs: (builder module, builder qualname) ->
#: a cheap builder producing state with the real shapes/dtypes but no
#: data.  Used only inside :func:`projection_stubs` blocks.
PROJECTION_STUBS: dict[tuple[str, str], Callable[..., object]] = {}

_STUB_STATE = threading.local()


def projection_stub(builder: Callable[..., T]) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Register a shape-faithful stand-in for a ``memoized_setup`` builder.

    Inside a :func:`projection_stubs` block the stub replaces the real
    builder (bypassing :data:`SETUP_CACHE` and its deep copies).  A stub
    must reproduce every array shape and dtype the port's schedule
    depends on — kernel specs, buffer sizes and loop trip counts are
    all shape-derived in projection mode, where kernel bodies never
    execute — but may leave the data itself zeroed.  Its arrays must be
    read-only, because :data:`STUB_CACHE` shares one build between
    captures.
    """

    def register(stub: Callable[..., T]) -> Callable[..., T]:
        PROJECTION_STUBS[(builder.__module__, builder.__qualname__)] = stub
        return stub

    return register


@contextmanager
def projection_stubs() -> Iterator[None]:
    """Serve registered stubs instead of real problem builds.

    Only meaningful for projection-mode schedule capture: functional
    runs read the data and must never see stubs.
    """
    previous = getattr(_STUB_STATE, "active", False)
    _STUB_STATE.active = True
    try:
        yield
    finally:
        _STUB_STATE.active = previous


def memoized_setup(builder: Callable[..., T]) -> Callable[..., T]:
    """Back a deterministic problem builder with :data:`SETUP_CACHE`.

    The key is the builder's qualified name plus the ``repr`` of its
    bound arguments with defaults applied (the apps' config dataclasses
    repr every field), so equal-content calls share one build
    regardless of object identity or of how the arguments were spelled:
    ``make_state(cfg, p)``, ``make_state(cfg, p, 11)`` and
    ``make_state(cfg, p, seed=11)`` are one entry.  Inside a
    :func:`projection_stubs` block a registered stub is built instead,
    through :data:`STUB_CACHE` under the same key.
    """
    signature = inspect.signature(builder)
    name = (builder.__module__, builder.__qualname__)

    @functools.wraps(builder)
    def wrapper(*args: object, **kwargs: object) -> T:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        args, kwargs = bound.args, bound.kwargs
        # The qualname leads: it is the lookup's telemetry kind.
        key = (builder.__qualname__, builder.__module__, repr(args), repr(sorted(kwargs.items())))
        if getattr(_STUB_STATE, "active", False):
            stub = PROJECTION_STUBS.get(name)
            if stub is not None:
                return STUB_CACHE.lookup(key, lambda: stub(*args, **kwargs))
        return SETUP_CACHE.lookup(key, lambda: builder(*args, **kwargs))

    return wrapper


def snapshot() -> dict[str, MemoStats]:
    """Every registered layer's counters, by name."""
    return {name: cache.snapshot() for name, cache in CACHES.items()}


def since(before: dict[str, MemoStats]) -> dict[str, MemoStats]:
    """Every layer's counter delta since the :func:`snapshot` ``before``."""
    return {name: stats.since(before[name]) for name, stats in snapshot().items()}


def set_cache_enabled(enabled: bool) -> None:
    """Enable or disable every toggled memo layer."""
    for cache in CACHES.values():
        if cache.toggled:
            cache.enabled = enabled


def clear_caches() -> None:
    """Drop all memoized values and counters in this process."""
    for cache in CACHES.values():
        cache.clear()


@contextmanager
def cache_setting(enabled: bool) -> Iterator[None]:
    """Apply the cache toggle within the block, restoring each layer's
    prior state on exit."""
    previous = {cache: cache.enabled for cache in CACHES.values() if cache.toggled}
    set_cache_enabled(enabled)
    try:
        yield
    finally:
        for cache, was_enabled in previous.items():
            cache.enabled = was_enabled


def cache_disabled() -> AbstractContextManager[None]:
    """Force recomputation within the block (e.g. for cross-checks)."""
    return cache_setting(False)


def gpu_state_key(gpu: GPUDevice) -> tuple:
    """Everything about a GPU the timing model reads: the (frozen)
    spec plus the two mutable clock domains the sweeps adjust."""
    return (gpu.spec, gpu.core_clock.current_mhz, gpu.memory_clock.current_mhz)


def cached_time_gpu_kernel(
    lowered: LoweredKernel, gpu: GPUDevice, precision: Precision
) -> KernelTiming:
    """Memoized :func:`repro.engine.timing.time_gpu_kernel`."""
    key = ("gpu-timing", lowered.cache_key(), gpu_state_key(gpu), precision)
    return KERNEL_CACHE.lookup(key, lambda: time_gpu_kernel(lowered, gpu, precision))


def cached_simulate_kernel(
    lowered: LoweredKernel, gpu: GPUDevice, precision: Precision
) -> ScheduleResult:
    """Memoized :func:`repro.engine.scheduler.simulate_kernel`."""
    key = ("schedule", lowered.cache_key(), gpu_state_key(gpu), precision)
    return KERNEL_CACHE.lookup(key, lambda: simulate_kernel(lowered, gpu, precision))
