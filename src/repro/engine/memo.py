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

The cache is per-process.  The parallel executor
(:mod:`repro.exec`) gives each worker its own instance and aggregates
the hit/miss counters it reports.
"""

from __future__ import annotations

import copy
import functools
import inspect
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from ..hardware.device import CPUDevice, GPUDevice
from ..hardware.specs import Precision
from ..obs import spans as obs_spans
from ..obs import tracing as obs_tracing
from .kernel import KernelSpec, LoweredKernel
from .scheduler import ScheduleResult, simulate_kernel
from .timing import KernelTiming, time_cpu_kernel, time_gpu_kernel

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


class KernelMemoCache:
    """A content-addressed memo table with hit/miss accounting.

    ``layer`` names the cache in telemetry events ("kernel" pricing by
    default); subclasses reuse the machinery for other layers.
    """

    layer = "kernel"

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._values: dict[tuple, object] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._values)

    def lookup(self, key: tuple, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it on miss."""
        if not self.enabled:
            return compute()
        rec = obs_spans.active()
        try:
            value = self._values[key]
            self._hits += 1
            if rec is not None:
                rec.cache_event(self.layer, hit=True, kind=str(key[0]))
            return value  # type: ignore[return-value]
        except KeyError:
            self._misses += 1
            if rec is not None:
                rec.cache_event(self.layer, hit=False, kind=str(key[0]))
            value = compute()
            self._values[key] = value
            return value

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


#: The process-global cache backing every ``charge_*`` pricing call.
KERNEL_CACHE = KernelMemoCache()


class TraceMemoCache(KernelMemoCache):
    """Content-addressed memo for trace replays (Table I miss rates).

    Keys are ``(pattern kind, pattern, scaled cache spec, budget)`` —
    the full content of a characterization replay.  Trace generation is
    deterministic (stable per-pattern seeding) and both replay engines
    are pure functions of (trace, cache spec), so a hit is bit-identical
    to re-simulating: sweeps, per-device replays and repeated benchmark
    runs pay the ~200k-access simulation once per content.

    The stored value is the full :class:`~repro.engine.trace.TraceResult`;
    the engine that computed it is deliberately *not* part of the key —
    the vectorized and scalar engines are asserted bit-identical, so
    either may serve the other's lookups.
    """

    layer = "trace"


#: The process-global cache backing ``replay_pattern``.
TRACE_CACHE = TraceMemoCache()


class PlanMemoCache(KernelMemoCache):
    """Content-addressed memo for captured charge schedules.

    The columnar study engine (:mod:`repro.engine.study_vec`) replays a
    port once in *capture* mode to obtain its launch/transfer schedule
    — a pure function of the spec's clock-independent content
    (:meth:`repro.exec.plan.RunSpec.schedule_key`), since GPU clock
    overrides change prices but never which kernels launch.  The
    captured program is immutable and shared by every cell of a study
    that differs only in clocks, so one capture prices a whole
    frequency sweep.
    """

    layer = "plan"


#: The process-global cache backing schedule capture.
PLAN_CACHE = PlanMemoCache()


class SingleFlightCache(KernelMemoCache):
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

    layer = "result"

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
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


class SetupMemoCache:
    """A bounded LRU memo for problem-setup builders.

    Every port of one application rebuilds the identical problem data
    (the CoMD lattice, the XSBench grids, the miniFE matrix) for each
    (model, platform, precision) cell of a study — by far the
    dominant per-run cost at paper scale.  The builders are
    deterministic functions of ``(config, precision[, seed])``, so
    their outputs are memoized here.

    Hits return a **deep copy** of the stored value: ports are free to
    mutate the state they receive, and a copy of a deterministic
    build is bit-identical to a fresh build.  The LRU bound keeps at
    most ``maxsize`` problem instances resident per process.
    """

    def __init__(self, maxsize: int = 4, enabled: bool = True) -> None:
        self.maxsize = maxsize
        self.enabled = enabled
        self._values: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._values)

    def lookup(self, key: tuple, compute: Callable[[], T]) -> T:
        if not self.enabled:
            return compute()
        rec = obs_spans.active()
        if key in self._values:
            self._hits += 1
            self._values.move_to_end(key)
            if rec is not None:
                rec.cache_event("setup", hit=True, kind=str(key[1]))
            return copy.deepcopy(self._values[key])  # type: ignore[return-value]
        self._misses += 1
        if rec is not None:
            rec.cache_event("setup", hit=False, kind=str(key[1]))
        value = compute()
        self._values[key] = copy.deepcopy(value)
        while len(self._values) > self.maxsize:
            self._values.popitem(last=False)
        return value

    def snapshot(self) -> MemoStats:
        return MemoStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        self._values.clear()
        self._hits = 0
        self._misses = 0


#: The process-global cache backing the apps' ``make_*``/``assemble``
#: problem builders.
SETUP_CACHE = SetupMemoCache()


#: Registered projection stubs: (builder module, builder qualname) ->
#: a cheap builder producing state with the real shapes/dtypes but no
#: data.  Used only inside :func:`projection_stubs` blocks.
PROJECTION_STUBS: dict[tuple[str, str], Callable[..., object]] = {}

_STUB_STATE = threading.local()

#: Cross-capture memo for stub builds.  One schedule capture exists per
#: (app, model, platform, precision) cell, but the stub build depends
#: only on (config, precision): without sharing, capturing a whole
#: study rebuilds the same stub state ~20 times per app.  Shared **by
#: reference** (no deep copies), which is safe because stub arrays are
#: read-only: a port's host write to one raises instead of leaking into
#: the next capture.  Stubs that carry a checksum compute it once, at
#: build; the only state a port can still change is a host scalar no
#: schedule or checksum reads (LULESH's ``dt``/``time``).  Bounded LRU;
#: cleared by :func:`clear_caches` and bypassed whenever
#: :data:`SETUP_CACHE` is disabled (``use_cache=False`` must recompute
#: everything).
_STUB_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_STUB_CACHE_MAX = 8


def projection_stub(builder: Callable[..., T]) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Register a shape-faithful stand-in for a ``memoized_setup`` builder.

    Inside a :func:`projection_stubs` block the stub replaces the real
    builder (bypassing :data:`SETUP_CACHE` and its deep copies).  A stub
    must reproduce every array shape and dtype the port's schedule
    depends on — kernel specs, buffer sizes and loop trip counts are
    all shape-derived in projection mode, where kernel bodies never
    execute — but may leave the data itself zeroed.  Its arrays must be
    read-only, because :data:`_STUB_CACHE` shares one build between
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
    ``make_state(cfg, p, seed=11)`` are one entry.
    """
    signature = inspect.signature(builder)
    name = (builder.__module__, builder.__qualname__)

    @functools.wraps(builder)
    def wrapper(*args: object, **kwargs: object) -> T:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        args, kwargs = bound.args, bound.kwargs
        key = (*name, repr(args), repr(sorted(kwargs.items())))
        if getattr(_STUB_STATE, "active", False):
            stub = PROJECTION_STUBS.get(name)
            if stub is not None:
                if not SETUP_CACHE.enabled:
                    return stub(*args, **kwargs)
                if key in _STUB_CACHE:
                    _STUB_CACHE.move_to_end(key)
                    return _STUB_CACHE[key]  # type: ignore[return-value]
                value = stub(*args, **kwargs)
                _STUB_CACHE[key] = value
                while len(_STUB_CACHE) > _STUB_CACHE_MAX:
                    _STUB_CACHE.popitem(last=False)
                return value
        return SETUP_CACHE.lookup(key, lambda: builder(*args, **kwargs))

    return wrapper


def set_cache_enabled(enabled: bool) -> None:
    """Enable or disable every memo layer (pricing, setup, trace, plan)."""
    KERNEL_CACHE.enabled = enabled
    SETUP_CACHE.enabled = enabled
    TRACE_CACHE.enabled = enabled
    PLAN_CACHE.enabled = enabled


def clear_caches() -> None:
    """Drop all memoized values and counters in this process."""
    KERNEL_CACHE.clear()
    SETUP_CACHE.clear()
    TRACE_CACHE.clear()
    PLAN_CACHE.clear()
    RESULT_CACHE.clear()
    _STUB_CACHE.clear()


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Force recomputation within the block (e.g. for cross-checks)."""
    previous = (
        KERNEL_CACHE.enabled, SETUP_CACHE.enabled, TRACE_CACHE.enabled,
        PLAN_CACHE.enabled,
    )
    KERNEL_CACHE.enabled = False
    SETUP_CACHE.enabled = False
    TRACE_CACHE.enabled = False
    PLAN_CACHE.enabled = False
    try:
        yield
    finally:
        (
            KERNEL_CACHE.enabled, SETUP_CACHE.enabled, TRACE_CACHE.enabled,
            PLAN_CACHE.enabled,
        ) = previous


def gpu_state_key(gpu: GPUDevice) -> tuple:
    """Everything about a GPU the timing model reads: the (frozen)
    spec plus the two mutable clock domains the sweeps adjust."""
    return (gpu.spec, gpu.core_clock.current_mhz, gpu.memory_clock.current_mhz)


def cpu_state_key(cpu: CPUDevice) -> tuple:
    return (cpu.spec,)


def cached_time_gpu_kernel(
    lowered: LoweredKernel, gpu: GPUDevice, precision: Precision
) -> KernelTiming:
    """Memoized :func:`repro.engine.timing.time_gpu_kernel`."""
    key = ("gpu-timing", lowered.cache_key(), gpu_state_key(gpu), precision)
    return KERNEL_CACHE.lookup(key, lambda: time_gpu_kernel(lowered, gpu, precision))


def cached_time_cpu_kernel(
    spec: KernelSpec, cpu: CPUDevice, precision: Precision, threads: int = 1
) -> KernelTiming:
    """Memoized :func:`repro.engine.timing.time_cpu_kernel`."""
    key = ("cpu-timing", spec, cpu_state_key(cpu), precision, threads)
    return KERNEL_CACHE.lookup(key, lambda: time_cpu_kernel(spec, cpu, precision, threads=threads))


def cached_simulate_kernel(
    lowered: LoweredKernel, gpu: GPUDevice, precision: Precision
) -> ScheduleResult:
    """Memoized :func:`repro.engine.scheduler.simulate_kernel`."""
    key = ("schedule", lowered.cache_key(), gpu_state_key(gpu), precision)
    return KERNEL_CACHE.lookup(key, lambda: simulate_kernel(lowered, gpu, precision))
