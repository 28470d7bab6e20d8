"""Micro-batching bridge between the event loop and the engine.

The HTTP handlers are coroutines; the engine is synchronous Python.
The :class:`Batcher` sits between them:

* **One resolve pass** — on the event loop, a spec resident in the
  :data:`~repro.engine.memo.RESULT_CACHE` (or the store) is answered in
  place, an in-flight one joins its future, a cold one is queued.  A
  warm request creates no task or timer; any other waits once, and its
  deadline bounds only that wait.
* **Single-flight** — concurrent requests for the same
  :class:`~repro.exec.plan.RunSpec` content share one future; only the
  first costs an engine run.  Joins are tallied in the cache's
  ``coalesced`` counter (``repro_memo_singleflight_coalesced_total``).
* **Idle dispatch** — cold specs go to a single backend worker
  thread as soon as it is free.  An idle backend gets them at the end
  of the current event-loop iteration, so the requests read in one
  wake-up (and a predict's two legs) share a batch; specs arriving
  while a batch runs go out together the moment it finishes.  There
  the batch is priced by one :func:`~repro.exec.executor.execute`
  call, the study executor's own path: grouped pricing, with the
  retry ladder of :mod:`repro.exec.retry` for any spec it rejects (the
  per-run watchdog doubles as the request's compute deadline).  Each
  result lands in the result cache.  The engine's memo caches live in
  this process, so every request warms them for the next.

Results are deterministic pure functions of their spec, so cached,
coalesced and computed answers are all bit-identical.

Tracing: each queued spec carries its request's
:class:`~repro.obs.tracing.SpanContext` through the wait and across
the thread hop (contextvars do not follow ``run_in_executor``), so the
batcher can attribute every microsecond a request spends here —
``batch_wait`` (submit → batch dispatch), ``queue_wait`` (dispatch →
the backend thread starting the batch's ``execute`` call), ``engine``
(that call, shared by the batch's requests), the persistent store's
``store_read``/``store_write``, and ``coalesced_wait`` for followers
riding an identical in-flight spec.  All of it is observation-only;
with no ambient context the batcher records nothing.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, NamedTuple, Sequence

from ..apps.base import RunResult
from ..engine import memo
from ..exec.executor import execute
from ..exec.faults import FaultPlan, RunError
from ..exec.plan import RunSpec
from ..exec.retry import RetryPolicy
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .store import STORED


class _BatchItem(NamedTuple):
    """One queued cold spec plus its request's trace context."""

    key: str
    spec: RunSpec
    ctx: tracing.SpanContext | None
    submitted_s: float

#: Provenance labels a served result can carry (``STORED`` — served
#: from the persistent on-disk store — is defined by the store module).
COMPUTED = "computed"
CACHED = "cache"
COALESCED = "coalesced"


def peek(
    cache: memo.SingleFlightCache, key: str
) -> tuple[RunResult | None, str | None]:
    """Non-computing lookup: ``(value, provenance)`` on a hit from memory
    or (with a persistent cache) disk, else ``(None, None)``."""
    peek_tiered = getattr(cache, "peek_tiered", None)
    if peek_tiered is None:
        found, value = cache.peek(key)
        return (value, CACHED) if found else (None, None)
    value, source = peek_tiered(key)
    if source is None:
        return None, None
    return value, CACHED if source == "memory" else STORED


class BackendRunError(RuntimeError):
    """A spec exhausted its retry budget in the backend (an HTTP 500)."""

    def __init__(self, error: RunError) -> None:
        super().__init__(f"{error.label}: {error.kind.value}: {error.message}")
        self.error = error


class Batcher:
    """Coalesce concurrent predictions into engine batches.

    One instance belongs to one event loop.  A cold request waits for
    companions only while a batch runs; ``max_batch`` flushes a full
    batch early.  All engine work runs on one dedicated
    backend thread, so the simulator itself stays single-threaded while
    the loop keeps serving cache hits.

    A flushed batch is priced by one :func:`~repro.exec.executor.execute`
    call under ``policy``.
    """

    def __init__(
        self,
        max_batch: int = 32,
        policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        cache: memo.SingleFlightCache | None = None,
    ) -> None:
        self.max_batch = max_batch
        self.policy = policy if policy is not None else RetryPolicy(max_attempts=2)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else memo.RESULT_CACHE
        # Held, not looked up per dispatch: the lookup delays the hand-off.
        self._batches = self.metrics.counter(
            "repro_serve_batches_total", help="Engine batches dispatched."
        )
        self._batch_sizes = self.metrics.histogram(
            "repro_serve_batch_size",
            help="Coalesced specs per dispatched engine batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._engine_runs = self.metrics.counter(
            "repro_serve_engine_runs_total", help="Cold specs priced by the backend."
        )
        self._engine_retries = self.metrics.counter(
            "repro_serve_engine_retries_total",
            help="Backend engine run attempts beyond the first.",
        )
        # Loaded now, not in the first cold batch.
        from ..engine import study_vec  # noqa: F401

        self._waiters: dict[str, asyncio.Future] = {}
        self._pending: list[_BatchItem] = []
        #: Batches dispatched and not yet answered (micro and bulk).
        self._running: set[asyncio.Future] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._closed = False

    # -- public API ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests admitted but not yet answered (queued + in flight)."""
        return len(self._waiters)

    async def submit(
        self, spec: RunSpec, deadline: float | None = None
    ) -> tuple[RunResult, str]:
        """Resolve one spec: the one-spec case of :meth:`submit_many`."""
        return (await self.submit_many((spec,), deadline))[0]

    async def submit_batch(
        self, specs: Sequence[RunSpec], deadline: float | None = None
    ) -> list[tuple[RunResult, str]]:
        """The ``/v1/batch`` path: :meth:`submit_many` with ``bulk``."""
        return await self.submit_many(specs, deadline, bulk=True)

    async def submit_many(
        self, specs: Iterable[RunSpec], deadline: float | None = None, bulk=False
    ) -> list[tuple[RunResult, str]]:
        """Resolve specs to ``(result, provenance)`` in order (``/v1/predict``,
        ``/v1/study``).  Only pending specs make the caller wait, once;
        ``deadline`` (absolute ``loop.time()``) bounds that wait, and an
        overrun raises :class:`asyncio.TimeoutError` while the engine run
        goes on to warm the cache for a retry.  ``bulk`` sends the cold
        specs out at once as one engine batch of their own (study-shaped
        traffic that arrives batched) instead of through the queue."""
        results: list = []
        #: (index, future, provenance, key) per spec not resident.
        waits: list[tuple[int, asyncio.Future, str, str]] = []
        cold: list[tuple[str, RunSpec]] = []
        loop = asyncio.get_running_loop()
        for spec in specs:
            key = spec.content_key()
            value, provenance = peek(self.cache, key)
            if provenance is not None:
                results.append((value, provenance))
                continue
            future = self._waiters.get(key)
            if future is not None:
                self.cache.record_coalesced()
                provenance = COALESCED
            else:
                if self._closed:
                    raise RuntimeError("batcher is draining; not accepting new work")
                future = self._waiters[key] = loop.create_future()
                cold.append((key, spec))
                provenance = COMPUTED
            waits.append((len(results), future, provenance, key))
            results.append(None)
        if not waits:
            return results
        ctx = tracing.current()
        wait_start = time.perf_counter()
        # Shielded: a deadline cancels this wait, never the engine run.
        waiting = asyncio.shield(asyncio.gather(*(wait[1] for wait in waits)))
        if cold:
            # Queued last: the batch wait starts when this request's work ends.
            now = time.perf_counter()
            items = [_BatchItem(key, spec, ctx, now) for key, spec in cold]
            if bulk:
                self.metrics.counter(
                    "repro_serve_bulk_batches_total",
                    help="Bulk (/v1/batch) engine batches dispatched.",
                ).inc()
                self._start_flush(items)
            else:
                for item in items:
                    self._pending.append(item)
                    if len(self._pending) >= self.max_batch:
                        self._start_flush()
                if self._pending and not self._running:
                    # End of this loop iteration: the specs of the requests
                    # read in the same wake-up share the batch.
                    loop.call_soon(self._flush_if_idle)
        if deadline is not None:
            waiting = asyncio.wait_for(waiting, deadline - loop.time())
        for (index, _future, provenance, key), value in zip(waits, await waiting):
            results[index] = (value, provenance)
            if provenance == COALESCED and ctx is not None:
                tracing.TRACER.record(
                    "coalesced_wait", wait_start, time.perf_counter(), parent=ctx,
                    attrs={"key": key[:16]},
                )
        return results

    async def drain(self) -> None:
        """Stop accepting new work and wait for everything in flight."""
        self._closed = True
        if self._pending:
            self._start_flush()
        while self._running or self._waiters:
            await asyncio.gather(
                *self._waiters.values(), *self._running, return_exceptions=True
            )
        self._executor.shutdown(wait=True)

    # -- batching machinery --------------------------------------------

    def _flush_if_idle(self) -> None:
        if self._pending and not self._running:
            self._start_flush()

    def _start_flush(self, batch: list[_BatchItem] | None = None) -> None:
        """Hand ``batch`` (default: everything queued) to the backend
        thread now: no task, so no loop iteration before the hand-off."""
        if batch is None:
            batch, self._pending = self._pending, []
        self._batches.inc()
        self._batch_sizes.observe(len(batch))
        loop = asyncio.get_running_loop()
        try:
            running = loop.run_in_executor(
                self._executor, self._run_batch, batch, time.perf_counter()
            )
        except Exception as exc:
            # The dispatch itself failed (e.g. executor torn down): no
            # waiter may be left pending forever.
            running = loop.create_future()
            running.set_exception(exc)
        self._running.add(running)
        running.add_done_callback(functools.partial(self._answer, batch))

    def _answer(self, batch: list[_BatchItem], running: asyncio.Future) -> None:
        """Settle a finished batch's waiters."""
        self._running.discard(running)
        try:
            rows = running.result()
        except Exception as exc:
            rows = [(item.key, None, exc) for item in batch]
        # What queued behind the running batches goes when they end.
        self._flush_if_idle()
        for key, value, exc in rows:
            future = self._waiters.pop(key, None)
            if future is None or future.done():
                continue
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(value)

    def _run_batch(
        self, batch: list[_BatchItem], dispatched_s: float
    ) -> list[tuple[str, RunResult | None, Exception | None]]:
        """Backend thread: price the batch's specs in one
        :func:`~repro.exec.executor.execute` call, then land each result
        in the single-flight cache under its request's trace context
        (so a store write is attributed).  Every item's ``engine``
        segment spans the shared call; a spec the executor quarantined
        answers with a :class:`BackendRunError`.
        """
        started = time.perf_counter()
        # The inactive plan, not the study-run environment's.
        outcomes, stats = execute(
            [item.spec for item in batch], policy=self.policy, faults=FaultPlan()
        )
        ended = time.perf_counter()
        self._engine_runs.inc(stats.unique_runs)
        self._engine_retries.inc(stats.retries)
        failures = {error.key: error for error in stats.failures}
        tracer = tracing.TRACER
        rows: list[tuple[str, RunResult | None, Exception | None]] = []
        for item, outcome in zip(batch, outcomes):
            if item.ctx is not None:
                tracer.record("batch_wait", item.submitted_s, dispatched_s, parent=item.ctx)
                tracer.record("queue_wait", dispatched_s, started, parent=item.ctx)
                tracer.record("engine", started, ended, parent=item.ctx)
            if outcome is None:
                rows.append((item.key, None, BackendRunError(failures[item.key])))
                continue
            try:
                with tracing.use(item.ctx):
                    value = self.cache.get_or_compute(
                        item.key, lambda result=outcome.result: result
                    )
                rows.append((item.key, value, None))
            except Exception as exc:
                rows.append((item.key, None, exc))
        return rows
