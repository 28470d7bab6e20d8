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
  each runs through the retry ladder of :mod:`repro.exec.retry` (the
  per-run watchdog doubles as the request's compute deadline) and
  lands in the result cache.  The engine's kernel/setup/trace memo
  caches live in this process, so every request warms them for the
  next.

Results are deterministic pure functions of their spec, so cached,
coalesced and computed answers are all bit-identical.

Tracing: each queued spec carries its request's
:class:`~repro.obs.tracing.SpanContext` through the wait and across
the thread hop (contextvars do not follow ``run_in_executor``), so the
batcher can attribute every microsecond a request spends here —
``batch_wait`` (submit → batch dispatch), ``queue_wait`` (dispatch →
the backend thread picking the spec up), ``engine`` (the compute
itself, parenting any deeper run spans), the persistent store's
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
from ..exec.faults import RunError
from ..exec.plan import RunSpec
from ..exec.retry import RetryPolicy, run_with_retry, validate_result
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

    A flushed batch's cold specs are priced in one columnar call
    (:func:`~repro.engine.study_vec.price_specs`); a spec that call
    cannot serve falls back to the scalar retry ladder on its own.
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
        """Backend thread: run each unique spec through cache + retry.

        The batch's cold specs are priced first as one whole-batch call;
        their results enter the single-flight cache under the same keys,
        and any spec the columnar path could not serve (failed or
        invalid) falls through to the scalar retry ladder.
        """
        tracer = tracing.TRACER
        precomputed, columnar_window = self._price_columnar(batch)
        rows: list[tuple[str, RunResult | None, Exception | None]] = []
        for item in batch:
            key, spec, ctx = item.key, item.spec, item.ctx
            picked_up_s = time.perf_counter()
            if ctx is not None:
                # Wait on the loop for the backend, then executor-queue wait plus
                # earlier batch members' compute, attributed per item.  A
                # columnar-served item stopped waiting when the shared
                # pricing call began — not when this loop reached it —
                # so its queue_wait must not overlap its engine segment.
                if key in precomputed and columnar_window is not None:
                    waited_until = columnar_window[0]
                else:
                    waited_until = picked_up_s
                tracer.record("batch_wait", item.submitted_s, dispatched_s, parent=ctx)
                tracer.record("queue_wait", dispatched_s, waited_until, parent=ctx)
            try:
                if key in precomputed:
                    # Ambient context, so a store write is attributed.
                    with tracing.use(ctx):
                        value = self.cache.get_or_compute(
                            key, lambda key=key: precomputed[key]
                        )
                    if ctx is not None and columnar_window is not None:
                        tracer.record(
                            "engine", columnar_window[0], columnar_window[1],
                            parent=ctx, attrs={"source": "columnar"},
                        )
                else:
                    engine_span = None
                    if ctx is not None:
                        engine_span = tracer.start_span(
                            "engine", kind="segment", parent=ctx,
                            attrs={"source": "scalar"},
                        )
                    with tracing.use(
                        engine_span.context if engine_span is not None else None
                    ):
                        value = self.cache.get_or_compute(
                            key, lambda spec=spec: self._compute(spec)
                        )
                    if engine_span is not None:
                        tracer.finish_span(engine_span)
                rows.append((key, value, None))
            except Exception as exc:
                rows.append((key, None, exc))
        return rows

    def _price_columnar(
        self, batch: list[_BatchItem]
    ) -> tuple[dict[str, RunResult], tuple[float, float] | None]:
        """Columnar-price the batch's cold specs in one call.

        Best-effort: any failure (capture, pricing, validation) simply
        leaves the affected specs to the scalar fallback — the batcher
        never loses a request to the fast path.  ``price_specs``
        isolates failures per schedule group and then per row, so one
        failing spec costs only itself the fast path.  Returns the priced
        results plus the wall window of the columnar call, so each
        served request's trace carries an ``engine`` segment covering
        the shared computation that produced its answer.
        """
        from ..engine.study_vec import price_specs

        cold = [(item.key, item.spec) for item in batch if not self.cache.contains(item.key)]
        if not cold:
            return {}, None
        window_start = time.perf_counter()
        try:
            results = price_specs([spec for _key, spec in cold])
        except Exception:
            return {}, None
        window = (window_start, time.perf_counter())
        priced: dict[str, RunResult] = {}
        for (key, _spec), result in zip(cold, results):
            if result is None:
                continue
            try:
                validate_result(result)
            except Exception:
                continue
            priced[key] = result
        if priced:
            self.metrics.counter(
                "repro_serve_columnar_specs_total",
                help="Cold specs priced by the columnar whole-batch path.",
            ).inc(len(priced))
        return priced, window

    def _compute(self, spec: RunSpec) -> RunResult:
        payload = run_with_retry(spec, self.policy)
        if isinstance(payload, RunError):
            raise BackendRunError(payload)
        self.metrics.counter(
            "repro_serve_engine_runs_total", help="Engine runs computed by the backend."
        ).inc()
        if payload.attempts > 1:
            self.metrics.counter(
                "repro_serve_engine_retries_total",
                help="Backend engine run attempts beyond the first.",
            ).inc(payload.attempts - 1)
        return payload.result
