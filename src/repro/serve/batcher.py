"""Micro-batching bridge between the event loop and the engine.

The HTTP handlers are coroutines; the engine is synchronous Python.
The :class:`Batcher` sits between them:

* **Fast path** — a spec whose result is already in the process-global
  :data:`~repro.engine.memo.RESULT_CACHE` returns synchronously on the
  event loop (one dict lookup, no batching wait, no thread hop).
  This is what makes warm-cache predict queries cheap enough to serve
  hundreds per second.
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
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, NamedTuple, Sequence

from ..apps.base import RunResult
from ..engine import memo
from ..exec.faults import RunError
from ..exec.plan import RunSpec
from ..exec.retry import RetryPolicy, run_with_retry
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

    ``engine`` picks how a flushed batch's cold specs are priced:
    ``"vector"`` gathers the columnar-eligible ones
    (:func:`repro.engine.study_vec.vector_eligible`) into one
    whole-batch pricing call, with the scalar retry ladder as the
    per-spec fallback; ``"scalar"`` runs every spec through the retry
    ladder individually.  Results are bit-identical either way.
    """

    def __init__(
        self,
        max_batch: int = 32,
        policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        cache: memo.SingleFlightCache | None = None,
        engine: str = "vector",
    ) -> None:
        self.max_batch = max_batch
        self.policy = policy if policy is not None else RetryPolicy(max_attempts=2)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else memo.RESULT_CACHE
        self.engine = engine
        self._waiters: dict[str, asyncio.Future] = {}
        self._pending: list[_BatchItem] = []
        #: Batches dispatched and not yet answered (micro and bulk).
        self._running = 0
        self._flushes: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._closed = False

    # -- public API ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests admitted but not yet answered (queued + in flight)."""
        return len(self._waiters)

    def _peek(self, key: str) -> tuple[RunResult | None, str | None]:
        """Non-computing lookup: ``(value, provenance)`` on a hit from
        memory or (with a persistent cache) disk, else ``(None, None)``."""
        peek_tiered = getattr(self.cache, "peek_tiered", None)
        if peek_tiered is not None:
            value, source = peek_tiered(key)
            if source is None:
                return None, None
            return value, CACHED if source == "memory" else STORED
        found, value = self.cache.peek(key)
        return (value, CACHED) if found else (None, None)

    async def submit(self, spec: RunSpec) -> tuple[RunResult, str]:
        """Resolve one spec to its result and provenance label."""
        key = spec.content_key()
        value, provenance = self._peek(key)
        if provenance is not None:
            return value, provenance
        ctx = tracing.current()
        future = self._waiters.get(key)
        if future is not None:
            self.cache.record_coalesced()
            wait_start = time.perf_counter()
            value = await asyncio.shield(future)
            if ctx is not None:
                tracing.TRACER.record(
                    "coalesced_wait", wait_start, time.perf_counter(), parent=ctx,
                    attrs={"key": key[:16]},
                )
            return value, COALESCED
        if self._closed:
            raise RuntimeError("batcher is draining; not accepting new work")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._waiters[key] = future
        self._pending.append(_BatchItem(key, spec, ctx, time.perf_counter()))
        self._schedule_flush(loop)
        return await asyncio.shield(future), COMPUTED

    async def submit_batch(
        self, specs: Sequence[RunSpec]
    ) -> list[tuple[RunResult, str]]:
        """Resolve a bulk plan as one engine batch of its own.

        The ``/v1/batch`` path: study-shaped traffic arrives already
        batched.  Warm cells are answered from cache/store in place;
        all cold cells are dispatched *immediately* as one engine
        batch (columnar-priced under the vector engine).  Duplicate
        specs — within the batch or against in-flight micro-batch
        work — coalesce onto one computation, exactly like
        :meth:`submit`.
        """
        results: list[tuple[RunResult, str] | None] = [None] * len(specs)
        awaiting: list[tuple[int, asyncio.Future, str]] = []
        cold: list[_BatchItem] = []
        ctx = tracing.current()
        loop = asyncio.get_running_loop()
        now = time.perf_counter()
        for index, spec in enumerate(specs):
            key = spec.content_key()
            value, provenance = self._peek(key)
            if provenance is not None:
                results[index] = (value, provenance)
                continue
            future = self._waiters.get(key)
            if future is not None:
                self.cache.record_coalesced()
                awaiting.append((index, future, COALESCED))
                continue
            if self._closed:
                raise RuntimeError("batcher is draining; not accepting new work")
            future = loop.create_future()
            self._waiters[key] = future
            cold.append(_BatchItem(key, spec, ctx, now))
            awaiting.append((index, future, COMPUTED))
        if cold:
            self.metrics.counter(
                "repro_serve_bulk_batches_total",
                help="Bulk (/v1/batch) engine batches dispatched.",
            ).inc()
            self._start_flush(loop, cold)
        for index, future, provenance in awaiting:
            results[index] = (await asyncio.shield(future), provenance)
        return results  # type: ignore[return-value]

    async def submit_many(
        self, specs: Iterable[RunSpec]
    ) -> list[tuple[RunResult, str]]:
        """Resolve a whole plan concurrently (the ``/v1/study`` path)."""
        return list(await asyncio.gather(*(self.submit(spec) for spec in specs)))

    async def drain(self) -> None:
        """Stop accepting new work and wait for everything in flight."""
        self._closed = True
        if self._pending:
            self._start_flush(asyncio.get_running_loop())
        while self._flushes or self._waiters:
            futures = list(self._waiters.values())
            tasks = list(self._flushes)
            await asyncio.gather(*futures, *tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- batching machinery --------------------------------------------

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if len(self._pending) >= self.max_batch:
            self._start_flush(loop)
        elif not self._running:
            # End of this loop iteration: the specs of the requests read
            # in the same wake-up still share the batch.
            loop.call_soon(self._flush_if_idle, loop)

    def _flush_if_idle(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._pending and not self._running:
            self._start_flush(loop)

    def _start_flush(
        self, loop: asyncio.AbstractEventLoop, batch: list[_BatchItem] | None = None
    ) -> None:
        """Dispatch ``batch`` (default: everything queued) as one batch."""
        if batch is None:
            batch, self._pending = self._pending, []
        self._running += 1
        task = loop.create_task(self._flush(batch))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, batch: list[_BatchItem]) -> None:
        loop = asyncio.get_running_loop()
        self.metrics.counter(
            "repro_serve_batches_total", help="Engine batches dispatched."
        ).inc()
        self.metrics.histogram(
            "repro_serve_batch_size",
            help="Coalesced specs per dispatched engine batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        ).observe(len(batch))
        dispatched_s = time.perf_counter()
        try:
            rows = await loop.run_in_executor(
                self._executor, self._run_batch, batch, dispatched_s
            )
        except Exception as exc:
            # The dispatch itself failed (e.g. executor torn down): no
            # waiter may be left pending forever.
            rows = [(item.key, None, exc) for item in batch]
        finally:
            # What queued behind the running batches goes when they end.
            self._running -= 1
            self._flush_if_idle(loop)
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

        With the vector engine, the batch's columnar-eligible cold
        specs are priced first as one whole-batch call; their results
        enter the single-flight cache under the same keys, and any
        spec the columnar path could not serve (ineligible, failed, or
        invalid) falls through to the scalar retry ladder.
        """
        tracer = tracing.TRACER
        if self.engine == "vector":
            precomputed, columnar_window = self._price_columnar(batch)
        else:
            precomputed, columnar_window = {}, None
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
        """Columnar-price the batch's eligible cold specs in one call.

        Best-effort: any failure (capture, pricing, validation) simply
        leaves the affected specs to the scalar fallback — the batcher
        never loses a request to the fast path.  ``price_specs``
        isolates failures per schedule group and then per row, so one
        failing spec costs only itself the fast path.  Returns the priced
        results plus the wall window of the columnar call, so each
        served request's trace carries an ``engine`` segment covering
        the shared computation that produced its answer.
        """
        from ..engine.study_vec import price_specs, vector_eligible
        from ..exec.retry import validate_result

        cold = [
            (item.key, item.spec)
            for item in batch
            if vector_eligible(item.spec) and not self.cache.contains(item.key)
        ]
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
