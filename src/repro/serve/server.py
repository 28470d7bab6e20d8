"""The prediction server: admission control, deadlines, drain.

The listener, connection loop, admission counter and drain are the
shared skeleton of :mod:`repro.serve.service`; HTTP/1.1 is framed by
:mod:`repro.serve.http`.  Three concerns live here, layered over the
:class:`~repro.serve.batcher.Batcher`:

* **Admission control** — at most ``max_queue`` prediction requests
  are in the house at once; the rest are shed immediately with a 429
  and a ``Retry-After`` hint, so overload degrades into fast, honest
  rejections instead of collapse.
* **Deadlines** — every prediction carries a wall-clock budget
  (``deadline_s``), applied to its wait for cold legs; a request that
  cannot be answered in time gets a 504 while its engine run completes
  and warms the cache for the retry.  The backend's own watchdog is
  the per-run budget of the executor's retry ladder
  (:mod:`repro.exec.retry`).
* **Graceful drain** — on SIGTERM/SIGINT the listener closes first,
  in-flight requests finish (bounded by ``drain_timeout_s``), and
  ``/readyz`` flips to 503 so an orchestrator stops routing here.

Instrumentation: ``repro_serve_requests_total{route,status}``, a
queue-depth gauge, a latency histogram per route *and status* (shed
429s and deadline 504s are real latency samples too), and the memo
single-flight counter — all scraped from ``GET /metrics``.  Every
prediction request additionally yields a distributed trace
(:mod:`repro.obs.tracing`): a span tree with ``handle``/``serialize``
segments here and ``queue_wait``/``batch_wait``/``coalesced_wait``/
``engine`` segments from the batcher, linked from the latency
histogram by OpenMetrics exemplars and retained tail-biased behind
``/v1/debug/traces``.  Tracing is observation-only: responses are
bit-identical with it on or off (``ServeConfig.tracing``).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import dataclass
from typing import Awaitable

from .. import __version__
from ..engine import memo
from ..exec.plan import RunSpec
from ..exec.retry import RetryPolicy
from ..obs import logging as obs_logging
from ..obs import tracing
from ..obs.export import chrome_trace
from ..obs.metrics import MetricsRegistry
from . import faults as serve_faults
from . import protocol, warmup
from .batcher import Batcher
from .http import HttpRequest
from .service import PREDICTION_ROUTES, Answer, Handler, HttpService, ServiceThread
from .store import PersistentResultCache, ResultStore

#: Latency buckets for serving (seconds): log-1/2-decade from a 100 µs
#: floor to a 10 s tail.  Warm predict p99 is ~2.6 ms; decade spacing
#: put the whole warm distribution in one bucket, useless for SLO math.
SERVE_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for per-segment histograms: segments (a queue wait, one
#: serialize) run far shorter than whole requests, so extend the floor
#: down to 10 µs, and split 50-250 µs finer, where warm segments sit,
#: so a p50 read from the buckets moves with real change near 100 µs.
SEGMENT_BUCKETS: tuple[float, ...] = tuple(sorted(
    (0.00001, 0.000025, 0.00005, 0.000075, 0.00015, 0.0002) + SERVE_LATENCY_BUCKETS
))


@dataclass(frozen=True)
class ServeConfig:
    """Everything the prediction service can be tuned with."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on Server.port
    max_batch: int = 32
    #: Admission bound: predictions in flight before shedding begins.
    max_queue: int = 64
    #: Seconds a shed client is told to wait (the Retry-After header).
    retry_after_s: int = 1
    #: Per-request wall-clock budget; over it the client gets a 504.
    deadline_s: float = 30.0
    #: Attempts per engine run (the exec retry ladder).
    retries: int = 2
    #: Per-engine-run watchdog; ``None`` leaves only the HTTP deadline.
    run_timeout_s: float | None = None
    #: How long a drain waits for in-flight requests before giving up.
    drain_timeout_s: float = 10.0
    #: Record a distributed trace per prediction request.  Purely
    #: observational — responses are bit-identical either way.
    tracing: bool = True
    #: Root of the persistent content-addressed result store shared by
    #: every process pointed at it; ``None`` keeps results in-memory
    #: only (the pre-PR-8 behaviour).
    store_path: str | None = None
    #: Boot-time warm-up: ``"none"``, ``"load"`` (seed memory from the
    #: store), or ``"presets"`` (load, then pre-price the reachable
    #: preset lattice through the executor).
    warm: str = "load"
    #: Scale presets the ``"presets"`` warm-up prices.
    warm_scales: tuple[str, ...] = ("bench",)
    #: This process's index within a sharded tier (``None`` standalone).
    shard_id: int | None = None
    #: Per-request caps; ``None`` defers to the protocol defaults and
    #: their ``REPRO_SERVE_MAX_STUDY_RUNS`` / ``_MAX_BATCH_CELLS``
    #: environment overrides.
    max_study_runs: int | None = None
    max_batch_cells: int | None = None

    def policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.retries, run_timeout=self.run_timeout_s)


class Server(HttpService):
    """The prediction service: routes, admission, deadlines, drain."""

    role = "server"

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        super().__init__(
            self.config.host, self.config.port, self.config.drain_timeout_s
        )
        self.metrics = MetricsRegistry()
        if self.config.warm not in warmup.WARM_MODES:
            raise ValueError(
                f"warm must be one of {warmup.WARM_MODES}, got {self.config.warm!r}"
            )
        self.store: ResultStore | None = None
        cache = None
        if self.config.store_path is not None:
            self.store = ResultStore(self.config.store_path)
            cache = PersistentResultCache(self.store)
        self.warm_report: warmup.WarmReport | None = None
        self.batcher = Batcher(
            max_batch=self.config.max_batch,
            policy=self.config.policy(),
            metrics=self.metrics,
            cache=cache,
        )
        self._shed = 0
        self.tracer = tracing.TRACER
        self.log = obs_logging.get_logger("serve")
        #: Seeded serve-layer chaos (inert unless armed via the
        #: environment or ``POST /v1/admin/chaos``).
        self.chaos = serve_faults.ServeChaos(
            serve_faults.serve_fault_plan_from_env(), self.config.shard_id
        )
        self._hung = False
        self._corrupt_pending = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        # Warm up BEFORE binding: /readyz cannot answer 200 until the
        # cache state the tier promises ("restarts serve warm") exists.
        self._warm_up()
        await super().start()
        self.log.info(
            "server-started",
            url=self.url,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            tracing=self.config.tracing,
            shard=self.config.shard_id,
            store=self.config.store_path,
            warm=self.warm_report.summary() if self.warm_report else self.config.warm,
        )

    def _warm_up(self) -> None:
        """Boot-time cache priming per ``ServeConfig.warm``."""
        if self.config.warm == "none":
            return
        if self.config.warm == "load":
            if self.store is None:
                return
            started = time.perf_counter()
            loaded = warmup.load_store(self.batcher.cache, self.store)
            self.warm_report = warmup.WarmReport(
                total=loaded, loaded=loaded, priced=0, deferred=0,
                wall_s=time.perf_counter() - started,
            )
            return
        if self.store is not None:
            # Pick up everything resident (clock-override sweeps etc.),
            # then fill the preset lattice.
            warmup.load_store(self.batcher.cache, self.store)
        self.warm_report = warmup.warm_presets(
            self.batcher.cache, self.store, scales=self.config.warm_scales,
            policy=self.batcher.policy,
        )

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        self.log.info("server-draining", in_flight=self._active)
        await super().shutdown()
        self.log.info("server-stopped", shed=self._shed)

    async def _drained(self) -> None:
        await self.batcher.drain()

    # -- per-request hooks ---------------------------------------------

    def _intercept(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> Awaitable[bool] | None:
        if self._hung:
            # An injected hang wedges the whole process — /healthz
            # included — exactly like a stuck event loop would; only
            # the supervisor's probe timeout can see it.
            return self._hang()
        if request.path.split("?", 1)[0] in PREDICTION_ROUTES:
            fault = self.chaos.next_fault()
            if fault is not None:
                return self._inject_fault(fault, writer)
        return None

    def _open_trace(self, request: HttpRequest) -> tracing.TraceSpan | None:
        if not self.config.tracing or (
            request.path.split("?", 1)[0] not in PREDICTION_ROUTES
        ):
            return None
        return self.tracer.start_span(
            "request",
            kind="server",
            parent=tracing.parse_traceparent(request.headers.get("traceparent")),
        )

    def _observe(
        self, route: str, status: int, started: float, written: float,
        trace: tracing.TraceSpan | None,
    ) -> None:
        """Count the request and take one latency sample — every
        response, sheds and deadline misses included, with the trace id
        attached as an exemplar."""
        if trace is None:
            latency = time.perf_counter() - started
        else:
            self.tracer.record(
                "serialize", written, time.perf_counter(), parent=trace.context
            )
            trace.attrs["route"] = route
            trace.attrs["status"] = status
            self.tracer.finish_span(trace, "ok" if status < 500 else "error")
            latency = trace.duration_s
        self.metrics.counter(
            "repro_serve_requests_total",
            help="Requests served, by route and status.",
            route=route,
            status=str(status),
        ).inc()
        self.metrics.histogram(
            "repro_serve_latency_seconds",
            help="Request latency by route and status.",
            buckets=SERVE_LATENCY_BUCKETS,
            route=route,
            status=str(status),
        ).observe(
            latency,
            exemplar={"trace_id": trace.trace_id} if trace is not None else None,
        )
        if trace is not None:
            self._finish_trace(trace, route, status)

    # -- chaos injection -----------------------------------------------

    async def _hang(self) -> bool:
        await asyncio.sleep(serve_faults.HANG_SECONDS)
        return False

    async def _inject_fault(
        self, kind: str, writer: asyncio.StreamWriter
    ) -> bool:
        """Perform one drawn fault; ``False`` ends the connection
        without a response (reset/hang), ``True`` lets the request
        proceed (slow/corrupt add their damage and carry on)."""
        self.metrics.counter(
            "repro_serve_faults_injected_total",
            help="Serve-layer chaos faults injected, by kind.",
            kind=kind,
        ).inc()
        self.log.warning(
            "fault-injected", kind=kind, shard=self.config.shard_id,
            ordinal=self.chaos.to_json()["ordinal"],
        )
        if kind == "crash":
            # A hard process death mid-request: no drain, no goodbye —
            # what an OOM kill looks like from outside.
            os._exit(23)
        if kind == "hang":
            self._hung = True
            await asyncio.sleep(serve_faults.HANG_SECONDS)
            return False
        if kind == "reset":
            writer.close()
            return False
        if kind == "slow":
            await asyncio.sleep(self.chaos.plan.slow_s)
            return True
        if kind == "corrupt":
            # Damage is applied to the *requested* cell once its spec
            # is parsed (the handlers call _consume_corrupt), so the
            # same request immediately exercises detection + repair.
            self._corrupt_pending += 1
        return True

    def _consume_corrupt(self, spec: RunSpec) -> None:
        """Scribble over one store entry and evict its memory copy.

        The next lookup (usually this very request) must detect the
        damage via the store's sha256 check, treat it as a miss,
        recompute, and durably repair the file — so an injected
        corruption never changes an answer, only its provenance.
        """
        if self._corrupt_pending <= 0:
            return
        self._corrupt_pending -= 1
        key = spec.content_key()
        if self.store is not None:
            path = self.store.path_for(key)
            try:
                if path.exists():
                    path.write_bytes(b"\x00chaos-corrupt" + path.read_bytes()[:64])
            except OSError:
                pass
        self.batcher.cache.discard(key)
        self.log.warning(
            "store-entry-corrupted", key=key[:16], shard=self.config.shard_id,
        )

    async def _admin_chaos(self, doc: object) -> tuple[int, dict]:
        """Arm or disarm the chaos plan at runtime.

        Body ``{"plan": "crash:0.01,...", "seed": 42}`` arms a fresh
        injector (ordinals restart at 0); ``{"plan": null}`` (or an
        empty body) disarms.  The chaos drill uses this to stand the
        storm down on surviving shards once its fault phase ends.
        """
        if doc is None:
            doc = {}
        if not isinstance(doc, dict):
            raise protocol.ProtocolError(
                "body must be {\"plan\": <spec or null>[, \"seed\": n]}"
            )
        spec = doc.get("plan")
        plan = None
        if spec:
            if not isinstance(spec, str):
                raise protocol.ProtocolError(
                    "field 'plan' must be a fault spec string or null"
                )
            try:
                plan = serve_faults.parse_serve_fault_plan(
                    spec, seed=int(doc.get("seed", 0))
                )
            except (ValueError, TypeError) as exc:
                raise protocol.ProtocolError(str(exc)) from None
        previous = self.chaos.to_json()
        self.chaos = serve_faults.ServeChaos(plan, self.config.shard_id)
        self.log.info(
            "chaos-plan-swapped",
            plan=self.chaos.plan.spec_string() or None,
            armed=self.chaos.armed,
            shard=self.config.shard_id,
        )
        return 200, {
            "version": protocol.PROTOCOL_VERSION,
            "previous": previous,
            **self.chaos.to_json(),
        }

    def _finish_trace(self, root: tracing.TraceSpan, route: str, status: int) -> None:
        """Seal the request's trace, feed the segment histograms, and
        emit the structured access record."""
        record = self.tracer.complete(
            root.trace_id,
            route=route,
            status=status,
            duration_s=root.duration_s,
        )
        if record is None:
            return
        segments = tracing.segment_durations(record.spans)
        for segment, seconds in segments.items():
            self.metrics.histogram(
                "repro_serve_segment_seconds",
                help="Per-request latency attributed to one segment.",
                buckets=SEGMENT_BUCKETS,
                segment=segment,
            ).observe(seconds)
        self.log.log(
            "warning" if status >= 500 else "debug",
            "request",
            trace_id=root.trace_id,
            route=route,
            status=status,
            latency_ms=round(root.duration_s * 1e3, 4),
            segments_ms={
                name: round(seconds * 1e3, 4)
                for name, seconds in sorted(segments.items())
            },
        )

    # -- routing -------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest, trace: tracing.TraceSpan | None
    ) -> Answer:
        path = request.path.split("?", 1)[0]
        if path in PREDICTION_ROUTES:
            if trace is None:
                return await self._prediction(path, request)
            handle = self.tracer.start_span(
                "handle", kind="segment", parent=trace.context
            )
            # Ambient context is the handle span, so wait and engine
            # segments recorded deeper in the stack nest under it rather
            # than widening the root's tiling.
            token = tracing.push(handle.context)
            try:
                return await self._prediction(path, request)
            finally:
                tracing.reset(token)
                self.tracer.finish_span(handle)
        if path == "/healthz":
            return "healthz", 200, {"status": "ok"}, ()
        if path == "/readyz":
            if self._draining or self._server is None:
                return "readyz", 503, {"status": "draining"}, ()
            return "readyz", 200, {"status": "ready"}, ()
        if path == "/metrics":
            return "metrics", 200, self._metrics_exposition(), ()
        if path == "/v1/debug/traces":
            return "debug", 200, self._trace_index(), ()
        if path.startswith("/v1/debug/traces/"):
            return self._trace_detail(request, path)
        if path == "/v1/debug/logs":
            return "debug", 200, {
                "version": protocol.PROTOCOL_VERSION,
                "records": obs_logging.RING.recent(200),
            }, ()
        if path == "/v1/admin/chaos":
            if request.method == "GET":
                return "admin", 200, {
                    "version": protocol.PROTOCOL_VERSION,
                    **self.chaos.to_json(),
                }, ()
            if request.method != "POST":
                return "admin", 405, protocol.error_response(
                    405, "/v1/admin/chaos accepts GET and POST"
                ), ()
            return await self._answer("admin", request, self._admin_chaos)
        return "other", 404, protocol.error_response(
            404, f"no route {path!r}; try /v1/predict, /v1/study, /v1/batch, "
            "/v1/debug/traces, /v1/debug/logs, /healthz, /readyz or /metrics"
        ), ()

    async def _admitted(
        self, route: str, request: HttpRequest, handler: Handler
    ) -> Answer:
        """Shed past ``max_queue`` in flight; a handler's absolute
        deadline bounds only the batcher's wait for cold legs, so a warm
        request sets no timer."""
        if self._active >= self.config.max_queue and not self._draining:
            self._shed += 1
            self.metrics.counter(
                "repro_serve_shed_total",
                help="Requests shed by admission control.",
                route=route,
            ).inc()
            return route, 429, protocol.error_response(
                429,
                f"admission queue full ({self.config.max_queue} in flight); "
                "retry shortly",
            ), (("Retry-After", str(self.config.retry_after_s)),)
        try:
            return await super()._admitted(route, request, handler)
        except asyncio.TimeoutError:
            return route, 504, protocol.error_response(
                504,
                f"deadline of {self.config.deadline_s:g}s exceeded; the "
                "engine run continues and will serve a retry from cache",
            ), ()

    def _deadline(self) -> float:
        return asyncio.get_running_loop().time() + self.config.deadline_s

    # -- handlers ------------------------------------------------------

    async def _predict(self, doc: object) -> tuple[int, dict]:
        request = protocol.PredictRequest.from_json(doc)
        baseline_spec, model_spec = request.specs()
        self._consume_corrupt(model_spec)
        (baseline, baseline_prov), (model, model_prov) = await self.batcher.submit_many(
            (baseline_spec, model_spec), self._deadline()
        )
        return 200, protocol.predict_response(
            request,
            baseline_seconds=baseline.seconds,
            model_result=model,
            provenance={"baseline": baseline_prov, "model": model_prov},
            key=model_spec.content_key()[:16],
        )

    async def _batch(self, doc: object) -> tuple[int, dict]:
        request = protocol.BatchRequest.from_json(
            doc, max_cells=self.config.max_batch_cells
        )
        specs = request.specs()
        if specs:
            self._consume_corrupt(specs[0])
        served = await self.batcher.submit_batch(specs, self._deadline())
        return 200, protocol.batch_response(request, served)

    async def _study(self, doc: object) -> tuple[int, dict]:
        request = protocol.StudyRequest.from_json(
            doc, max_runs=self.config.max_study_runs
        )
        runs = request.runs()
        if runs:
            self._consume_corrupt(runs[0])
        served = await self.batcher.submit_many(runs, self._deadline())
        provenance_tally: dict[str, int] = {}
        for _result, label in served:
            provenance_tally[label] = provenance_tally.get(label, 0) + 1

        entries = protocol.study_entries(request, (
            (result.seconds, result.kernel_seconds, getattr(result, "joules", 0.0))
            for result, _label in served
        ))
        return 200, protocol.study_response(request, entries, provenance_tally)

    # -- debug: retained traces ----------------------------------------

    def _trace_index(self) -> dict:
        store = self.tracer.store
        summaries = []
        for record in store.records():
            summary = record.summary()
            summary["retained_by"] = list(store.holds(record.trace_id))
            summary["href"] = f"/v1/debug/traces/{record.trace_id}"
            summaries.append(summary)
        return {
            "version": protocol.PROTOCOL_VERSION,
            "tracing": self.config.tracing,
            "retained": len(summaries),
            "traces": summaries,
        }

    def _trace_detail(self, request: HttpRequest, path: str) -> Answer:
        trace_id = path.rsplit("/", 1)[1]
        record = self.tracer.store.get(trace_id)
        if record is None:
            return "debug", 404, protocol.error_response(
                404, f"no retained trace {trace_id!r}; see /v1/debug/traces"
            ), ()
        query = request.path.partition("?")[2]
        if "format=chrome" in query:
            return "debug", 200, chrome_trace(tracing.trace_timeline(record)), ()
        doc = record.to_json()
        doc["version"] = protocol.PROTOCOL_VERSION
        doc["retained_by"] = list(self.tracer.store.holds(trace_id))
        return "debug", 200, doc, ()

    # -- metrics -------------------------------------------------------

    def _metrics_exposition(self) -> str:
        """Server registry plus process-wide memo counters, one scrape."""
        snapshot = MetricsRegistry()
        snapshot.merge(self.metrics)
        snapshot.counter(
            "repro_memo_singleflight_coalesced_total",
            help="Requests coalesced onto an identical in-flight engine run.",
        ).inc(self.batcher.cache.coalesced)
        stats = self.batcher.cache.snapshot()
        snapshot.counter(
            "repro_serve_result_cache_lookups_total",
            help="Whole-run result cache lookups.", outcome="hit",
        ).inc(stats.hits)
        snapshot.counter(
            "repro_serve_result_cache_lookups_total",
            help="Whole-run result cache lookups.", outcome="miss",
        ).inc(stats.misses)
        # The result layer is this server's own cache: the persistent
        # one when a store is configured.
        for layer, cache in {**memo.CACHES, "result": self.batcher.cache}.items():
            snapshot.gauge(
                "repro_memo_hit_ratio", help="Memo hit ratio by cache layer.",
                cache=layer,
            ).set(cache.snapshot().hit_rate)
        snapshot.gauge(
            "repro_serve_queue_depth", help="Admitted requests in flight."
        ).set(self._active)
        snapshot.gauge(
            "repro_serve_shed_requests", help="Requests shed since start."
        ).set(self._shed)
        if self.store is not None:
            stats = self.store.snapshot()
            for outcome, count in (("hit", stats.hits), ("miss", stats.misses)):
                snapshot.counter(
                    "repro_store_lookups_total",
                    help="Persistent result-store lookups.", outcome=outcome,
                ).inc(count)
            snapshot.counter(
                "repro_store_writes_total",
                help="Results durably written to the persistent store.",
            ).inc(stats.writes)
            snapshot.counter(
                "repro_store_corrupt_total",
                help="Torn or corrupt store entries tolerated on read.",
            ).inc(stats.corrupt)
            snapshot.counter(
                "repro_store_lock_waits_total",
                help="Cross-process single-flight waits on another "
                "process's in-flight computation.",
            ).inc(stats.lock_waits)
        if self.warm_report is not None:
            for field_name, value in (
                ("loaded", self.warm_report.loaded),
                ("priced", self.warm_report.priced),
                ("deferred", self.warm_report.deferred),
            ):
                snapshot.gauge(
                    "repro_serve_warm_results",
                    help="Warm-up outcome by kind (loaded from store, "
                    "priced at boot, deferred to a concurrent shard).",
                    kind=field_name,
                ).set(value)
        if self.config.shard_id is not None:
            snapshot.gauge(
                "repro_serve_shard_id",
                help="This process's index within the sharded tier.",
            ).set(self.config.shard_id)
        snapshot.gauge(
            "repro_build_info",
            help="Build identity; always 1 with the details as labels.",
            version=__version__,
            python=f"{sys.version_info.major}.{sys.version_info.minor}."
            f"{sys.version_info.micro}",
        ).set(1)
        snapshot.gauge(
            "repro_serve_uptime_seconds",
            help="Seconds since the server started accepting connections.",
        ).set(time.time() - self.started_at if self.started_at is not None else 0.0)
        return snapshot.to_prometheus()


# -- embedding helper --------------------------------------------------


class ServerThread(ServiceThread):
    """Run a :class:`Server` on a background thread with its own loop.

    The load generator's ``--spawn`` mode and the test suite both need
    a live loopback server without blocking the caller.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.server = Server(config)
        super().__init__(self.server)
