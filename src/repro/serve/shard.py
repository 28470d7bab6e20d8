"""Horizontally sharded serve tier: hash router over shard processes.

One serve process tops out at one backend engine thread.  To scale the
tier horizontally this module runs N :class:`~repro.serve.server.Server`
processes ("shards") over one shared persistent
:class:`~repro.serve.store.ResultStore`, fronted by a thin asyncio
router that speaks the same protocol on the same routes:

* ``POST /v1/predict`` is forwarded whole to the shard that owns the
  queried cell's content key (:func:`shard_for_key`), so repeat
  queries for one spec always land on the same warm memory.
* ``POST /v1/study`` and ``POST /v1/batch`` are *fanned out*: the
  router expands the matrix exactly like a single server would, groups
  the cells by owning shard, prices each group through that shard's
  ``/v1/batch``, and reassembles the response in canonical order —
  bit-identical to a single server's answer (and to ``run_study``),
  because the cells, their canonical order, and the speedup arithmetic
  are shared code, and JSON round-trips floats exactly.  A shard that
  cannot answer — a transport failure, an error status, or a 200
  without one result row per cell — is a 502, or with degraded
  service on, its cells are priced in the router by a
  :class:`~repro.serve.batcher.Batcher` (the same ``execute`` call a
  shard's backend makes) and shaped by the shard's own
  :func:`~repro.serve.protocol.batch_response`.
* ``GET /readyz`` aggregates: the tier is ready only when every shard
  is.  ``GET /v1/shards`` lists the members; ``POST /v1/admin/restart``
  gracefully bounces one (drain, then a fresh process that boots warm
  from the store — the restart drill CI exercises).

Graceful drain is preserved at both levels: the router stops
accepting, finishes in-flight fan-outs, then SIGTERMs the shards,
which each run their own drain.

Work is partitioned by ``sha256(content) mod N``: stateless,
deterministic across processes (no coordination), and stable under
identical restarts.  The shared store makes ownership a *performance*
hint rather than a correctness requirement — any shard can price any
spec, and the first durable write wins.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

from ..apps.base import RunResult
from ..engine import memo
from ..obs import logging as obs_logging
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from . import protocol
from .batcher import COALESCED, COMPUTED, Batcher
from .breaker import BREAKER_STATE_VALUES, BreakerState, CircuitBreaker, RetryBudget
from .http import HttpClient, HttpRequest
from .server import SERVE_LATENCY_BUCKETS, ServeConfig, Server
from .service import (
    PREDICTION_ROUTES,
    Answer,
    Handler,
    HttpService,
    ServiceThread,
    stop_on_signals,
)
from .store import PersistentResultCache, ResultStore
from .supervise import ShardHealth, ShardState, SupervisionPolicy


def shard_for_key(key: str, shards: int) -> int:
    """The shard index owning one content key.

    The key is already a uniform sha256 hex digest, so a prefix modulo
    is an even, deterministic partition — every process (router,
    shard, client) computes the same owner with no coordination.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(key[:16], 16) % shards


#: Provenance label for cells the router priced locally because their
#: owner shard was open/quarantined (correct by content-addressing).
DEGRADED = "degraded"


def _relabelled(served: list[tuple[RunResult, str]]) -> list[tuple[RunResult, str]]:
    """The degraded pricer's answers as the router labels them: a cell
    it computed (or joined in flight) is :data:`DEGRADED`; a warm hit
    keeps its tier label."""
    return [
        (result, DEGRADED if provenance in (COMPUTED, COALESCED) else provenance)
        for result, provenance in served
    ]


# -- shard worker processes --------------------------------------------


def _shard_main(config: ServeConfig, conn) -> None:
    """Entry point of one shard process (spawn-safe, top-level).

    Boots a :class:`Server`, reports the bound port (or the boot
    failure) through ``conn``, then serves until SIGTERM/SIGINT and
    drains.
    """

    async def main() -> None:
        server = Server(config)
        stop = stop_on_signals()
        try:
            await server.start()
        except BaseException as exc:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
            conn.close()
            raise
        conn.send({"port": server.port})
        conn.close()
        await stop.wait()
        await server.shutdown()

    asyncio.run(main())


@dataclass
class _Shard:
    """One live member of the tier, as the supervisor tracks it."""

    index: int
    process: multiprocessing.process.BaseProcess
    port: int
    generation: int = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"


#: Gauge encoding of supervision states (``repro_shard_state``).
_SHARD_STATE_VALUES = {
    ShardState.SERVING: 0.0,
    ShardState.RESPAWNING: 1.0,
    ShardState.QUARANTINED: 2.0,
}


class ShardSupervisor:
    """Spawns, supervises, restarts, and stops the shard processes.

    Every shard gets the same :class:`ServeConfig` with its own
    ``shard_id`` and an ephemeral port; the bound port travels back
    over a pipe once the shard is warm and listening (so "started"
    means "ready to serve warm", never "about to warm up").

    After :meth:`start`, a supervision thread runs the liveness loop of
    :class:`~repro.serve.supervise.SupervisionPolicy`: every
    ``probe_interval_s`` it polls each shard process *and* probes its
    ``/healthz`` (a wedged event loop passes ``poll()`` but misses the
    probe).  A dead or hung shard is respawned after a deterministic
    exponential backoff; a shard that burns ``quarantine_after``
    respawns inside ``quarantine_window_s`` is quarantined — the
    supervisor stops feeding it spawns, the router serves its key
    range degraded, and after ``quarantine_cooldown_s`` one probation
    respawn decides whether it rejoins.
    """

    def __init__(
        self,
        config: ServeConfig,
        shards: int,
        start_timeout_s: float = 300.0,
        policy: SupervisionPolicy | None = None,
        supervise: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.n_shards = shards
        self.start_timeout_s = start_timeout_s
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.supervise = supervise
        self.metrics = MetricsRegistry()
        self._ctx = multiprocessing.get_context("spawn")
        self._shards: dict[int, _Shard] = {}
        self._health: dict[int, ShardHealth] = {
            index: ShardHealth(index, self.policy) for index in range(shards)
        }
        #: Shards an admin restart currently holds; supervision ticks
        #: skip them so the two paths never race a double-spawn.
        self._busy: set[int] = set()
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self.restarts = 0
        self.log = obs_logging.get_logger("shard")

    def start(self) -> None:
        for index in range(self.n_shards):
            self._shards[index] = self._spawn(index)
            self._export_state(index)
        if self.supervise:
            self._thread = threading.Thread(
                target=self._supervise_loop, name="repro-supervise", daemon=True
            )
            self._thread.start()
        self.log.info(
            "tier-started", shards=self.n_shards,
            urls=[shard.url for shard in self.shards()],
            supervised=self.supervise,
        )

    def _spawn(self, index: int, generation: int = 0) -> _Shard:
        config = dataclasses.replace(
            self.config, host="127.0.0.1", port=0, shard_id=index
        )
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main, args=(config, child),
            name=f"repro-shard-{index}", daemon=True,
        )
        process.start()
        child.close()
        deadline = time.monotonic() + self.start_timeout_s
        while not parent.poll(0.05):
            if time.monotonic() > deadline:
                process.terminate()
                raise RuntimeError(
                    f"shard {index} did not report a port within "
                    f"{self.start_timeout_s:g}s"
                )
            if not process.is_alive():
                raise RuntimeError(
                    f"shard {index} died during startup "
                    f"(exit code {process.exitcode})"
                )
        try:
            message = parent.recv()
        except EOFError:
            process.join(timeout=5.0)
            raise RuntimeError(
                f"shard {index} died during startup "
                f"(exit code {process.exitcode})"
            )
        parent.close()
        if "error" in message:
            process.join(timeout=5.0)
            raise RuntimeError(f"shard {index} failed to start: {message['error']}")
        return _Shard(
            index=index, process=process, port=message["port"],
            generation=generation,
        )

    def shards(self) -> list[_Shard]:
        with self._lock:
            return [self._shards[i] for i in sorted(self._shards)]

    @property
    def urls(self) -> list[str]:
        return [shard.url for shard in self.shards()]

    def url_for(self, index: int) -> str:
        with self._lock:
            return self._shards[index].url

    # -- supervision ---------------------------------------------------

    def serving(self, index: int) -> bool:
        """Does the supervisor believe this shard can take traffic?"""
        health = self._health.get(index)
        return health is None or health.state is ShardState.SERVING

    def health_json(self, index: int) -> dict:
        health = self._health.get(index)
        return health.to_json() if health is not None else {}

    def _export_state(self, index: int) -> None:
        health = self._health[index]
        self.metrics.gauge(
            "repro_shard_state",
            help="Supervision state per shard "
            "(0 serving, 1 respawning, 2 quarantined).",
            shard=str(index),
        ).set(_SHARD_STATE_VALUES[health.state])

    def _supervise_loop(self) -> None:
        while not self._stop_event.wait(self.policy.probe_interval_s):
            for index in range(self.n_shards):
                if self._stop_event.is_set():
                    return
                try:
                    self._tick(index)
                except Exception as exc:  # pragma: no cover - must not die
                    self.log.info(
                        "supervise-tick-error", shard=index,
                        error=f"{type(exc).__name__}: {exc}",
                    )

    def _tick(self, index: int) -> None:
        now = time.monotonic()
        with self._lock:
            if index in self._busy:
                return
            health = self._health[index]
            shard = self._shards.get(index)
        if health.state is ShardState.QUARANTINED:
            if health.probation_due(now):
                health.leave_quarantine(now)
                self._export_state(index)
                self.log.info("shard-probation", shard=index)
            return
        if health.state is ShardState.RESPAWNING:
            if health.respawn_due(now):
                self._attempt_respawn(index, health)
            return
        if shard is None:
            return
        if not shard.process.is_alive():
            self._plan_respawn(index, health, "died")
            return
        if self._probe(shard):
            health.probe_ok()
        elif health.probe_missed():
            self._plan_respawn(index, health, "hung")

    def _probe(self, shard: _Shard) -> bool:
        """One blocking ``/healthz`` probe (supervision thread only)."""
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", shard.port, timeout=self.policy.probe_timeout_s
            )
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                return response.status == 200
            finally:
                conn.close()
        except (OSError, http.client.HTTPException):
            return False

    def _plan_respawn(self, index: int, health: ShardHealth, reason: str) -> None:
        delay = health.plan_respawn(time.monotonic(), reason)
        self._export_state(index)
        self.log.info(
            "shard-unhealthy", shard=index, reason=reason,
            respawn_in_s=round(delay, 3),
            attempts_in_window=health.attempts_in_window(time.monotonic()),
        )

    def _attempt_respawn(self, index: int, health: ShardHealth) -> None:
        now = time.monotonic()
        if health.should_quarantine(now):
            health.enter_quarantine(now)
            self._export_state(index)
            self.metrics.counter(
                "repro_shard_quarantines_total",
                help="Shards quarantined for crash-looping.",
                shard=str(index),
            ).inc()
            self.log.info(
                "shard-quarantined", shard=index,
                attempts_in_window=health.attempts_in_window(now),
                cooldown_s=self.policy.quarantine_cooldown_s,
                reason=health.last_reason,
            )
            return
        span = tracing.TRACER.start_span(
            "shard_respawn", kind="internal",
            attrs={"shard": index, "reason": health.last_reason or ""},
        )
        with self._lock:
            old = self._shards.get(index)
        if old is not None:
            self._kill_process(old.process)
        try:
            replacement = self._spawn(
                index, generation=old.generation + 1 if old is not None else 0
            )
        except RuntimeError as exc:
            health.record_attempt(now, ok=False)
            delay = health.plan_respawn(time.monotonic(), "boot-failed")
            tracing.TRACER.finish_span(span, status="error")
            tracing.TRACER.complete(span.trace_id, route="supervise", status=500)
            self.metrics.counter(
                "repro_shard_respawns_total",
                help="Automatic shard respawns by the supervisor.",
                shard=str(index), reason="boot-failed",
            ).inc()
            self.log.info(
                "shard-respawn-failed", shard=index,
                error=str(exc), retry_in_s=round(delay, 3),
            )
            return
        with self._lock:
            if index in self._busy:
                # An admin restart raced us; theirs wins, ours retires.
                self._kill_process(replacement.process)
                return
            self._shards[index] = replacement
        health.record_attempt(now, ok=True)
        self._export_state(index)
        self.metrics.counter(
            "repro_shard_respawns_total",
            help="Automatic shard respawns by the supervisor.",
            shard=str(index), reason=health.last_reason or "unknown",
        ).inc()
        tracing.TRACER.finish_span(span)
        tracing.TRACER.complete(span.trace_id, route="supervise", status=200)
        self.log.info(
            "shard-respawned", shard=index, url=replacement.url,
            generation=replacement.generation, respawns=health.respawns,
            reason=health.last_reason,
        )

    def _kill_process(self, process: multiprocessing.process.BaseProcess) -> None:
        """Hard stop: the process is dead or hung, draining is moot."""
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)

    def restart(self, index: int) -> str:
        """Gracefully bounce one shard; returns the replacement's URL.

        The old process gets SIGTERM (its own drain), then a fresh
        process boots against the same store — warm, if the tier runs
        one.  Blocking; callers on an event loop run it in an executor.
        """
        with self._lock:
            if index not in self._shards:
                raise KeyError(f"no shard {index}; tier has {self.n_shards}")
            old = self._shards[index]
            self._busy.add(index)
        try:
            self._stop_process(old.process)
            replacement = self._spawn(index, generation=old.generation + 1)
            with self._lock:
                self._shards[index] = replacement
                self.restarts += 1
            health = self._health.get(index)
            if health is not None:
                health.reset()
                self._export_state(index)
        finally:
            with self._lock:
                self._busy.discard(index)
        self.log.info(
            "shard-restarted", shard=index, url=replacement.url,
            generation=replacement.generation,
        )
        return replacement.url

    def _stop_process(self, process: multiprocessing.process.BaseProcess) -> None:
        if process.is_alive() and process.pid is not None:
            os.kill(process.pid, signal.SIGTERM)
        process.join(timeout=self.config.drain_timeout_s + 10.0)
        if process.is_alive():  # pragma: no cover - drain overran its budget
            process.terminate()
            process.join(timeout=5.0)

    def stop(self) -> None:
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(
                timeout=self.policy.probe_interval_s * 4
                + self.policy.probe_timeout_s + 5.0
            )
            self._thread = None
        for shard in self.shards():
            self._stop_process(shard.process)
        with self._lock:
            self._shards.clear()


class ShardUnavailable(Exception):
    """A shard could not answer (connect failure or malformed reply)."""


# -- the router --------------------------------------------------------


@dataclass(frozen=True)
class RouterConfig:
    """Tuning of the sharding front itself."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Budget for one downstream shard call inside a fan-out.
    deadline_s: float = 60.0
    drain_timeout_s: float = 10.0
    #: Per-shard ``/readyz`` probe budget for the aggregate.
    probe_timeout_s: float = 5.0
    #: Per-request caps, enforced at the edge before any fan-out;
    #: ``None`` defers to the protocol defaults / env overrides.
    max_study_runs: int | None = None
    max_batch_cells: int | None = None
    #: Consecutive transport failures that open a shard's breaker.
    breaker_failures: int = 3
    #: Seconds an open breaker waits before its half-open probe.
    breaker_reset_s: float = 2.0
    #: Retry budget: tokens earned per successful downstream call
    #: (each retry spends one), and the bucket's cap.
    retry_budget_ratio: float = 0.1
    retry_budget_cap: float = 10.0
    #: Serve an unavailable owner's key range by pricing locally
    #: (``False`` restores fail-fast 502s).
    degraded: bool = True
    #: Store for degraded pricing; ``None`` defaults to the
    #: supervised tier's own store (static-URL routers stay in-memory).
    store_path: str | None = None


class ShardRouter(HttpService):
    """The tier's front: one listener, N shards, same protocol.

    Owns either a :class:`ShardSupervisor` (it can then restart
    members via ``/v1/admin/restart``) or a static URL list (routing
    over externally managed shards).
    """

    role = "router"

    def __init__(
        self,
        supervisor: ShardSupervisor | None = None,
        urls: list[str] | None = None,
        config: RouterConfig | None = None,
    ) -> None:
        if (supervisor is None) == (urls is None):
            raise ValueError("pass exactly one of supervisor= or urls=")
        self.supervisor = supervisor
        self._static_urls = list(urls) if urls is not None else None
        self.config = config if config is not None else RouterConfig()
        super().__init__(
            self.config.host, self.config.port, self.config.drain_timeout_s
        )
        self.metrics = MetricsRegistry()
        self._breakers: dict[int, CircuitBreaker] = {}
        self._budget = RetryBudget(
            ratio=self.config.retry_budget_ratio,
            cap=self.config.retry_budget_cap,
        )
        #: Prices degraded cells in this process; built on first use.
        self._batcher: Batcher | None = None
        #: Shards currently (or last known) served degraded; cleared —
        #: and counted as a re-home — on their next direct success.
        self._degraded_marked: set[int] = set()
        self._clients: dict[str, HttpClient] = {}
        self.log = obs_logging.get_logger("router")

    # -- membership ----------------------------------------------------

    @property
    def shard_urls(self) -> list[str]:
        if self.supervisor is not None:
            return self.supervisor.urls
        return list(self._static_urls or [])

    @property
    def n_shards(self) -> int:
        return len(self.shard_urls)

    def _client(self, url: str) -> HttpClient:
        client = self._clients.get(url)
        if client is None:
            client = self._clients[url] = HttpClient(url)
        return client

    async def _call_shard_json(
        self, url: str, method: str, path: str, doc: dict | None = None
    ) -> tuple[int, dict]:
        body = json.dumps(doc).encode() if doc is not None else b""
        try:
            status, payload = await self._client(url).request(
                method, path, body, timeout=self.config.deadline_s
            )
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError) as exc:
            raise ShardUnavailable(f"shard at {url}: {type(exc).__name__}: {exc}")
        try:
            return status, json.loads(payload.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardUnavailable(f"shard at {url} sent non-JSON: {exc}")

    # -- resilience ----------------------------------------------------

    def _url_for(self, owner: int) -> str:
        if self.supervisor is not None:
            return self.supervisor.url_for(owner)
        return (self._static_urls or [])[owner]

    def _breaker(self, owner: int) -> CircuitBreaker:
        breaker = self._breakers.get(owner)
        if breaker is None:
            def on_transition(
                old: BreakerState, new: BreakerState, owner: int = owner
            ) -> None:
                self.metrics.counter(
                    "repro_router_breaker_transitions_total",
                    help="Breaker transitions, by shard and new state.",
                    shard=str(owner), to=new.value,
                ).inc()
                self.metrics.gauge(
                    "repro_router_breaker_state",
                    help="Breaker state per shard "
                    "(0 closed, 1 half-open, 2 open).",
                    shard=str(owner),
                ).set(BREAKER_STATE_VALUES[new])
                self.log.info(
                    "breaker-transition", shard=owner,
                    previous=old.value, state=new.value,
                )
                ctx = tracing.current()
                if ctx is not None:
                    now = time.perf_counter()
                    tracing.TRACER.record(
                        "breaker_transition", now, now, parent=ctx,
                        attrs={"shard": owner, "to": new.value},
                    )
            breaker = self._breakers[owner] = CircuitBreaker(
                failures=self.config.breaker_failures,
                reset_s=self.config.breaker_reset_s,
                on_transition=on_transition,
            )
        return breaker

    def _owner_available(self, owner: int) -> bool:
        """Is the owner worth calling at all (supervision says so)?"""
        return self.supervisor is None or self.supervisor.serving(owner)

    async def _resilient_call(
        self, owner: int, method: str, path: str, doc: dict | None = None
    ) -> tuple[int, dict]:
        """One shard call behind the owner's breaker and the global
        retry budget: at most one budget-gated retry, fail fast when
        the breaker is open."""
        last_exc: ShardUnavailable | None = None
        for attempt in range(2):
            breaker = self._breaker(owner)
            if not breaker.allow():
                raise ShardUnavailable(
                    f"shard {owner}: circuit breaker is {breaker.state.value}"
                )
            try:
                result = await self._call_shard_json(
                    self._url_for(owner), method, path, doc
                )
            except ShardUnavailable as exc:
                breaker.record_failure()
                last_exc = exc
                if attempt == 0 and self._budget.spend():
                    self.metrics.counter(
                        "repro_router_retries_total",
                        help="Downstream retries spent from the retry budget.",
                        shard=str(owner),
                    ).inc()
                    continue
                raise
            breaker.record_success()
            self._budget.earn()
            if owner in self._degraded_marked:
                self._degraded_marked.discard(owner)
                self.metrics.counter(
                    "repro_router_rehomed_total",
                    help="Times routing returned to a shard after a "
                    "spell of degraded service.",
                    shard=str(owner),
                ).inc()
                self.log.info("shard-rehomed", shard=owner)
            return result
        raise last_exc  # pragma: no cover - loop always raises/returns

    # -- degraded routing ----------------------------------------------

    def _local(self) -> Batcher:
        """The degraded pricer: a :class:`~repro.serve.batcher.Batcher`
        over the tier's store when it has one.  Results are pure
        functions of the spec's content key, so a cell priced here is
        bit-identical to the shard's answer; through the shared store,
        warm cells are read from disk and degraded computes land
        durably, so the shard that returns from quarantine boots warm."""
        if self._batcher is None:
            store_path = self.config.store_path
            if store_path is None and self.supervisor is not None:
                store_path = self.supervisor.config.store_path
            cache = (
                PersistentResultCache(ResultStore(store_path))
                if store_path else memo.SingleFlightCache()
            )
            self._batcher = Batcher(cache=cache)
        return self._batcher

    def _count_degraded(self, route: str, owner: int) -> None:
        self.metrics.counter(
            "repro_router_degraded_total",
            help="Requests served by the router's degraded local "
            "pricing path, by route.",
            route=route,
        ).inc()
        self._degraded_marked.add(owner)
        self.log.info("degraded-serve", route=route, shard=owner)
        ctx = tracing.current()
        if ctx is not None:
            now = time.perf_counter()
            tracing.TRACER.record(
                "degraded_serve", now, now, parent=ctx,
                attrs={"route": route, "shard": owner},
            )

    async def _degraded_predict(
        self, request: protocol.PredictRequest, owner: int
    ) -> tuple[int, dict]:
        self._count_degraded("predict", owner)
        baseline_spec, model_spec = request.specs()
        (baseline, baseline_prov), (model, model_prov) = _relabelled(
            await self._local().submit_many((baseline_spec, model_spec))
        )
        return 200, protocol.predict_response(
            request,
            baseline_seconds=baseline.seconds,
            model_result=model,
            provenance={"baseline": baseline_prov, "model": model_prov},
            key=model_spec.content_key()[:16],
        )

    async def _degraded_group(
        self, owner: int, members: list[tuple[int, protocol.PredictRequest]]
    ) -> list[tuple[int, dict]]:
        """Price one fan-out group locally, shaped by the shard's own
        ``/v1/batch`` response code so reassembly does not care."""
        self._count_degraded("batch", owner)
        request = protocol.BatchRequest(cells=tuple(cell for _pos, cell in members))
        served = await self._local().submit_batch(request.specs())
        results = protocol.batch_response(request, _relabelled(served))["results"]
        return [(position, doc) for (position, _cell), doc in zip(members, results)]

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self.log.info(
            "router-started", url=self.url, shards=self.shard_urls,
        )

    async def shutdown(self) -> None:
        """Drain the router, then stop the shards it supervises."""
        await super().shutdown()
        for client in self._clients.values():
            client.close()
        if self._batcher is not None:
            await self._batcher.drain()
        if self.supervisor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.supervisor.stop
            )
        self.log.info("router-stopped")

    def _observe(
        self, route: str, status: int, started: float, written: float,
        trace: tracing.TraceSpan | None,
    ) -> None:
        self.metrics.counter(
            "repro_router_requests_total",
            help="Requests through the shard router, by route and status.",
            route=route, status=str(status),
        ).inc()
        self.metrics.histogram(
            "repro_router_latency_seconds",
            help="Router-side request latency (fan-out included).",
            buckets=SERVE_LATENCY_BUCKETS,
            route=route,
        ).observe(time.perf_counter() - started)

    # -- routing -------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest, trace: tracing.TraceSpan | None
    ) -> Answer:
        path = request.path.split("?", 1)[0]
        if path in PREDICTION_ROUTES:
            return await self._prediction(path, request)
        if path == "/healthz":
            return "healthz", 200, {
                "status": "ok", "role": "router", "shards": self.n_shards,
            }, ()
        if path == "/readyz":
            return await self._readyz()
        if path == "/metrics":
            return "metrics", 200, self._metrics_exposition(), ()
        if path == "/v1/shards":
            return self._shard_listing()
        if path == "/v1/admin/restart":
            if request.method != "POST":
                return "admin", 405, protocol.error_response(
                    405, "/v1/admin/restart only accepts POST"
                ), ()
            return await self._answer("admin", request, self._admin_restart)
        if path == "/v1/admin/chaos":
            if request.method != "POST":
                return "admin", 405, protocol.error_response(
                    405, "/v1/admin/chaos only accepts POST"
                ), ()
            return await self._answer("admin", request, self._admin_chaos)
        return "other", 404, protocol.error_response(
            404, f"no route {path!r}; the router serves /v1/predict, /v1/study, "
            "/v1/batch, /v1/shards, /v1/admin/restart, /v1/admin/chaos, "
            "/healthz, /readyz and /metrics"
        ), ()

    async def _admitted(
        self, route: str, request: HttpRequest, handler: Handler
    ) -> Answer:
        try:
            return await super()._admitted(route, request, handler)
        except ShardUnavailable as exc:
            return route, 502, protocol.error_response(502, str(exc)), ()

    # -- prediction routes ---------------------------------------------

    async def _predict(self, doc: object) -> tuple[int, dict]:
        """Forward the whole request to the cell's owning shard.

        The shard prices baseline + model itself (both hit the shared
        store after first touch), so the response — speedups, keys,
        everything — is byte-for-byte what a single server would say.
        """
        request = protocol.PredictRequest.from_json(doc)
        owner = shard_for_key(request.spec().content_key(), self.n_shards)
        if not self._owner_available(owner):
            if self.config.degraded:
                return await self._degraded_predict(request, owner)
            raise ShardUnavailable(f"shard {owner} is not serving")
        self._count_shard_call(owner)
        try:
            status, payload = await self._resilient_call(
                owner, "POST", "/v1/predict", request.to_json()
            )
        except ShardUnavailable:
            if not self.config.degraded:
                raise
            return await self._degraded_predict(request, owner)
        return status, payload

    async def _batch(self, doc: object) -> tuple[int, dict]:
        request = protocol.BatchRequest.from_json(
            doc, max_cells=self.config.max_batch_cells
        )
        priced = await self._fan_out(request.cells)
        results = []
        tally: dict[str, int] = {}
        for cell_doc in priced:
            provenance = cell_doc.get("provenance", "unknown")
            tally[provenance] = tally.get(provenance, 0) + 1
            results.append(cell_doc)
        return 200, {
            "version": protocol.PROTOCOL_VERSION,
            "count": len(results),
            "results": results,
            "served": tally,
        }

    async def _study(self, doc: object) -> tuple[int, dict]:
        """Expand the matrix, price it across shards, reassemble.

        The cells and their canonical order come from the same
        :meth:`StudyRequest.runs` a single server uses, and the entries
        from the same :func:`~repro.serve.protocol.study_entries`.  JSON
        serializes floats by shortest round-trip repr, so the seconds
        that come back equal the shard's floats bit for bit, and the
        derived speedups match a single server (and ``run_study``).
        """
        request = protocol.StudyRequest.from_json(
            doc, max_runs=self.config.max_study_runs
        )
        runs = request.runs()
        cells = tuple(
            protocol.PredictRequest(
                app=spec.app, model=spec.model, platform=spec.platform,
                precision=spec.precision, scale=request.scale,
            )
            for spec in runs
        )
        priced = await self._fan_out(cells)
        tally: dict[str, int] = {}
        for cell_doc in priced:
            provenance = cell_doc.get("provenance", "unknown")
            tally[provenance] = tally.get(provenance, 0) + 1

        entries = protocol.study_entries(request, (
            # getattr-equivalent: a pre-energy shard may omit the field
            # from its batch response.
            (cell_doc["seconds"], cell_doc["kernel_seconds"], cell_doc.get("joules", 0.0))
            for cell_doc in priced
        ))
        return 200, protocol.study_response(request, entries, tally)

    async def _fan_out(
        self, cells: tuple[protocol.PredictRequest, ...]
    ) -> list[dict]:
        """Price cells on their owning shards; results in cell order."""
        urls = self.shard_urls
        groups: dict[int, list[tuple[int, protocol.PredictRequest]]] = {}
        for position, cell in enumerate(cells):
            owner = shard_for_key(cell.spec().content_key(), len(urls))
            groups.setdefault(owner, []).append((position, cell))

        async def price_group(
            owner: int, members: list[tuple[int, protocol.PredictRequest]]
        ) -> list[tuple[int, dict]]:
            if not self._owner_available(owner):
                if self.config.degraded:
                    return await self._degraded_group(owner, members)
                raise ShardUnavailable(f"shard {owner} is not serving")
            self._count_shard_call(owner)
            body = {"cells": [cell.to_json() for _pos, cell in members]}
            try:
                status, payload = await self._resilient_call(
                    owner, "POST", "/v1/batch", body
                )
            except ShardUnavailable:
                if not self.config.degraded:
                    raise
                return await self._degraded_group(owner, members)
            results = payload.get("results") if isinstance(payload, dict) else None
            if status != 200 or not (
                isinstance(results, list) and len(results) == len(members)
                and all(isinstance(result, dict) for result in results)
            ):
                message = "unexpected response"
                if isinstance(payload, dict) and "error" in payload:
                    message = payload["error"].get("message", message)
                if self.config.degraded:
                    self.log.info(
                        "degraded-after-shard-error", shard=owner,
                        status=status, message=message,
                    )
                    return await self._degraded_group(owner, members)
                raise ShardUnavailable(
                    f"shard {owner} answered {status} pricing "
                    f"{len(members)} cells: {message}"
                )
            return [
                (position, result)
                for (position, _cell), result in zip(members, results)
            ]
        self.metrics.histogram(
            "repro_router_fanout_shards",
            help="Shards touched per fanned-out request.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        ).observe(len(groups))
        placed = await asyncio.gather(*(
            price_group(owner, members) for owner, members in groups.items()
        ))
        ordered: list[dict | None] = [None] * len(cells)
        for group in placed:
            for position, result in group:
                ordered[position] = result
        return ordered  # type: ignore[return-value]

    def _count_shard_call(self, owner: int) -> None:
        self.metrics.counter(
            "repro_router_shard_requests_total",
            help="Downstream calls per shard.",
            shard=str(owner),
        ).inc()

    # -- operations ----------------------------------------------------

    async def _readyz(self) -> Answer:
        """Aggregate readiness: ready only when every shard is."""
        if self._draining:
            return "readyz", 503, {"status": "draining"}, ()

        async def probe(url: str) -> dict:
            try:
                status, _payload = await self._client(url).request(
                    "GET", "/readyz", timeout=self.config.probe_timeout_s
                )
                return {"url": url, "status": status}
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                return {"url": url, "status": 0, "error": type(exc).__name__}

        probes = await asyncio.gather(*(probe(url) for url in self.shard_urls))
        ready = all(p["status"] == 200 for p in probes)
        return "readyz", 200 if ready else 503, {
            "status": "ready" if ready else "degraded",
            "shards": probes,
        }, ()

    def _shard_listing(self) -> Answer:
        shards = []
        if self.supervisor is not None:
            for shard in self.supervisor.shards():
                breaker = self._breakers.get(shard.index)
                shards.append({
                    "shard": shard.index,
                    "url": shard.url,
                    "pid": shard.process.pid,
                    "alive": shard.process.is_alive(),
                    "generation": shard.generation,
                    **self.supervisor.health_json(shard.index),
                    "breaker": breaker.to_json() if breaker is not None
                    else {"state": BreakerState.CLOSED.value, "opens": 0,
                          "consecutive_failures": 0},
                })
        else:
            for index, url in enumerate(self.shard_urls):
                breaker = self._breakers.get(index)
                shards.append({
                    "shard": index, "url": url,
                    "breaker": breaker.to_json() if breaker is not None
                    else {"state": BreakerState.CLOSED.value, "opens": 0,
                          "consecutive_failures": 0},
                })
        return "shards", 200, {
            "version": protocol.PROTOCOL_VERSION,
            "count": len(shards),
            "restarts": self.supervisor.restarts if self.supervisor else 0,
            "shards": shards,
        }, ()

    async def _admin_restart(self, doc: object) -> tuple[int, dict]:
        """Gracefully bounce one shard (drain old, boot warm new)."""
        if self.supervisor is None:
            raise protocol.ProtocolError(
                "this router does not supervise its shards; "
                "restart them externally"
            )
        if not isinstance(doc, dict) or not isinstance(doc.get("shard"), int):
            raise protocol.ProtocolError("body must be {\"shard\": <index>}")
        index = doc["shard"]
        if not 0 <= index < self.supervisor.n_shards:
            raise protocol.ProtocolError(
                f"no shard {index}; tier has {self.supervisor.n_shards}"
            )
        old_url = self.supervisor.url_for(index)
        started = time.perf_counter()
        new_url = await asyncio.get_running_loop().run_in_executor(
            None, self.supervisor.restart, index
        )
        client = self._clients.pop(old_url, None)
        if client is not None:
            client.close()
        # A manual restart is a clean slate: the fresh process deserves
        # a closed breaker and a cleared degraded mark.
        self._breakers.pop(index, None)
        self._degraded_marked.discard(index)
        self.metrics.counter(
            "repro_router_restarts_total",
            help="Shard restarts performed through /v1/admin/restart.",
        ).inc()
        return 200, {
            "version": protocol.PROTOCOL_VERSION,
            "shard": index,
            "url": new_url,
            "restart_s": round(time.perf_counter() - started, 3),
        }

    async def _admin_chaos(self, doc: object) -> tuple[int, dict]:
        """Broadcast a chaos plan (or the ``null`` disarm) to every
        serving shard — the drill's arm/disarm switch."""
        if doc is not None and not isinstance(doc, dict):
            raise protocol.ProtocolError(
                "body must be a JSON object (or empty to disarm)"
            )
        results = []
        for index in range(self.n_shards):
            if not self._owner_available(index):
                results.append({"shard": index, "status": 0,
                                "skipped": "not serving"})
                continue
            try:
                status, payload = await self._call_shard_json(
                    self._url_for(index), "POST", "/v1/admin/chaos",
                    doc if doc is not None else {},
                )
                entry = {"shard": index, "status": status}
                if isinstance(payload, dict):
                    entry["armed"] = payload.get("armed")
                results.append(entry)
            except ShardUnavailable as exc:
                results.append({"shard": index, "status": 0,
                                "error": str(exc)})
        return 200, {
            "version": protocol.PROTOCOL_VERSION,
            "shards": results,
        }

    def _metrics_exposition(self) -> str:
        snapshot = MetricsRegistry()
        snapshot.merge(self.metrics)
        if self.supervisor is not None:
            snapshot.merge(self.supervisor.metrics)
        snapshot.gauge(
            "repro_router_shards", help="Shards this router fronts."
        ).set(self.n_shards)
        snapshot.gauge(
            "repro_router_uptime_seconds",
            help="Seconds since the router started accepting connections.",
        ).set(time.time() - self.started_at if self.started_at is not None else 0.0)
        return snapshot.to_prometheus()


# -- embedding helper --------------------------------------------------


class ShardedTier(ServiceThread):
    """Supervisor + router on a background thread, as one handle.

    The sharded counterpart of :class:`~repro.serve.server.ServerThread`:
    ``repro loadtest --shards N`` and the test suite use it to stand a
    whole warm tier up (and tear it down) around a measurement.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        shards: int = 2,
        router: RouterConfig | None = None,
        policy: SupervisionPolicy | None = None,
    ) -> None:
        self.supervisor = ShardSupervisor(
            config if config is not None else ServeConfig(), shards,
            policy=policy,
        )
        self.router = ShardRouter(supervisor=self.supervisor, config=router)
        super().__init__(self.router)

    def start(self, timeout: float = 330.0) -> "ShardedTier":
        # Shards first (synchronously: their boot includes the warm-up),
        # then the router thread.
        self.supervisor.start()
        try:
            return super().start(timeout)
        except RuntimeError:
            self.supervisor.stop()
            raise

    @property
    def shard_urls(self) -> list[str]:
        return self.supervisor.urls

    def stop(self, timeout: float = 60.0) -> None:
        super().stop(timeout)
        self.supervisor.stop()
