"""The prediction service: the paper's models as an online system.

Four PRs of batch infrastructure (parallel executor, memo caches,
telemetry, fault tolerance) answer questions like "what speedup does
C++ AMP get for XSBench on the APU?" — but only via a full process
launch.  This package serves the same engine over HTTP with the
serving-stack shape the ROADMAP's north star asks for:

* :mod:`repro.serve.protocol` — versioned JSON request/response
  schemas (``/v1/predict``, ``/v1/study``, ``/v1/batch``,
  health/readiness/metrics).
* :mod:`repro.serve.batcher` — idle-dispatch micro-batching with
  single-flight deduplication over the process-global result memo,
  dispatching to a backend thread that prices each batch through the
  study executor, :func:`repro.exec.executor.execute`.
* :mod:`repro.serve.http` — the one HTTP/1.1 framing module: request
  parser and response encoder, request encoder and response reader,
  the router's pooled keep-alive client, and one-shot JSON helpers.
* :mod:`repro.serve.service` — the HTTP service skeleton the server
  and the router share: listener, keep-alive connection loop,
  admission counter, graceful drain and the background-thread runner.
* :mod:`repro.serve.server` — stdlib asyncio HTTP/1.1 server with
  bounded admission (429 + ``Retry-After``), per-request deadlines,
  graceful drain, Prometheus instrumentation with trace exemplars,
  per-request span trees (``/v1/debug/traces``), and structured logs
  (``/v1/debug/logs``).
* :mod:`repro.serve.store` — the persistent content-addressed result
  store shared across processes (atomic writes, torn-entry tolerance,
  cross-process single-flight), and the two-tier cache over it.
* :mod:`repro.serve.warmup` — boot-time cache priming, so a restarted
  tier answers its first request warm.
* :mod:`repro.serve.shard` — the horizontally sharded tier: N server
  processes over one store behind a content-hash router
  (``repro serve --shards N``), self-healing via liveness supervision
  (:mod:`repro.serve.supervise`), per-shard circuit breakers with a
  global retry budget (:mod:`repro.serve.breaker`), and degraded local
  pricing through a router-side batcher while an owner shard is down.
* :mod:`repro.serve.faults` / :mod:`repro.serve.chaos` — the seeded
  serve-layer fault injector (crash/hang/slow/reset/corrupt) and the
  chaos drill (``repro loadtest --chaos``) that holds the tier to its
  self-healing invariants under storm.
* :mod:`repro.serve.loadgen` — closed-/open-loop load generation
  (throughput and p50/p95/p99 latency), plus the ``--breakdown``
  per-segment latency attribution.

Entry points: ``repro serve`` and ``repro loadtest``.
"""

from .batcher import BackendRunError, Batcher
from .breaker import BreakerState, CircuitBreaker, RetryBudget
from .chaos import ChaosReport, chaos_bodies, expected_responses, run_chaos_drill
from .faults import ServeChaos, ServeFaultPlan, parse_serve_fault_plan
from .http import fetch_json, fetch_text, retry_after_delay
from .loadgen import (
    LoadResult,
    SegmentStats,
    percentile,
    render_breakdown,
    render_shard_health,
    run_load,
    segment_breakdown,
)
from .protocol import (
    MAX_BATCH_CELLS,
    MAX_STUDY_RUNS,
    PROTOCOL_VERSION,
    BatchRequest,
    LimitExceeded,
    PredictRequest,
    ProtocolError,
    StudyRequest,
    batch_response,
    error_response,
    predict_response,
    study_response,
)
from .server import ServeConfig, Server, ServerThread
from .shard import (
    RouterConfig,
    ShardedTier,
    ShardRouter,
    ShardSupervisor,
    shard_for_key,
)
from .store import PersistentResultCache, ResultStore
from .supervise import ShardHealth, ShardState, SupervisionPolicy
from .warmup import WarmReport, preset_specs, warm_presets

__all__ = [
    "BackendRunError",
    "BatchRequest",
    "Batcher",
    "BreakerState",
    "ChaosReport",
    "CircuitBreaker",
    "LimitExceeded",
    "LoadResult",
    "MAX_BATCH_CELLS",
    "MAX_STUDY_RUNS",
    "PROTOCOL_VERSION",
    "PersistentResultCache",
    "PredictRequest",
    "ProtocolError",
    "ResultStore",
    "RetryBudget",
    "RouterConfig",
    "SegmentStats",
    "ServeChaos",
    "ServeConfig",
    "ServeFaultPlan",
    "Server",
    "ServerThread",
    "ShardHealth",
    "ShardRouter",
    "ShardState",
    "ShardSupervisor",
    "ShardedTier",
    "StudyRequest",
    "SupervisionPolicy",
    "WarmReport",
    "batch_response",
    "chaos_bodies",
    "error_response",
    "expected_responses",
    "fetch_json",
    "fetch_text",
    "parse_serve_fault_plan",
    "percentile",
    "predict_response",
    "preset_specs",
    "render_breakdown",
    "render_shard_health",
    "retry_after_delay",
    "run_chaos_drill",
    "run_load",
    "segment_breakdown",
    "shard_for_key",
    "study_response",
    "warm_presets",
]
