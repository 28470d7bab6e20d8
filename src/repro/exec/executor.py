"""Work-sharding executor for study/sweep/ablation matrices.

Takes a flat list of :class:`~repro.exec.plan.RunSpec` descriptors,
deduplicates them by content, and executes each unique run exactly
once — either in-process (``max_workers=1``, the deterministic
reference path) or fanned out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Results are
reassembled in *submission* order, never completion order, so the
output is bit-identical for every worker count: each run is an
independent, deterministic simulation on a fresh platform, and the
kernel memo cache (:mod:`repro.engine.memo`) only short-circuits
recomputation of pure functions.

Every outcome carries per-run wall time and the cache hit/miss delta
its execution produced, aggregated into an :class:`ExecStats` that the
CLI reports — the speedup of the executor itself is observable.

Execution is fault tolerant.  Each run goes through the retry ladder
of :mod:`repro.exec.retry` (classification, deterministic backoff,
watchdog, quarantine); a broken or hung pool is respawned with only
the in-flight specs requeued, and after repeated breakage the executor
degrades to the in-process path instead of giving up.  Failures never
raise out of :func:`execute` — they come back as ``None`` slots plus
:class:`~repro.exec.faults.RunError` records in ``ExecStats.failures``,
so a study keeps every result it managed to compute.  With a
checkpoint journal (:mod:`repro.exec.checkpoint`) completed outcomes
also survive a crash or Ctrl-C and are skipped on resume.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from ..apps.base import RunResult
from ..engine import memo
from ..engine.counters import LIMITERS
from ..obs import spans as obs_spans
from ..obs import tracing as obs_tracing
from ..obs.export import Timeline, merge_run_telemetry
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.spans import InstantEvent, RunTelemetry, Span, SpanRecorder
from .checkpoint import CheckpointJournal
from .faults import ErrorKind, FaultAttempt, FaultPlan, RunError, fault_plan_from_env
from .plan import RunSpec
from .retry import RetryPolicy, run_with_retry

#: True inside a pool worker process (set by :func:`_init_worker`);
#: gates the fault injections that would take the whole process down.
_POOL_WORKER = False

_LOG = get_logger("exec")


@dataclass(frozen=True)
class RunOutcome:
    """One executed descriptor with its observability counters.

    ``wall_seconds`` and ``caches`` describe the run that actually
    computed the result; deduplicated descriptors share the outcome of
    the first occurrence.
    """

    spec: RunSpec
    result: RunResult
    wall_seconds: float
    #: Memo hit/miss delta of the run, by cache layer (empty for a
    #: columnar row, which makes no lookup of its own).
    caches: dict[str, memo.MemoStats]
    #: Full span/metric recording of the run; ``None`` unless the
    #: executor ran with telemetry enabled.
    telemetry: RunTelemetry | None = None
    #: Total attempts this run took (1 = first try succeeded).
    attempts: int = 1
    #: The failed attempts that preceded success, oldest first.
    retry_history: tuple[FaultAttempt, ...] = ()


@dataclass
class ExecStats:
    """Aggregate observability of one ``execute`` call."""

    requested_runs: int = 0
    unique_runs: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    #: Sum of per-run wall times — what a fully serial, cache-cold
    #: schedule would roughly cost; ``wall_seconds`` is what this
    #: schedule actually cost.
    run_seconds: float = 0.0
    #: Memo hit/miss counts by cache layer, summed over the runs (the
    #: columnar engine measures its whole call instead).
    caches: dict[str, memo.MemoStats] = field(default_factory=dict)
    #: Per-run (spec, wall seconds, memo counts by layer) — one row per
    #: executed unique run.  Rows carry the :class:`RunSpec`, not its
    #: label: only ``repro study --per-run`` formats one.
    per_run: list[tuple[RunSpec, float, dict[str, memo.MemoStats]]] = field(
        default_factory=list
    )
    #: Kernel launches by dominant limiter ("compute" / "memory" /
    #: "floor"), summed over the executed runs — Table I's
    #: boundedness claim, visible per study run.
    limited_by: dict[str, int] = field(default_factory=dict)
    #: Merged study-wide telemetry; ``None`` unless requested.
    timeline: Timeline | None = None
    #: Attempts beyond the first, summed over every run (worker-side
    #: retries plus pool-level requeues).
    retries: int = 0
    #: Runs that exhausted their attempt budget, with full histories.
    #: The study proceeds without them (their outcome slots are None).
    failures: list[RunError] = field(default_factory=list)
    #: Times a broken or hung worker pool was torn down and rebuilt.
    pool_respawns: int = 0
    #: Runs restored from a checkpoint journal instead of executed.
    resumed_runs: int = 0

    @property
    def deduplicated_runs(self) -> int:
        """Descriptors served by another descriptor's result."""
        return self.requested_runs - self.unique_runs

    @property
    def parallel_speedup(self) -> float:
        """run_seconds / wall_seconds — the observable executor gain."""
        return self.run_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def quarantined(self) -> int:
        """Runs abandoned after exhausting their attempt budget."""
        return len(self.failures)

    @property
    def attempts(self) -> int:
        """Total run attempts made (executed runs + all retries)."""
        return self.unique_runs + self.retries

    def failure_kinds(self) -> dict[str, int]:
        """Quarantined runs tallied by error kind."""
        kinds: dict[str, int] = {}
        for failure in self.failures:
            kinds[failure.kind.value] = kinds.get(failure.kind.value, 0) + 1
        return kinds

    def summary(self) -> str:
        """Human-readable report block for the CLI."""
        lines = [
            f"runs: {self.requested_runs} requested, {self.unique_runs} executed "
            f"({self.deduplicated_runs} deduplicated), workers: {self.workers}",
            f"wall time: {self.wall_seconds:.2f} s "
            f"(sum of per-run times: {self.run_seconds:.2f} s, "
            f"executor speedup: {self.parallel_speedup:.2f}x)",
        ]
        lines.extend(
            f"{_CACHE_LABELS.get(name, name)} memo cache: {counts.hits} hits / "
            f"{counts.misses} misses ({counts.hit_rate:.1%} hit rate)"
            for name, counts in self.caches.items()
            if counts.lookups
        )
        if self.limited_by:
            tally = ", ".join(
                f"{name} {self.limited_by[name]}"
                for name in sorted(self.limited_by, key=self.limited_by.get, reverse=True)
            )
            lines.append(f"kernel launches limited by: {tally}")
        if self.retries or self.failures or self.pool_respawns:
            lines.append(
                f"fault tolerance: {self.attempts} attempts over {self.unique_runs} runs "
                f"({self.retries} retries), {self.quarantined} quarantined, "
                f"{self.pool_respawns} pool respawns"
            )
            kinds = self.failure_kinds()
            if kinds:
                tally = ", ".join(f"{kind} {kinds[kind]}" for kind in sorted(kinds))
                lines.append(f"failures by kind: {tally}")
        if self.resumed_runs:
            lines.append(
                f"resumed from checkpoint: {self.resumed_runs} runs restored, "
                f"{self.unique_runs - self.resumed_runs} executed"
            )
        return "\n".join(lines)

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Combine stats of two executor calls (e.g. study + sweeps).

        Timelines are not re-merged (their clocks already start at
        zero); the first non-``None`` one is kept.
        """
        tallies = dict(self.limited_by)
        for name, count in other.limited_by.items():
            tallies[name] = tallies.get(name, 0) + count
        return ExecStats(
            requested_runs=self.requested_runs + other.requested_runs,
            unique_runs=self.unique_runs + other.unique_runs,
            workers=max(self.workers, other.workers),
            wall_seconds=self.wall_seconds + other.wall_seconds,
            run_seconds=self.run_seconds + other.run_seconds,
            caches=_sum_caches((self.caches, other.caches)),
            per_run=self.per_run + other.per_run,
            limited_by=tallies,
            timeline=self.timeline if self.timeline is not None else other.timeline,
            retries=self.retries + other.retries,
            failures=self.failures + other.failures,
            pool_respawns=self.pool_respawns + other.pool_respawns,
            resumed_runs=self.resumed_runs + other.resumed_runs,
        )

    @classmethod
    def from_outcomes(
        cls,
        executed: Sequence[RunOutcome | None],
        caches: dict[str, memo.MemoStats] | None = None,
        **fields: object,
    ) -> ExecStats:
        """Stats of one executor call: the run sums and tallies over
        ``executed`` (``None`` slots skipped), plus the call-level
        ``fields``; ``caches`` defaults to the outcomes' summed counts."""
        done = list(filter(None, executed))
        return cls(
            run_seconds=sum(map(attrgetter("wall_seconds"), done)),
            caches=_sum_caches(map(attrgetter("caches"), done)) if caches is None else caches,
            per_run=list(map(attrgetter("spec", "wall_seconds", "caches"), done)),
            limited_by=_limited_by_tallies(done),
            **fields,  # type: ignore[arg-type]
        )


#: Summary names of the cache layers whose name alone is too terse.
_CACHE_LABELS = {"kernel": "kernel-pricing", "trace": "trace-replay"}


def _sum_caches(mappings: Iterable[dict[str, memo.MemoStats]]) -> dict[str, memo.MemoStats]:
    """Per-layer sum of memo counts, layers in first-seen order."""
    totals: dict[str, tuple[int, int]] = {}
    for caches in mappings:
        for name, counts in caches.items():
            hits, misses = totals.get(name, (0, 0))
            totals[name] = (hits + counts.hits, misses + counts.misses)
    return {name: memo.MemoStats(*total) for name, total in totals.items()}


def execute_run(
    spec: RunSpec,
    telemetry: bool = False,
    faults: FaultPlan | None = None,
    attempt: int = 0,
) -> RunOutcome:
    """Execute one descriptor in this process.

    Builds a fresh platform (with the spec's clock overrides), runs
    the port, and measures wall time plus the memo-cache delta.  With
    ``telemetry`` a fresh :class:`~repro.obs.spans.SpanRecorder` is
    active for the duration of the run; recording is observational
    only, so the result is bit-identical either way.

    ``faults``/``attempt`` drive the deterministic chaos harness: a
    drawn fault fires on the run's early attempts, after which the run
    proceeds normally — the computed result never depends on the
    attempt number, which is what keeps injected campaigns
    bit-identical to fault-free runs.
    """
    # Lazy imports keep the exec package importable from low layers
    # and let pool workers pay the heavy app imports exactly once.
    from ..apps import APPS_BY_NAME
    from ..models.base import ExecutionContext

    if faults is not None and faults.active:
        faults.apply(spec.content_key(), spec.label, attempt, in_pool_worker=_POOL_WORKER)

    before = memo.snapshot()
    started = time.perf_counter()
    app = APPS_BY_NAME[spec.app]
    ctx = ExecutionContext(
        platform=spec.make_platform(),
        precision=spec.precision,
        execute_kernels=not spec.projection,
    )
    recorded: RunTelemetry | None = None
    # Projection runs never write their setup arrays: share them.
    setups = memo.shared_setups() if spec.projection else nullcontext()
    if telemetry:
        recorder = SpanRecorder(meta=spec.telemetry_meta())
        with obs_spans.recording(recorder), setups:
            result = app.ports[spec.model](ctx, spec.config)
        recorded = recorder.finish(spec.label)
    else:
        with setups:
            result = app.ports[spec.model](ctx, spec.config)
    wall = time.perf_counter() - started
    caches = memo.since(before)
    trace_ctx = obs_tracing.current()
    if trace_ctx is not None:
        # This run is part of a distributed trace (a serve request's
        # engine segment or a traced study).  The span id is derived
        # from content, so the same plan yields an identical span tree
        # at any worker count.  With a recorder the span ships home
        # re-based in the telemetry envelope (pool workers can't reach
        # the parent's tracer); otherwise we're in the owning process
        # and emit directly on its clock.
        run_span = obs_tracing.TraceSpan(
            trace_id=trace_ctx.trace_id,
            span_id=obs_tracing.derived_span_id(
                trace_ctx.trace_id, trace_ctx.span_id,
                f"run:{spec.label}", spec.content_key(),
            ),
            parent_id=trace_ctx.span_id,
            name=f"run:{spec.label}",
            kind="worker",
            start_s=started,
            end_s=started + wall,
            attrs={**spec.telemetry_meta(), "attempt": attempt},
        )
        if recorded is not None:
            recorded.trace_spans.append(run_span.rebased(started))
        else:
            obs_tracing.TRACER.emit(run_span)
    if faults is not None and faults.injects("corrupt", spec.content_key(), attempt):
        # Injected result corruption: mangle the checksum so the
        # validation step of the retry ladder has something to catch.
        result = replace(result, checksum=math.nan)
    return RunOutcome(
        spec=spec,
        result=result,
        wall_seconds=wall,
        caches=caches,
        telemetry=recorded,
    )


def _init_worker(use_cache: bool) -> None:
    """Pool initializer: fresh per-worker memo caches."""
    global _POOL_WORKER
    _POOL_WORKER = True
    memo.clear_caches()
    memo.set_cache_enabled(use_cache)


def _shard_task(
    shard: list[tuple[int, RunSpec]],
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    base_attempts: dict[int, int] | None = None,
    traceparent: str | None = None,
) -> list[tuple[int, "RunOutcome | RunError"]]:
    """Execute one contiguous shard of the plan in a pool worker.

    Contiguity matters: the plan groups one app's cells together, so a
    worker's setup cache is hot for most of its shard.  Each run goes
    through the retry ladder locally; a spec that exhausts its budget
    comes back as a :class:`~repro.exec.faults.RunError` row rather
    than poisoning the whole shard.

    ``traceparent`` carries the caller's distributed-trace context
    across the process boundary as its serialized header form; each
    run's trace span rides home inside the telemetry envelope.
    """
    policy = policy if policy is not None else RetryPolicy()
    base_attempts = base_attempts or {}
    token = None
    ctx = obs_tracing.parse_traceparent(traceparent)
    if ctx is not None:
        token = obs_tracing.push(ctx)
    try:
        return [
            (
                index,
                run_with_retry(
                    spec,
                    policy,
                    faults=faults,
                    telemetry=telemetry,
                    base_attempt=base_attempts.get(index, 0),
                ),
            )
            for index, spec in shard
        ]
    finally:
        if token is not None:
            obs_tracing.reset(token)


def _setup_affinity(spec: RunSpec) -> tuple:
    """Runs with equal keys share problem setups (the builders behind
    :class:`~repro.engine.memo.SetupMemoCache` are keyed on
    ``(config, precision)``, never on model or platform).  Precision is
    deliberately *not* part of the key: one app's cells interleave
    precisions platform by platform, so cutting between them would
    strand the second platform's setups in another worker."""
    return (spec.app, repr(spec.config))


def _affinity_blocks(
    indexed: list[tuple[int, RunSpec]],
) -> list[list[tuple[int, RunSpec]]]:
    """Group the plan into whole setup-affinity blocks.

    Blocks are keyed by :func:`_setup_affinity` and ordered by each
    key's first appearance, with items in input order within a block.
    Grouping — rather than cutting at consecutive-run boundaries — is
    what makes execution order (and therefore the setup LRU's hit
    pattern and the shard layout) invariant to how the caller shuffled
    its specs: a permuted plan yields the same blocks, merely permuted.
    """
    by_key: dict[tuple, list[tuple[int, RunSpec]]] = {}
    blocks: list[list[tuple[int, RunSpec]]] = []
    for index, spec in indexed:
        key = _setup_affinity(spec)
        block = by_key.get(key)
        if block is None:
            block = by_key[key] = []
            blocks.append(block)
        block.append((index, spec))
    return blocks


def _shard_by_affinity(
    indexed: list[tuple[int, RunSpec]], workers: int
) -> list[list[tuple[int, RunSpec]]]:
    """Split the plan into at most ``workers`` shards of whole
    setup-affinity blocks when there are enough blocks.

    A shard boundary inside an affinity block makes two workers build
    the identical problem setup — at paper scale that is the dominant
    per-run cost, so boundaries snap to the block grid.  When the plan
    has fewer blocks than workers (a frequency sweep is one block),
    parallelism wins instead: fall back to an even item split and let
    each worker rebuild the (small, in that regime) setup once.
    """
    blocks = _affinity_blocks(indexed)
    if len(blocks) < workers:
        flat = [item for block in blocks for item in block]
        bound = -(-len(flat) // workers)
        return [flat[i : i + bound] for i in range(0, len(flat), bound)]

    # Greedy contiguous packing: close a shard once it holds its even
    # share of the remaining items over the remaining shards.
    shards: list[list[tuple[int, RunSpec]]] = []
    current: list[tuple[int, RunSpec]] = []
    remaining_items = len(indexed)
    for position, block in enumerate(blocks):
        current.extend(block)
        remaining_blocks = len(blocks) - position - 1
        open_slots = workers - len(shards)
        share = remaining_items / open_slots
        if (len(current) >= share and open_slots > 1) or remaining_blocks < open_slots - 1:
            shards.append(current)
            remaining_items -= len(current)
            current = []
    if current:
        shards.append(current)
    return shards


def default_workers() -> int:
    """A safe default worker count: the CPU count, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _limited_by_tallies(executed: list[RunOutcome]) -> dict[str, int]:
    """Kernel launches by dominant limiter, over the executed runs
    (limiters no launch hit are left out)."""
    counters = [outcome.result.counters for outcome in executed]
    tallies = {
        name: sum(map(attrgetter(f"{name}_launches"), counters)) for name in LIMITERS
    }
    return {name: count for name, count in tallies.items() if count}


def _executor_metrics(stats: ExecStats, worker_busy: dict[int, float]) -> MetricsRegistry:
    """Executor-level gauges/counters folded into the merged timeline."""
    registry = MetricsRegistry()
    registry.counter(
        "repro_executor_runs_total", help="Run descriptors handled.", result="requested"
    ).inc(stats.requested_runs)
    registry.counter(
        "repro_executor_runs_total", help="Run descriptors handled.", result="executed"
    ).inc(stats.unique_runs)
    registry.counter(
        "repro_executor_runs_total", help="Run descriptors handled.", result="deduplicated"
    ).inc(stats.deduplicated_runs)
    for name in memo.CACHES:
        registry.gauge(
            "repro_memo_hit_ratio", help="Memo hit ratio by cache layer.", cache=name
        ).set(stats.caches.get(name, memo.MemoStats()).hit_rate)
    for name, count in sorted(stats.limited_by.items()):
        registry.counter(
            "repro_limited_by_total",
            help="Kernel launches by dominant limiter, study-wide.",
            limited_by=name,
        ).inc(count)
    registry.counter(
        "repro_run_retries_total", help="Run attempts beyond the first."
    ).inc(stats.retries)
    registry.counter(
        "repro_pool_respawns_total", help="Worker pools rebuilt after breakage or hang."
    ).inc(stats.pool_respawns)
    registry.counter(
        "repro_runs_resumed_total", help="Runs restored from a checkpoint journal."
    ).inc(stats.resumed_runs)
    kinds = stats.failure_kinds()
    for kind in ErrorKind:
        registry.counter(
            "repro_run_failures_total",
            help="Quarantined runs by error kind.",
            kind=kind.value,
        ).inc(kinds.get(kind.value, 0))
    for worker in sorted(worker_busy):
        busy = worker_busy[worker]
        registry.counter(
            "repro_worker_busy_seconds_total",
            help="Wall seconds each worker spent executing runs.",
            worker=str(worker),
        ).inc(busy)
        registry.gauge(
            "repro_worker_utilization",
            help="Worker busy time over executor wall time.",
            worker=str(worker),
        ).set(busy / stats.wall_seconds if stats.wall_seconds else 0.0)
    return registry


def _build_timeline(
    pairs: list[tuple[RunOutcome, int]],
    shards: list[list[tuple[int, RunSpec]]],
    stats: ExecStats,
) -> Timeline:
    """Merge per-run recordings, in unique-run (submission) order, and
    decorate the worker tracks with dispatch/start/stop events plus
    the retry/backoff/quarantine record of the run."""
    items = [
        (o.telemetry if o.telemetry is not None else RunTelemetry(label=o.spec.label), w)
        for o, w in pairs
    ]
    worker_busy: dict[int, float] = {}
    for outcome, worker in pairs:
        worker_busy[worker] = worker_busy.get(worker, 0.0) + outcome.wall_seconds
    timeline = merge_run_telemetry(items, extra_metrics=_executor_metrics(stats, worker_busy))

    for outcome, worker in pairs:
        track = f"worker-{worker}"
        for record in outcome.retry_history:
            timeline.events.append(
                InstantEvent(
                    name="run-retry", category="fault", track=track,
                    sim_ts=0.0, wall_ts=0.0,
                    args=(
                        ("run", outcome.spec.label),
                        ("attempt", record.attempt),
                        ("kind", record.kind.value),
                        ("error", record.error),
                    ),
                )
            )
            if record.backoff_seconds > 0:
                timeline.spans.append(
                    Span(
                        name="retry-backoff", category="fault", track=track,
                        sim_start=0.0, sim_end=0.0,
                        wall_start=0.0, wall_end=record.backoff_seconds,
                        args=(("run", outcome.spec.label), ("attempt", record.attempt)),
                    )
                )
    for failure in stats.failures:
        timeline.events.append(
            InstantEvent(
                name="run-quarantined", category="fault", track="worker-0",
                sim_ts=0.0, wall_ts=0.0,
                args=(
                    ("run", failure.label),
                    ("kind", failure.kind.value),
                    ("attempts", failure.n_attempts),
                    ("error", failure.message),
                ),
            )
        )

    depth = len(pairs)
    for worker, shard in enumerate(shards):
        track = f"worker-{worker}"
        timeline.events.append(
            InstantEvent(
                name="worker-start", category="executor", track=track,
                sim_ts=0.0, wall_ts=0.0,
            )
        )
        timeline.events.append(
            InstantEvent(
                name="shard-dispatch", category="executor", track=track,
                sim_ts=0.0, wall_ts=0.0,
                args=(("queue_depth", depth), ("shard_runs", len(shard))),
            )
        )
        depth -= len(shard)
        timeline.events.append(
            InstantEvent(
                name="worker-stop", category="executor", track=track,
                sim_ts=0.0, wall_ts=worker_busy.get(worker, 0.0),
            )
        )
        timeline.metrics.gauge(
            "repro_executor_queue_depth",
            help="Undispatched unique runs after each shard dispatch.",
        ).set(depth)
    return timeline


class ExecutionInterrupted(KeyboardInterrupt):
    """Ctrl-C (or an injected interrupt) stopped a study cleanly.

    Raised instead of a bare ``KeyboardInterrupt`` after the executor
    has flushed every completed outcome to the checkpoint journal, so
    the interrupted study's partial stats survive and the CLI can tell
    the user how to resume.  Subclasses ``KeyboardInterrupt`` so
    callers that do not care still see the interrupt semantics.
    """

    def __init__(
        self,
        stats: ExecStats,
        completed: int,
        checkpoint: Path | None = None,
    ) -> None:
        super().__init__("study execution interrupted")
        self.stats = stats
        self.completed = completed
        self.checkpoint = checkpoint


def _quarantine_error(spec: RunSpec, attempts: int, reason: str) -> RunError:
    """A parent-side quarantine record (no worker traceback exists)."""
    return RunError(
        label=spec.label,
        key=spec.content_key(),
        kind=ErrorKind.POISONED,
        message=reason,
        attempts=tuple(
            FaultAttempt(attempt=i, kind=ErrorKind.POISONED, error=reason)
            for i in range(attempts)
        ),
    )


def execute(
    runs: Sequence[RunSpec],
    max_workers: int = 1,
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
) -> tuple[list[RunOutcome | None], ExecStats]:
    """Execute descriptors, returning outcomes in submission order.

    ``outcomes[i]`` always corresponds to ``runs[i]``; content-equal
    descriptors share one outcome.  ``max_workers=1`` runs in-process
    (no pool, no pickling); larger values shard the unique runs over a
    process pool.  Results are bit-identical across worker counts.

    ``telemetry`` records every run through a span recorder and merges
    the per-worker recordings into ``stats.timeline`` — deterministic
    across worker counts because the merge follows submission order,
    never completion order.  Recording is purely observational: with
    or without it, results stay bit-identical.

    Fault tolerance: each run goes through the retry ladder of
    ``policy`` (default :class:`~repro.exec.retry.RetryPolicy`), and a
    run that exhausts its budget becomes a ``None`` outcome slot plus
    a :class:`~repro.exec.faults.RunError` in ``stats.failures`` —
    :func:`execute` does not raise for run failures.  A broken or hung
    pool is respawned with only the unfinished specs requeued; after
    ``policy.max_pool_respawns`` rebuilds the remainder runs
    in-process.  ``faults`` injects deterministic chaos (defaults to
    the ``REPRO_INJECT_FAULTS`` environment); results stay
    bit-identical under any transient injection.  ``checkpoint``
    names a journal file (or an open
    :class:`~repro.exec.checkpoint.CheckpointJournal`): completed
    outcomes are journaled as they land and restored — not re-executed
    — on the next call, and ``KeyboardInterrupt`` flushes the journal
    before surfacing as :class:`ExecutionInterrupted`.
    """
    started = time.perf_counter()
    policy = policy if policy is not None else RetryPolicy()
    if faults is None:
        faults = fault_plan_from_env()
    journal: CheckpointJournal | None = None
    if checkpoint is not None:
        journal = (
            checkpoint
            if isinstance(checkpoint, CheckpointJournal)
            else CheckpointJournal.open(checkpoint)
        )

    # Content-address the descriptors: first occurrence wins the slot.
    unique: list[RunSpec] = []
    slot_of: dict[str, int] = {}
    placement: list[int] = []
    for spec in runs:
        key = spec.content_key()
        if key not in slot_of:
            slot_of[key] = len(unique)
            unique.append(spec)
        placement.append(slot_of[key])

    # Distributed tracing: when the caller established a trace context,
    # this whole call is one "execute" span and every unique run hangs
    # under it.  The span id derives from the plan's content keys, so
    # the tree is identical at any worker count.  Observation only —
    # results never depend on it.
    parent_ctx = obs_tracing.current()
    exec_span: obs_tracing.TraceSpan | None = None
    exec_token = None
    if parent_ctx is not None:
        exec_span = obs_tracing.TRACER.start_span(
            "execute",
            kind="executor",
            parent=parent_ctx,
            span_id=obs_tracing.derived_span_id(
                parent_ctx.trace_id, parent_ctx.span_id, "execute",
                *sorted(slot_of),
            ),
            attrs={"requested": len(runs), "unique": len(unique)},
        )
        exec_token = obs_tracing.push(exec_span.context)

    executed: list[RunOutcome | None] = [None] * len(unique)
    errors: dict[int, RunError] = {}
    worker_of: list[int] = [0] * len(unique)
    resumed = 0
    pool_respawns = 0

    # Restore checkpointed outcomes; only the remainder executes.
    pending: dict[int, RunSpec] = {}
    for index, spec in enumerate(unique):
        restored = journal.restore(spec.content_key()) if journal is not None else None
        if restored is not None:
            executed[index] = restored
            resumed += 1
        else:
            pending[index] = spec
    if resumed:
        _LOG.info("checkpoint-restored", runs=resumed, remaining=len(pending))

    def settle(index: int, payload: "RunOutcome | RunError") -> None:
        if isinstance(payload, RunError):
            errors[index] = payload
        else:
            executed[index] = payload
            if journal is not None:
                journal.record(payload)

    def run_serially(specs: dict[int, RunSpec], base_attempts: dict[int, int]) -> None:
        # Affinity-block order (not raw index order) keeps one app's
        # cells together under the bounded setup LRU even when the
        # caller shuffled its plan; for a canonically ordered plan the
        # two orders coincide.
        with memo.cache_setting(use_cache):
            for block in _affinity_blocks(sorted(specs.items())):
                for index, spec in block:
                    settle(
                        index,
                        run_with_retry(
                            spec,
                            policy,
                            faults=faults,
                            telemetry=telemetry,
                            base_attempt=base_attempts.get(index, 0),
                        ),
                    )

    shards: list[list[tuple[int, RunSpec]]] = [sorted(pending.items())]
    workers = 1
    interrupted = False
    try:
        if max_workers <= 1 or len(pending) <= 1:
            workers = 1
            run_serially(pending, {})
            pending = {}
        else:
            workers = min(max_workers, len(pending))
            base_attempt = {index: 0 for index in pending}
            while pending:
                if pool_respawns > policy.max_pool_respawns:
                    # Graceful degradation: the pool keeps dying, so
                    # finish the remainder in-process and keep going.
                    _LOG.warning(
                        "serial-degradation",
                        respawns=pool_respawns,
                        remaining=len(pending),
                    )
                    run_serially(pending, base_attempt)
                    pending = {}
                    break
                # Contiguous shards, one per worker, snapped to
                # setup-affinity boundaries: each app's runs stay
                # together, so per-worker setup caches stay hot and no
                # setup is built twice.
                shards = _shard_by_affinity(sorted(pending.items()), workers)
                for shard_index, shard in enumerate(shards):
                    for index, _spec in shard:
                        worker_of[index] = shard_index
                hung = False
                pool = ProcessPoolExecutor(
                    max_workers=len(shards), initializer=_init_worker, initargs=(use_cache,)
                )
                try:
                    future_shard = {
                        pool.submit(
                            _shard_task,
                            shard,
                            telemetry,
                            policy,
                            faults,
                            {index: base_attempt[index] for index, _ in shard},
                            exec_span.context.to_traceparent()
                            if exec_span is not None
                            else None,
                        ): shard
                        for shard in shards
                    }
                    # Parent-side watchdog: a shard retries each spec up
                    # to max_attempts times, so its budget is the sum of
                    # per-attempt watchdogs (plus one slot of grace).
                    budget = None
                    if policy.run_timeout is not None:
                        largest = max(len(shard) for shard in shards)
                        budget = policy.run_timeout * (largest * policy.max_attempts + 1)
                    try:
                        for future in as_completed(future_shard, timeout=budget):
                            try:
                                rows = future.result()
                            except BrokenProcessPool:
                                continue  # this shard's specs get requeued
                            for index, payload in rows:
                                settle(index, payload)
                                pending.pop(index, None)
                    except FuturesTimeout:
                        # A worker is hung past any retry budget: kill
                        # the pool and requeue whatever never landed.
                        hung = True
                        for process in pool._processes.values():
                            process.terminate()
                finally:
                    pool.shutdown(wait=True, cancel_futures=True)
                if not pending:
                    break
                # The pool broke or hung under this round's survivors:
                # charge each a requeue attempt and quarantine specs
                # that keep taking their pool down.
                pool_respawns += 1
                _LOG.warning(
                    "pool-respawn",
                    respawns=pool_respawns,
                    hung=hung,
                    requeued=len(pending),
                )
                for index in sorted(pending):
                    base_attempt[index] += 1
                    if base_attempt[index] >= policy.max_attempts:
                        spec = pending.pop(index)
                        reason = (
                            "worker pool "
                            + ("hung" if hung else "broke")
                            + f" on every attempt ({base_attempt[index]} requeues)"
                        )
                        errors[index] = _quarantine_error(spec, base_attempt[index], reason)
                        _LOG.warning("run-quarantined", run=spec.label, reason=reason)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if exec_token is not None:
            obs_tracing.reset(exec_token)
        if journal is not None:
            journal.close()

    worker_retries = sum(o.attempts - 1 for o in executed if o is not None)
    failed_retries = sum(
        max(error.attempts[-1].attempt, len(error.attempts) - 1) if error.attempts else 0
        for error in errors.values()
    )
    stats = ExecStats.from_outcomes(
        executed,
        requested_runs=len(runs),
        unique_runs=len(unique),
        workers=workers,
        wall_seconds=time.perf_counter() - started,
        retries=worker_retries + failed_retries,
        failures=[errors[index] for index in sorted(errors)],
        pool_respawns=pool_respawns,
        resumed_runs=resumed,
    )
    if telemetry:
        pairs = [(o, w) for o, w in zip(executed, worker_of) if o is not None]
        stats.timeline = _build_timeline(pairs, shards, stats)
    if exec_span is not None:
        if telemetry:
            # Re-parent the run spans that rode home in the telemetry
            # envelopes: each worker's spans were re-based to run-start
            # 0, so lay them end to end on per-worker wall cursors (the
            # same placement the merged timeline uses) inside this
            # span's own clock.
            cursors: dict[int, float] = {}
            for outcome, worker in zip(executed, worker_of):
                if outcome is None or outcome.telemetry is None:
                    continue
                base = exec_span.start_s + cursors.get(worker, 0.0)
                for span in outcome.telemetry.trace_spans:
                    obs_tracing.TRACER.emit(span.shifted(base))
                cursors[worker] = (
                    cursors.get(worker, 0.0) + outcome.telemetry.wall_seconds
                )
        exec_span.attrs["workers"] = workers
        exec_span.attrs["failures"] = len(errors)
        obs_tracing.TRACER.finish_span(
            exec_span, "ok" if not errors else "error"
        )
    if interrupted:
        raise ExecutionInterrupted(
            stats=stats,
            completed=sum(1 for o in executed if o is not None),
            checkpoint=journal.path if journal is not None else None,
        )
    outcomes = [executed[slot] for slot in placement]
    return outcomes, stats


#: Engine names accepted by :func:`execute_with_engine`.
ENGINES = ("scalar", "vector")


def execute_with_engine(
    engine: str,
    runs: Sequence[RunSpec],
    max_workers: int = 1,
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
) -> tuple[list[RunOutcome | None], ExecStats]:
    """Dispatch a run matrix to the scalar or the columnar engine.

    ``"scalar"`` is :func:`execute` (one port simulation per cell — the
    differential oracle); ``"vector"`` is
    :func:`repro.engine.study_vec.execute_vector` (one schedule capture
    per lattice group, all cells priced as batched array ops).  Both
    return bit-identical outcomes; the engine choice only changes how
    fast they are produced.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}: expected one of {ENGINES}")
    if engine == "vector":
        # Imported lazily: study_vec itself builds on this module.
        from ..engine.study_vec import execute_vector

        return execute_vector(
            runs,
            max_workers=max_workers,
            use_cache=use_cache,
            telemetry=telemetry,
            policy=policy,
            faults=faults,
            checkpoint=checkpoint,
        )
    return execute(
        runs,
        max_workers=max_workers,
        use_cache=use_cache,
        telemetry=telemetry,
        policy=policy,
        faults=faults,
        checkpoint=checkpoint,
    )
