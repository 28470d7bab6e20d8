"""One-process executor for study/sweep/ablation matrices.

Takes a flat list of :class:`~repro.exec.plan.RunSpec` descriptors,
deduplicates them by content, and executes each unique run exactly
once, in this process.  Projection cells are priced first, one
schedule group of a :class:`~repro.exec.plan.SpecLattice` per call
(:mod:`repro.engine.study_vec`).  Every other run — functional cells,
runs recorded with telemetry, fault-injection campaigns, and any cell
grouped pricing rejected — goes through the retry ladder one run at a
time, in setup-affinity order.  Results are returned in *submission*
order, so the output is bit-identical for any plan order: each run is
an independent, deterministic simulation on a fresh platform, a cell
priced in its group equals the same cell priced alone, and the memo
caches (:mod:`repro.engine.memo`) only short-circuit recomputation of
pure functions.

Every outcome carries per-run wall time and the cache hit/miss delta
its execution produced, aggregated into an :class:`ExecStats` that the
CLI reports.

Execution is fault tolerant.  Each run goes through the retry ladder
of :mod:`repro.exec.retry` (classification, deterministic backoff,
watchdog, quarantine).  Failures never raise out of :func:`execute` —
they come back as ``None`` slots plus
:class:`~repro.exec.faults.RunError` records in ``ExecStats.failures``,
so a study keeps every result it managed to compute.  With a
checkpoint journal (:mod:`repro.exec.checkpoint`) completed outcomes
also survive a crash or Ctrl-C and are skipped on resume.  A run that
never returns is not recovered: the watchdog is checked when an
attempt returns, and every study runs in this one process.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from operator import attrgetter, is_
from pathlib import Path
from typing import Iterable, Sequence

from ..apps.base import RunResult
from ..engine import memo
from ..engine.counters import LIMITERS
from ..obs import spans as obs_spans
from ..obs import tracing as obs_tracing
from ..obs.export import WALL_TRACK, Timeline, merge_run_telemetry
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.spans import InstantEvent, RunTelemetry, Span, SpanRecorder
from .checkpoint import CheckpointJournal
from .faults import ErrorKind, FaultAttempt, FaultPlan, RunError, fault_plan_from_env
from .plan import RunSpec, SpecLattice
from .retry import RetryPolicy, run_with_retry

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
    wall_seconds: float = 0.0
    #: Sum of per-run wall times.
    run_seconds: float = 0.0
    #: Memo hit/miss counts by cache layer that this call caused: the
    #: delta of its grouped pricing plus the runs it executed alone.
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
    #: Attempts beyond the first, summed over every run.
    retries: int = 0
    #: Runs that exhausted their attempt budget, with full histories.
    #: The study proceeds without them (their outcome slots are None).
    failures: list[RunError] = field(default_factory=list)
    #: Runs restored from a checkpoint journal instead of executed.
    resumed_runs: int = 0

    @property
    def deduplicated_runs(self) -> int:
        """Descriptors served by another descriptor's result."""
        return self.requested_runs - self.unique_runs

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
            f"({self.deduplicated_runs} deduplicated)",
            f"wall time: {self.wall_seconds:.2f} s "
            f"(sum of per-run times: {self.run_seconds:.2f} s)",
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
        if self.retries or self.failures:
            lines.append(
                f"fault tolerance: {self.attempts} attempts over {self.unique_runs} runs "
                f"({self.retries} retries), {self.quarantined} quarantined"
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
            wall_seconds=self.wall_seconds + other.wall_seconds,
            run_seconds=self.run_seconds + other.run_seconds,
            caches=_sum_caches((self.caches, other.caches)),
            per_run=self.per_run + other.per_run,
            limited_by=tallies,
            timeline=self.timeline if self.timeline is not None else other.timeline,
            retries=self.retries + other.retries,
            failures=self.failures + other.failures,
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

    A projection descriptor is priced as one row of its schedule
    group: the memoized capture
    (:func:`~repro.engine.study_vec.cached_program`) plus a one-row
    :func:`~repro.engine.study_vec.price_cell`, the two calls a
    columnar group makes.  A functional descriptor runs its port with
    the numerics on a fresh platform (with the spec's clock overrides)
    and prices the charge log it leaves
    (:func:`~repro.engine.study_vec.priced_run`).  Wall time and the
    memo-cache delta are measured around either.  With ``telemetry``
    a fresh :class:`~repro.obs.spans.SpanRecorder` is active for the
    duration of the run and receives the priced charges; recording is
    observational only, so the result is bit-identical either way.

    ``faults``/``attempt`` drive the deterministic chaos harness: a
    drawn fault fires on the run's early attempts, after which the run
    proceeds normally — the computed result never depends on the
    attempt number, which is what keeps injected campaigns
    bit-identical to fault-free runs.
    """
    # Lazy imports keep the exec package importable from low layers.
    from ..apps import APPS_BY_NAME
    from ..engine.study_vec import cached_program, price_cell, priced_run
    from ..models.base import ExecutionContext

    if faults is not None and faults.active:
        faults.apply(spec.content_key(), spec.label, attempt)

    before = memo.snapshot()
    started = time.perf_counter()
    recorder = SpanRecorder(meta=spec.telemetry_meta()) if telemetry else None
    with obs_spans.recording(recorder) if recorder is not None else nullcontext():
        if spec.projection:
            (result,) = price_cell(
                cached_program(spec), [spec.make_platform()], spec.precision
            )
        else:
            ctx = ExecutionContext(platform=spec.make_platform(), precision=spec.precision)
            result = priced_run(APPS_BY_NAME[spec.app].ports[spec.model], ctx, spec.config)
    recorded = recorder.finish(spec.label) if recorder is not None else None
    wall = time.perf_counter() - started
    caches = memo.since(before)
    trace_ctx = obs_tracing.current()
    if trace_ctx is not None:
        # This run is part of a distributed trace (a serve request's
        # engine segment or a traced study).  The span id is derived
        # from content, so the same plan yields an identical span tree
        # on every execution.
        obs_tracing.TRACER.emit(obs_tracing.TraceSpan(
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
        ))
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


def _setup_affinity(spec: RunSpec) -> tuple:
    """Runs with equal keys share problem setups (the builders behind
    :class:`~repro.engine.memo.SetupMemoCache` are keyed on
    ``(config, precision)``, never on model or platform).  Precision is
    deliberately *not* part of the key: one app's cells interleave
    precisions platform by platform, and keying on it would split one
    app's runs into blocks that each rebuild the other's setups."""
    return (spec.app, repr(spec.config))


def _affinity_blocks(
    indexed: list[tuple[int, RunSpec]],
) -> list[list[tuple[int, RunSpec]]]:
    """Group the plan into whole setup-affinity blocks.

    Blocks are keyed by :func:`_setup_affinity` and ordered by each
    key's first appearance, with items in input order within a block.
    Grouping — rather than cutting at consecutive-run boundaries — is
    what makes execution order (and therefore the setup LRU's hit
    pattern) invariant to how the caller shuffled its specs: a
    permuted plan yields the same blocks, merely permuted.
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


def _limited_by_tallies(executed: list[RunOutcome]) -> dict[str, int]:
    """Kernel launches by dominant limiter, over the executed runs
    (limiters no launch hit are left out)."""
    counters = [outcome.result.counters for outcome in executed]
    tallies = {
        name: sum(map(attrgetter(f"{name}_launches"), counters)) for name in LIMITERS
    }
    return {name: count for name, count in tallies.items() if count}


def _executor_metrics(stats: ExecStats) -> MetricsRegistry:
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
        "repro_runs_resumed_total", help="Runs restored from a checkpoint journal."
    ).inc(stats.resumed_runs)
    kinds = stats.failure_kinds()
    for kind in ErrorKind:
        registry.counter(
            "repro_run_failures_total",
            help="Quarantined runs by error kind.",
            kind=kind.value,
        ).inc(kinds.get(kind.value, 0))
    return registry


def _build_timeline(executed: list[RunOutcome], stats: ExecStats) -> Timeline:
    """Merge per-run recordings, in unique-run (submission) order, and
    add the retry/backoff/quarantine record of the runs to the wall
    track."""
    timeline = merge_run_telemetry(
        [o.telemetry if o.telemetry is not None else RunTelemetry(label=o.spec.label)
         for o in executed],
        extra_metrics=_executor_metrics(stats),
    )
    for outcome in executed:
        for record in outcome.retry_history:
            timeline.events.append(
                InstantEvent(
                    name="run-retry", category="fault", track=WALL_TRACK,
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
                        name="retry-backoff", category="fault", track=WALL_TRACK,
                        sim_start=0.0, sim_end=0.0,
                        wall_start=0.0, wall_end=record.backoff_seconds,
                        args=(("run", outcome.spec.label), ("attempt", record.attempt)),
                    )
                )
    for failure in stats.failures:
        timeline.events.append(
            InstantEvent(
                name="run-quarantined", category="fault", track=WALL_TRACK,
                sim_ts=0.0, wall_ts=0.0,
                args=(
                    ("run", failure.label),
                    ("kind", failure.kind.value),
                    ("attempts", failure.n_attempts),
                    ("error", failure.message),
                ),
            )
        )
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


def execute(
    runs: Sequence[RunSpec],
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
) -> tuple[list[RunOutcome | None], ExecStats]:
    """Execute descriptors in this process, returning outcomes in
    submission order.

    ``outcomes[i]`` always corresponds to ``runs[i]``; content-equal
    descriptors share one outcome.  Projection cells are priced one
    schedule group per call, unless ``telemetry`` or an active fault
    plan asks for every run's own envelope; a cell that grouped pricing
    or result validation rejects takes the retry ladder.  The remaining
    runs go through the ladder one at a time, in setup-affinity order.

    ``telemetry`` records every run through a span recorder and merges
    the recordings into ``stats.timeline`` in submission order.
    Recording is purely observational: with or without it, results
    stay bit-identical.

    Fault tolerance: each run goes through the retry ladder of
    ``policy`` (default :class:`~repro.exec.retry.RetryPolicy`), and a
    run that exhausts its budget becomes a ``None`` outcome slot plus
    a :class:`~repro.exec.faults.RunError` in ``stats.failures`` —
    :func:`execute` does not raise for run failures.  ``faults``
    injects deterministic chaos (defaults to the
    ``REPRO_INJECT_FAULTS`` environment); results stay bit-identical
    under any transient injection.  ``checkpoint`` names a journal
    file (or an open :class:`~repro.exec.checkpoint.CheckpointJournal`):
    completed outcomes are journaled as they land and restored — not
    re-executed — on the next call, and ``KeyboardInterrupt`` flushes
    the journal before surfacing as :class:`ExecutionInterrupted`.
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
    # Without duplicates (the common case) every spec is its own slot.
    unique = list(runs)
    placement: list[int] | None = None
    if len(set(map(RunSpec.content_key, unique))) < len(unique):
        unique, placement = [], []
        slot_of: dict[str, int] = {}
        for spec in runs:
            key = spec.content_key()
            if key not in slot_of:
                slot_of[key] = len(unique)
                unique.append(spec)
            placement.append(slot_of[key])

    # Distributed tracing: when the caller established a trace context,
    # this whole call is one "execute" span and every unique run hangs
    # under it.  The span id derives from the plan's content keys, so
    # the tree is identical on every execution of the plan.
    # Observation only — results never depend on it.
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
                *sorted(map(RunSpec.content_key, unique)),
            ),
            attrs={"requested": len(runs), "unique": len(unique)},
        )
        exec_token = obs_tracing.push(exec_span.context)

    executed: list[RunOutcome | None] = [None] * len(unique)
    errors: dict[int, RunError] = {}
    resumed = 0

    # Restore checkpointed outcomes; only the remainder executes.
    todo: Sequence[int] = range(len(unique))
    if journal is not None:
        for index, spec in enumerate(unique):
            executed[index] = journal.restore(spec.content_key())
        todo = [index for index in todo if executed[index] is None]
        resumed = len(unique) - len(todo)
        if resumed:
            _LOG.info("checkpoint-restored", runs=resumed, remaining=len(todo))

    # Projection cells are priced one schedule group per call, unless
    # runs are recorded or faults injected: both need each run's own
    # envelope.  Projection is part of the schedule key, so it is read
    # once per group; functional groups take the ladder.
    groups: list[tuple[int, ...]] = []
    laddered: Sequence[int] = todo
    if todo and not telemetry and not (faults is not None and faults.active):
        lattice = SpecLattice.from_specs(
            unique if not resumed else [unique[index] for index in todo]
        )
        laddered = []
        for _key, rows in lattice.groups:
            if lattice.rows[rows[0]].projection:
                groups.append(rows)
            else:
                laddered.extend(todo[row] for row in rows)
        laddered.sort()
    group_caches: dict[str, memo.MemoStats] = {}

    # Attempts beyond the first of the runs this call executed alone
    # (a grouped row takes one attempt, a restored one none here).
    run_retries = 0

    def settle(index: int, payload: "RunOutcome | RunError") -> None:
        nonlocal run_retries
        if isinstance(payload, RunError):
            errors[index] = payload
        else:
            executed[index] = payload
            run_retries += payload.attempts - 1
            if journal is not None:
                journal.record(payload)

    def run_serially() -> None:
        # Affinity-block order (not raw index order) keeps one app's
        # cells together under the bounded setup LRU even when the
        # caller shuffled its plan; for a canonically ordered plan the
        # two orders coincide.
        with memo.cache_setting(use_cache):
            for block in _affinity_blocks([(index, unique[index]) for index in laddered]):
                for index, spec in block:
                    settle(
                        index,
                        run_with_retry(spec, policy, faults=faults, telemetry=telemetry),
                    )

    def price_groups() -> None:
        # Imported lazily: study_vec itself builds on this module.
        from ..engine.study_vec import _price_outcome

        with memo.cache_setting(use_cache):
            for rows in groups:
                outcomes = _price_outcome(lattice, rows)
                if len(rows) == len(executed):
                    executed[:] = outcomes  # one group holds every cell, in order
                else:
                    for row, outcome in zip(rows, outcomes):
                        executed[todo[row]] = outcome
                if journal is not None:
                    for outcome in filter(None, outcomes):
                        journal.record(outcome)
                # Rows that pricing or validation rejected take the ladder.
                for row in compress(rows, map(is_, outcomes, repeat(None))):
                    settle(todo[row], run_with_retry(lattice.rows[row], policy, faults=faults))

    interrupted = False
    try:
        if groups:
            before = memo.snapshot()
            try:
                price_groups()
            finally:
                # The group rows make no lookup of their own: report
                # the delta their calls caused.
                group_caches = memo.since(before)
        if laddered:
            run_serially()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if exec_token is not None:
            obs_tracing.reset(exec_token)
        if journal is not None:
            journal.close()

    stats = ExecStats.from_outcomes(
        executed,
        # Only this call's lookups: restored outcomes made theirs before.
        caches=_sum_caches(
            [group_caches, *(executed[i].caches for i in laddered if executed[i] is not None)]
        ) if laddered else group_caches,
        requested_runs=len(runs),
        unique_runs=len(unique),
        wall_seconds=time.perf_counter() - started,
        retries=run_retries + sum(len(error.attempts) - 1 for error in errors.values()),
        failures=[errors[index] for index in sorted(errors)],
        resumed_runs=resumed,
    )
    if telemetry:
        stats.timeline = _build_timeline(list(filter(None, executed)), stats)
    if exec_span is not None:
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
    if placement is None:
        return executed, stats
    return [executed[slot] for slot in placement], stats
