"""Span and instant-event recording on the simulated clock.

A :class:`SpanRecorder` captures the timeline of one application run:
every cost the engine charges (kernel launch, transfer, runtime
overhead, host loop) becomes a :class:`Span` on a named *track* (one
track per simulated device queue), placed on the run's simulated clock
and stamped with wall-clock offsets as well.  Zero-duration
occurrences — memo hits and misses, scheduler decisions, shard
dispatches — become :class:`InstantEvent` records.

Instrumentation sites never hold a recorder; they ask for the
process-global *active* one::

    rec = spans.active()
    if rec is not None:
        rec.add("dgpu/gpu", spec.name, "kernel", seconds, ...)

When telemetry is off ``active()`` returns ``None`` and the site costs
one global read — recording can therefore be left compiled into every
hot path.  :class:`NullRecorder` offers the same interface as
:class:`SpanRecorder` with every method a no-op, for callers that
prefer unconditional calls.

Recorders carry their own :class:`~repro.obs.metrics.MetricsRegistry`
so per-run metrics merge alongside spans when the executor assembles
per-run recordings into one timeline (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from .metrics import MetricsRegistry

#: Per-recorder bound on stored spans+events.  Paper-scale runs launch
#: hundreds of thousands of kernels; beyond this the recorder keeps
#: counting (``dropped``) but stops storing, so the cap is never
#: silent.
DEFAULT_MAX_RECORDS = 200_000


def _freeze(args: dict[str, object]) -> tuple[tuple[str, object], ...]:
    """Canonical, hashable, picklable form of span arguments."""
    return tuple(sorted(args.items()))


@dataclass(frozen=True)
class Span:
    """One timed extent on one track.

    ``sim_*`` are seconds on the run's simulated clock (what the paper
    measures); ``wall_*`` are host ``perf_counter`` seconds relative to
    the recorder's origin (what the executor costs).
    """

    name: str
    category: str  # "kernel" | "transfer" | "launch" | "host" | "run" | ...
    track: str  # display row, e.g. "dgpu/gpu", "apu/host", "wall"
    sim_start: float
    sim_end: float
    wall_start: float
    wall_end: float
    args: tuple[tuple[str, object], ...] = ()

    @property
    def sim_seconds(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def wall_seconds(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def args_dict(self) -> dict[str, object]:
        return dict(self.args)

    def shifted(self, sim_offset: float, wall_offset: float = 0.0) -> "Span":
        """The same span displaced on both clocks (timeline merging)."""
        return replace(
            self,
            sim_start=self.sim_start + sim_offset,
            sim_end=self.sim_end + sim_offset,
            wall_start=self.wall_start + wall_offset,
            wall_end=self.wall_end + wall_offset,
        )


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration occurrence on one track."""

    name: str
    category: str
    track: str
    sim_ts: float
    wall_ts: float
    args: tuple[tuple[str, object], ...] = ()

    @property
    def args_dict(self) -> dict[str, object]:
        return dict(self.args)

    def shifted(self, sim_offset: float, wall_offset: float = 0.0) -> "InstantEvent":
        return replace(
            self, sim_ts=self.sim_ts + sim_offset, wall_ts=self.wall_ts + wall_offset
        )


@dataclass
class RunTelemetry:
    """The finished recording of one run.

    :func:`repro.obs.export.merge_run_telemetry` assembles these into
    one study-wide timeline.
    """

    label: str
    meta: dict[str, str] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    events: list[InstantEvent] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Total simulated seconds the recorder's clock advanced.
    sim_seconds: float = 0.0
    #: Wall seconds between recorder creation and ``finish()``.
    wall_seconds: float = 0.0
    #: Records not stored because the recorder hit its cap.
    dropped: int = 0


class SpanRecorder:
    """Accumulates spans, events and metrics for one run.

    The recorder owns a single simulated-clock cursor: each
    :meth:`add` places a leaf span at the cursor and advances it by the
    span's duration, mirroring how the engine charges costs serially to
    one :class:`~repro.engine.counters.PerfCounters`.  :meth:`span`
    brackets a nested extent (run → solver phase → kernels) whose
    simulated bounds are wherever the cursor was on entry and exit.
    """

    def __init__(
        self,
        meta: dict[str, str] | None = None,
        max_records: int = DEFAULT_MAX_RECORDS,
    ) -> None:
        self.meta = dict(meta or {})
        self.max_records = max_records
        self.spans: list[Span] = []
        self.events: list[InstantEvent] = []
        self.metrics = MetricsRegistry()
        self.dropped = 0
        self._sim_now = 0.0
        self._wall_origin = time.perf_counter()

    # -- clocks --------------------------------------------------------

    @property
    def sim_now(self) -> float:
        """Current position of the simulated-clock cursor (seconds)."""
        return self._sim_now

    def _wall(self) -> float:
        return time.perf_counter() - self._wall_origin

    def _room(self) -> bool:
        if len(self.spans) + len(self.events) >= self.max_records:
            self.dropped += 1
            return False
        return True

    # -- recording -----------------------------------------------------

    def add(
        self,
        track: str,
        name: str,
        category: str,
        sim_seconds: float,
        **args: object,
    ) -> None:
        """Record a leaf span at the cursor and advance the clock.

        The clock advances even when the span itself is dropped by the
        record cap, so enclosing spans keep correct extents.
        """
        start = self._sim_now
        self._sim_now = start + sim_seconds
        if not self._room():
            return
        wall = self._wall()
        self.spans.append(
            Span(name, category, track, start, self._sim_now, wall, wall, _freeze(args))
        )

    @contextmanager
    def span(self, track: str, name: str, category: str, **args: object) -> Iterator[None]:
        """Bracket a nested extent: simulated bounds follow the cursor,
        wall bounds are measured around the block."""
        sim_start = self._sim_now
        wall_start = self._wall()
        try:
            yield
        finally:
            if self._room():
                self.spans.append(
                    Span(
                        name,
                        category,
                        track,
                        sim_start,
                        self._sim_now,
                        wall_start,
                        self._wall(),
                        _freeze(args),
                    )
                )

    def instant(self, track: str, name: str, category: str, **args: object) -> None:
        """Record a zero-duration event at the cursor."""
        if not self._room():
            return
        self.events.append(
            InstantEvent(name, category, track, self._sim_now, self._wall(), _freeze(args))
        )

    def cache_event(self, cache: str, hit: bool, kind: str = "") -> None:
        """One memo-cache lookup: a counter bump plus an instant event.

        ``cache`` names the layer ("kernel" pricing vs. "setup"), so
        hit ratios stay separable per layer downstream.
        """
        result = "hit" if hit else "miss"
        self.metrics.counter(
            "repro_memo_lookups_total",
            help="Memo-cache lookups by layer and outcome.",
            cache=cache,
            result=result,
        ).inc()
        self.instant("memo", f"{cache}-{result}", "memo", kind=kind)

    # -- lifecycle -----------------------------------------------------

    def finish(self, label: str) -> RunTelemetry:
        """Seal the recording into a picklable :class:`RunTelemetry`."""
        return RunTelemetry(
            label=label,
            meta=dict(self.meta),
            spans=list(self.spans),
            events=list(self.events),
            metrics=self.metrics,
            sim_seconds=self._sim_now,
            wall_seconds=self._wall(),
            dropped=self.dropped,
        )


class NullRecorder:
    """The no-op recorder: same surface as :class:`SpanRecorder`.

    Exists so code that wants unconditional ``recorder.add(...)`` calls
    can hold one of these instead of branching; the engine's hot paths
    use the cheaper ``active() is None`` check instead.
    """

    sim_now = 0.0
    dropped = 0

    def __init__(self) -> None:
        self.meta: dict[str, str] = {}
        self.spans: list[Span] = []
        self.events: list[InstantEvent] = []
        self.metrics = MetricsRegistry()

    def add(self, track: str, name: str, category: str, sim_seconds: float, **args: object) -> None:
        pass

    @contextmanager
    def span(self, track: str, name: str, category: str, **args: object) -> Iterator[None]:
        yield

    def instant(self, track: str, name: str, category: str, **args: object) -> None:
        pass

    def cache_event(self, cache: str, hit: bool, kind: str = "") -> None:
        pass

    def finish(self, label: str) -> RunTelemetry:
        return RunTelemetry(label=label)


#: The process-global active recorder.  ``None`` means telemetry off.
_ACTIVE: SpanRecorder | None = None


def active() -> SpanRecorder | None:
    """The active recorder, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def current() -> SpanRecorder | NullRecorder:
    """The active recorder, or a throwaway :class:`NullRecorder`."""
    return _ACTIVE if _ACTIVE is not None else NullRecorder()


@contextmanager
def recording(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder`` as the active one within the block.

    Nests: the previous recorder (possibly ``None``) is restored on
    exit, so instrumented code can itself run instrumented code.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
