"""Request-scoped distributed tracing over the span layer.

The PR-2 span layer answers "where does *simulated* time go inside one
run"; this module answers "where does *wall* time go for one request"
as it crosses the serving stack: the asyncio server, the batcher's
queue, the single-flight leader/follower split, the backend
engine thread, and (for batch studies) the executor's runs.

The pieces mirror W3C Trace Context:

* :class:`SpanContext` — a ``(trace_id, span_id)`` pair, carried on the
  wire as a ``traceparent`` header (``00-<32 hex>-<16 hex>-01``) and
  in-process as a :mod:`contextvars` variable (:func:`current`,
  :func:`use`).  Context crosses threads explicitly (the batcher
  installs each spec's context around its backend work) and crosses
  process boundaries as a serialized header (an inbound
  ``traceparent`` continues the caller's trace).
* :class:`TraceSpan` — one timed extent with explicit parentage.
  Times are host ``perf_counter`` seconds, comparable across threads
  of one process.
* :class:`Tracer` — starts/finishes spans into bounded per-trace
  buffers; :meth:`Tracer.complete` seals a trace into the
  :class:`TraceStore`.
* :class:`TraceStore` — tail-biased retention of finished traces: a
  ring of recent ones, plus the slowest and every server-error trace
  always kept, for ``/v1/debug/traces``.

Determinism: tracing is purely observational (results are asserted
bit-identical with it on or off), and batch-study span *identities*
are deterministic — :func:`derived_span_id` derives span ids from
content (trace id, parent, name, spec key), so the same plan yields
the identical span tree on every execution.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Segment names the serve tier records; the breakdown tooling and the
#: docs key off this vocabulary.
SEGMENTS = (
    "handle", "serialize", "queue_wait", "batch_wait", "coalesced_wait",
    "engine", "singleflight_wait", "store_read", "store_write",
)

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


def new_trace_id() -> str:
    """A fresh random 16-byte trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh random 8-byte span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def seeded_trace_id(seed: str) -> str:
    """A deterministic trace id from a seed string (tests, replays)."""
    return hashlib.sha256(f"trace:{seed}".encode()).hexdigest()[:32]


def derived_span_id(*parts: str) -> str:
    """A deterministic span id from content.

    Batch-study spans derive their ids from ``(trace id, parent span
    id, name, spec content key)`` so the same plan produces the same
    span tree — ids included — on every execution.
    """
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity: which trace, and which parent span."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(header: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header; ``None`` when absent/malformed.

    Lenient by design: a bad header starts a fresh trace instead of
    failing the request.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    trace_id, span_id, _flags = match.groups()
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


@dataclass
class TraceSpan:
    """One timed extent of one trace.

    ``start_s``/``end_s`` are ``perf_counter`` seconds in the recording
    process.
    """

    trace_id: str
    span_id: str
    parent_id: str  # "" for a root span
    name: str
    kind: str = "internal"  # "server" | "batcher" | "engine" | "worker" | "segment" | ...
    start_s: float = 0.0
    end_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_json(self, origin_s: float = 0.0) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_us": round((self.start_s - origin_s) * 1e6, 3),
            "duration_us": round(self.duration_s * 1e6, 3),
            "status": self.status,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class TraceRecord:
    """One finished trace: its spans plus a summary row."""

    trace_id: str
    route: str
    status: int
    duration_s: float
    started_unix: float
    spans: tuple[TraceSpan, ...]

    @property
    def root(self) -> TraceSpan | None:
        ids = {span.span_id for span in self.spans}
        for span in self.spans:
            if not span.parent_id or span.parent_id not in ids:
                return span
        return None

    def summary(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "status": self.status,
            "duration_ms": round(self.duration_s * 1e3, 4),
            "started_unix": self.started_unix,
            "spans": len(self.spans),
        }

    def to_json(self) -> dict:
        root = self.root
        origin = root.start_s if root is not None else min(
            (span.start_s for span in self.spans), default=0.0
        )
        ordered = sorted(self.spans, key=lambda s: (s.start_s, s.span_id))
        doc = self.summary()
        doc["segments_ms"] = {
            name: round(seconds * 1e3, 4)
            for name, seconds in sorted(segment_durations(self.spans).items())
        }
        doc["spans"] = [span.to_json(origin) for span in ordered]
        return doc


class TraceStore:
    """Tail-biased retention of finished traces.

    Three overlapping holds, each reference-counted so a trace lives
    while *any* of them wants it: a ring of the ``recent_cap`` most
    recent traces, the ``slow_cap`` slowest ever seen, and the
    ``error_cap`` most recent server errors (status >= 500).  The
    interesting traces — the tail and the failures — therefore survive
    long after the steady-state traffic that followed them.
    """

    def __init__(self, recent_cap: int = 128, slow_cap: int = 32, error_cap: int = 32) -> None:
        self.recent_cap = recent_cap
        self.slow_cap = slow_cap
        self.error_cap = error_cap
        self._lock = threading.Lock()
        self._records: dict[str, TraceRecord] = {}
        self._refs: dict[str, int] = {}
        self._recent: deque[str] = deque()
        self._slow: list[tuple[float, str]] = []  # sorted ascending by duration
        self._errors: deque[str] = deque()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _retain(self, trace_id: str) -> None:
        self._refs[trace_id] = self._refs.get(trace_id, 0) + 1

    def _release(self, trace_id: str) -> None:
        self._refs[trace_id] -= 1
        if self._refs[trace_id] <= 0:
            self._refs.pop(trace_id, None)
            self._records.pop(trace_id, None)

    def add(self, record: TraceRecord) -> None:
        with self._lock:
            if record.trace_id in self._records:
                # A replayed trace id replaces its record; holds remain.
                self._records[record.trace_id] = record
                return
            self._records[record.trace_id] = record
            self._refs[record.trace_id] = 0

            self._recent.append(record.trace_id)
            self._retain(record.trace_id)
            if len(self._recent) > self.recent_cap:
                self._release(self._recent.popleft())

            if record.status >= 500:
                self._errors.append(record.trace_id)
                self._retain(record.trace_id)
                if len(self._errors) > self.error_cap:
                    self._release(self._errors.popleft())

            if self.slow_cap > 0:
                self._slow.append((record.duration_s, record.trace_id))
                self._retain(record.trace_id)
                self._slow.sort(key=lambda item: item[0])
                if len(self._slow) > self.slow_cap:
                    _duration, evicted = self._slow.pop(0)
                    self._release(evicted)

    def get(self, trace_id: str) -> TraceRecord | None:
        with self._lock:
            return self._records.get(trace_id)

    def holds(self, trace_id: str) -> tuple[str, ...]:
        """Which retention holds keep a trace alive (for summaries)."""
        with self._lock:
            holds = []
            if trace_id in self._recent:
                holds.append("recent")
            if any(held == trace_id for _d, held in self._slow):
                holds.append("slowest")
            if trace_id in self._errors:
                holds.append("error")
            return tuple(holds)

    def records(self) -> list[TraceRecord]:
        """All retained traces, most recently started first."""
        with self._lock:
            return sorted(
                self._records.values(),
                key=lambda r: r.started_unix,
                reverse=True,
            )

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._refs.clear()
            self._recent.clear()
            self._slow.clear()
            self._errors.clear()


class Tracer:
    """Starts, finishes and buffers spans; seals traces into the store.

    Spans accumulate in bounded per-trace buffers (a late span for an
    already-completed trace — e.g. an engine run finishing after its
    request's deadline — lands in a fresh buffer and ages out instead
    of leaking).  All methods are thread-safe; span *creation* is just
    object construction, so instrumentation stays cheap.
    """

    def __init__(
        self,
        store: TraceStore | None = None,
        max_buffered_traces: int = 256,
        max_spans_per_trace: int = 512,
    ) -> None:
        self.store = store if store is not None else TraceStore()
        self.max_buffered_traces = max_buffered_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.dropped = 0
        self._lock = threading.Lock()
        self._buffers: OrderedDict[str, list[TraceSpan]] = OrderedDict()

    # -- span lifecycle ------------------------------------------------

    def start_span(
        self,
        name: str,
        kind: str = "internal",
        parent: SpanContext | None = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        attrs: dict | None = None,
    ) -> TraceSpan:
        """Begin a span now; it is buffered on :meth:`finish_span`."""
        if parent is not None:
            trace = parent.trace_id
            parent_id = parent.span_id
        else:
            trace = trace_id if trace_id is not None else new_trace_id()
            parent_id = ""
        return TraceSpan(
            trace_id=trace,
            span_id=span_id if span_id is not None else new_span_id(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start_s=time.perf_counter(),
            attrs=dict(attrs or {}),
        )

    def finish_span(self, span: TraceSpan, status: str = "ok") -> TraceSpan:
        span.end_s = time.perf_counter()
        span.status = status
        self.emit(span)
        return span

    def emit(self, span: TraceSpan) -> None:
        """Buffer an already-finished (possibly retroactive) span."""
        with self._lock:
            buffer = self._buffers.get(span.trace_id)
            if buffer is None:
                buffer = self._buffers[span.trace_id] = []
                while len(self._buffers) > self.max_buffered_traces:
                    self._buffers.popitem(last=False)
                    self.dropped += 1
            if len(buffer) >= self.max_spans_per_trace:
                self.dropped += 1
                return
            buffer.append(span)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: SpanContext,
        kind: str = "segment",
        attrs: dict | None = None,
        span_id: str | None = None,
    ) -> TraceSpan:
        """Emit a retroactive span from measured boundary timestamps."""
        span = TraceSpan(
            trace_id=parent.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            parent_id=parent.span_id,
            name=name,
            kind=kind,
            start_s=start_s,
            end_s=end_s,
            attrs=dict(attrs or {}),
        )
        self.emit(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "internal",
        parent: SpanContext | None = None,
        attrs: dict | None = None,
        set_current: bool = True,
        span_id: str | None = None,
    ) -> Iterator[TraceSpan]:
        """Bracket a block in a span, installing it as the current
        context (so nested instrumentation parents correctly)."""
        if parent is None:
            parent = current()
        span = self.start_span(name, kind=kind, parent=parent, attrs=attrs, span_id=span_id)
        token = push(span.context) if set_current else None
        try:
            yield span
        finally:
            if token is not None:
                reset(token)
            self.finish_span(span)

    # -- trace lifecycle -----------------------------------------------

    def pending_spans(self, trace_id: str) -> list[TraceSpan]:
        with self._lock:
            return list(self._buffers.get(trace_id, ()))

    def complete(
        self,
        trace_id: str,
        route: str = "",
        status: int = 0,
        duration_s: float | None = None,
        started_unix: float | None = None,
    ) -> TraceRecord | None:
        """Seal a trace: pop its buffered spans into the store."""
        with self._lock:
            spans = self._buffers.pop(trace_id, None)
        if not spans:
            return None
        if duration_s is None:
            duration_s = max(span.end_s for span in spans) - min(
                span.start_s for span in spans
            )
        record = TraceRecord(
            trace_id=trace_id,
            route=route,
            status=status,
            duration_s=duration_s,
            started_unix=started_unix if started_unix is not None else time.time(),
            spans=tuple(spans),
        )
        self.store.add(record)
        return record

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()
            self.dropped = 0
        self.store.clear()


#: The process-global tracer (and, via ``TRACER.store``, trace ring).
#: The serve tier and the executor both record here; tests may clear.
TRACER = Tracer()


# -- ambient context ----------------------------------------------------

_CURRENT: ContextVar[SpanContext | None] = ContextVar("repro_trace_context", default=None)


def current() -> SpanContext | None:
    """The ambient span context, or ``None`` outside any trace."""
    return _CURRENT.get()


def push(ctx: SpanContext | None):
    """Install ``ctx`` as the ambient context; returns a reset token."""
    return _CURRENT.set(ctx)


def reset(token) -> None:
    _CURRENT.reset(token)


@contextmanager
def use(ctx: SpanContext | None) -> Iterator[None]:
    """Ambient-context block (threads get their own context, so the
    batcher's backend thread installs each spec's context this way)."""
    token = push(ctx)
    try:
        yield
    finally:
        reset(token)


# -- tree utilities -----------------------------------------------------


def children_of(spans: Sequence[TraceSpan]) -> dict[str, list[TraceSpan]]:
    """Spans grouped by parent id, each group in start order."""
    grouped: dict[str, list[TraceSpan]] = {}
    for span in spans:
        grouped.setdefault(span.parent_id, []).append(span)
    for group in grouped.values():
        group.sort(key=lambda s: (s.start_s, s.span_id))
    return grouped


def orphan_spans(spans: Sequence[TraceSpan]) -> list[TraceSpan]:
    """Spans not reachable from any root of the tree.

    A root is a span with no parent, or one parented on a context from
    outside the span set (an inbound ``traceparent``, or a study's root
    created by the caller).  Everything else must chain up to a root;
    cycles and self-parented spans are orphans.
    """
    ids = {span.span_id for span in spans}
    by_parent: dict[str, list[TraceSpan]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    reachable: set[str] = set()
    stack = [
        span for span in spans
        if not span.parent_id
        or (span.parent_id not in ids)
    ]
    while stack:
        span = stack.pop()
        if span.span_id in reachable:
            continue
        reachable.add(span.span_id)
        stack.extend(by_parent.get(span.span_id, ()))
    return [span for span in spans if span.span_id not in reachable]


def tree_signature(spans: Sequence[TraceSpan]) -> tuple[tuple[str, str, str], ...]:
    """Canonical identity of a span tree: sorted (id, parent, name).

    Durations and wall placement vary run to run; the signature is what
    the determinism tests compare across executions of one plan.
    """
    return tuple(sorted((s.span_id, s.parent_id, s.name) for s in spans))


def segment_durations(spans: Sequence[TraceSpan]) -> dict[str, float]:
    """Wall seconds per segment-kind span name (queue_wait, engine, ...).

    Overlapping same-name intervals are union-merged: a request whose
    model and baseline legs share one coalesced engine window charges
    that window once, so no per-name total can exceed the request's
    own wall time.
    """
    intervals: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.kind == "segment":
            intervals.setdefault(span.name, []).append((span.start_s, span.end_s))
    totals: dict[str, float] = {}
    for name, windows in intervals.items():
        windows.sort()
        total = 0.0
        merged_start, merged_end = windows[0]
        for start, end in windows[1:]:
            if start > merged_end:
                total += merged_end - merged_start
                merged_start, merged_end = start, end
            else:
                merged_end = max(merged_end, end)
        totals[name] = total + (merged_end - merged_start)
    return totals


def trace_timeline(record: TraceRecord):
    """A trace as an :class:`~repro.obs.export.Timeline` so the existing
    Chrome-trace exporter can render it (one track per span kind)."""
    from .export import Timeline
    from .spans import Span

    root = record.root
    origin = root.start_s if root is not None else min(
        (span.start_s for span in record.spans), default=0.0
    )
    timeline = Timeline()
    for span in record.spans:
        start = span.start_s - origin
        end = span.end_s - origin
        timeline.spans.append(
            Span(
                name=span.name,
                category=span.kind,
                track=span.kind,
                sim_start=start,
                sim_end=end,
                wall_start=start,
                wall_end=end,
                args=tuple(sorted(
                    {**span.attrs, "span_id": span.span_id,
                     "parent_id": span.parent_id}.items()
                )),
            )
        )
    return timeline
