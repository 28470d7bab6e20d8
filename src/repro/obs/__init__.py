"""Cross-cutting observability: spans, metrics, and trace exporters.

The simulator's credibility rests on *where time goes* — kernel vs.
transfer vs. launch overhead is what separates the programming models
in Figures 8/9 — so every charged cost can be captured as a span on
the simulated clock and every notable occurrence (memo hit, retry)
as an instant event.  Three layers:

* :mod:`repro.obs.spans` — the recorder.  Engine and model code report
  to the *active* recorder; when none is installed (the default) each
  instrumentation site is a single global read and ``None`` check, so
  disabled telemetry is free and can never perturb results.
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms, exportable as JSON or Prometheus text exposition.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto / ``chrome://tracing``), timeline merging, and plain-text
  top-N breakdown reports.
* :mod:`repro.obs.tracing` — request-scoped *distributed* tracing:
  W3C-``traceparent`` trace/span ids propagated through the serve
  tier's event loop, batcher, engine thread and executor runs, with a
  tail-biased store of finished traces behind ``/v1/debug/traces``.
* :mod:`repro.obs.logging` — structured JSON log records on stderr
  plus a bounded in-process ring (``/v1/debug/logs``).

Entry point: ``repro profile <figure|study>`` or the ``--trace`` /
``--metrics`` flags on any study-backed CLI command.
"""

from .export import (
    Timeline,
    chrome_trace,
    merge_run_telemetry,
    top_breakdown,
    write_chrome_trace,
    write_metrics,
)
from .logging import RING, LogRing, StructuredLogger, get_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (
    InstantEvent,
    NullRecorder,
    RunTelemetry,
    Span,
    SpanRecorder,
    active,
    recording,
)
from .tracing import (
    TRACER,
    SpanContext,
    TraceRecord,
    TraceSpan,
    TraceStore,
    Tracer,
    parse_traceparent,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "LogRing",
    "MetricsRegistry",
    "NullRecorder",
    "RING",
    "RunTelemetry",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "StructuredLogger",
    "TRACER",
    "Timeline",
    "TraceRecord",
    "TraceSpan",
    "TraceStore",
    "Tracer",
    "active",
    "chrome_trace",
    "get_logger",
    "merge_run_telemetry",
    "parse_traceparent",
    "recording",
    "top_breakdown",
    "write_chrome_trace",
    "write_metrics",
]
