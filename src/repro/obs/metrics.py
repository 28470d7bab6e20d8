"""Metrics registry: counters, gauges and histograms.

The quantitative side of the telemetry layer: kernel-time histograms
per app x model x device, memo hit ratios, transfer byte counts,
executor run, retry and failure counts.  Instruments are identified by a metric
name plus a sorted label set (Prometheus's data model), live in a
:class:`MetricsRegistry`, and export two ways:

* :meth:`MetricsRegistry.to_json` — a stable, nested JSON document;
* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# TYPE`` headers, ``_bucket{le=...}`` series, ``_sum``/``_count``),
  scrapable by any Prometheus-compatible collector.

Registries are additive: per-run registries merge into one study-wide
registry (:meth:`MetricsRegistry.merge`), summing counters and
histogram buckets and taking the last value of gauges — deterministic
because the executor merges in submission order.  Everything here is plain data (dicts, lists, floats) plus
locks that are dropped on pickling, so a registry still crosses
process boundaries.

Instruments and registries are thread-safe: the prediction service
mutates one registry from its event loop, its backend worker thread,
and pool callbacks concurrently, so every update happens under a lock
(per instrument for the hot ``inc``/``observe`` path, one registry
lock for family/instrument creation, merging and export).
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Iterable


def _now() -> float:
    """Exemplar timestamp source (monkeypatchable in tests)."""
    return time.time()

#: Default histogram bucket upper bounds for *seconds*-valued metrics:
#: log-spaced from 1 µs to 10 s, the span between a kernel-launch floor
#: and a paper-scale end-to-end run.
TIME_BUCKETS_S: tuple[float, ...] = tuple(
    10.0**e for e in range(-6, 2)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Lockable:
    """Owns a non-picklable lock, recreated on unpickling."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Counter(_Lockable):
    """A monotonically increasing count (events, bytes, lookups)."""

    def __init__(self) -> None:
        super().__init__()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def merge(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value


class Gauge(_Lockable):
    """A point-in-time value (queue depth, utilization, ratio)."""

    def __init__(self) -> None:
        super().__init__()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def merge(self, other: "Gauge") -> None:
        # Merging run registries in submission order: last writer wins,
        # matching how a scraper would see the final state.
        with self._lock:
            self.value = other.value


class Histogram(_Lockable):
    """Cumulative-bucket histogram with sum and count.

    ``buckets`` are upper bounds (le); an implicit +Inf bucket catches
    the tail.  Bucket layouts must match to merge.
    """

    def __init__(self, buckets: tuple[float, ...] = TIME_BUCKETS_S) -> None:
        super().__init__()
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0
        # Bucket index -> (sorted label items, observed value, unix ts):
        # the latest exemplar per bucket, rendered as an OpenMetrics
        # ``# {...}`` suffix so a scrape links buckets to trace ids.
        self.exemplars: dict[int, tuple[LabelKey, float, float]] = {}

    def observe(self, value: float, exemplar: dict[str, str] | None = None) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    break
            else:
                i = len(self.buckets)
                self.counts[-1] += 1
            if exemplar:
                self.exemplars[i] = (_label_key(exemplar), float(value), _now())

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> tuple[list[int], float, int]:
        """A consistent ``(counts, sum, count)`` view for exporters."""
        with self._lock:
            return list(self.counts), self.sum, self.count

    def exemplar_snapshot(self) -> dict[int, tuple[LabelKey, float, float]]:
        """Per-bucket-index exemplars (bucket order, +Inf last)."""
        with self._lock:
            return dict(self.exemplars)

    def cumulative(self, counts: list[int] | None = None) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at +Inf.

        ``counts`` lets exporters reuse one :meth:`snapshot` for the
        buckets and the sum/count lines, keeping them consistent under
        concurrent observes.
        """
        if counts is None:
            counts, _sum, _count = self.snapshot()
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        counts, total, count = other.snapshot()
        exemplars = other.exemplar_snapshot()
        with self._lock:
            self.counts = [a + b for a, b in zip(self.counts, counts)]
            self.sum += total
            self.count += count
            self.exemplars.update(exemplars)


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    def __init__(self, name: str, kind: str, help: str, buckets: tuple[float, ...] | None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.samples: dict[LabelKey, Counter | Gauge | Histogram] = {}

    def instrument(self, key: LabelKey) -> Counter | Gauge | Histogram:
        try:
            return self.samples[key]
        except KeyError:
            if self.kind == "counter":
                made: Counter | Gauge | Histogram = Counter()
            elif self.kind == "gauge":
                made = Gauge()
            else:
                made = Histogram(self.buckets or TIME_BUCKETS_S)
            self.samples[key] = made
            return made


class MetricsRegistry:
    """A named collection of metric families.

    Family and instrument creation, lookup, merging and export happen
    under one reentrant lock, so concurrent tasks/threads can mint and
    mutate instruments while another thread scrapes an export.  The
    lock is dropped on pickling (instruments recreate their own).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._families)

    def _family(
        self, name: str, kind: str, help: str, buckets: tuple[float, ...] | None = None
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        with self._lock:
            instrument = self._family(name, "counter", help).instrument(_label_key(labels))
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        with self._lock:
            instrument = self._family(name, "gauge", help).instrument(_label_key(labels))
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        with self._lock:
            instrument = self._family(name, "histogram", help, buckets).instrument(
                _label_key(labels)
            )
        assert isinstance(instrument, Histogram)
        return instrument

    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """Look up an existing instrument (reports, tests); no creation."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.samples.get(_label_key(labels))

    def families(self) -> Iterable[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (additive; in place)."""
        with self._lock:
            for name in sorted(other._families):
                theirs = other._families[name]
                family = self._family(name, theirs.kind, theirs.help, theirs.buckets)
                for key in sorted(theirs.samples):
                    family.instrument(key).merge(theirs.samples[key])  # type: ignore[arg-type]

    # -- export --------------------------------------------------------

    def to_json(self) -> dict:
        """Stable JSON document: one entry per family, sorted labels."""
        doc: dict[str, object] = {}
        with self._lock:
            for family in self.families():
                samples = []
                for key in sorted(family.samples):
                    instrument = family.samples[key]
                    entry: dict[str, object] = {"labels": dict(key)}
                    if isinstance(instrument, Histogram):
                        counts, total, count = instrument.snapshot()
                        entry["count"] = count
                        entry["sum"] = total
                        entry["mean"] = total / count if count else 0.0
                        entry["buckets"] = [
                            {"le": "+Inf" if math.isinf(b) else b, "cumulative": c}
                            for b, c in instrument.cumulative(counts)
                        ]
                    else:
                        entry["value"] = instrument.value
                    samples.append(entry)
                doc[family.name] = {
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
        return doc

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for family in self.families():
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for key in sorted(family.samples):
                    instrument = family.samples[key]
                    if isinstance(instrument, Histogram):
                        counts, total, count = instrument.snapshot()
                        exemplars = instrument.exemplar_snapshot()
                        for i, (bound, cumulative) in enumerate(
                            instrument.cumulative(counts)
                        ):
                            labels = _format_labels(key, (("le", _format_value(bound)),))
                            line = f"{family.name}_bucket{labels} {cumulative}"
                            exemplar = exemplars.get(i)
                            if exemplar is not None:
                                ex_labels, ex_value, ex_ts = exemplar
                                line += (
                                    f" # {_format_labels(ex_labels)}"
                                    f" {_format_value(ex_value)} {ex_ts:.6f}"
                                )
                            lines.append(line)
                        lines.append(
                            f"{family.name}_sum{_format_labels(key)} {_format_value(total)}"
                        )
                        lines.append(
                            f"{family.name}_count{_format_labels(key)} {count}"
                        )
                    else:
                        lines.append(
                            f"{family.name}{_format_labels(key)} {_format_value(instrument.value)}"
                        )
        return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, list[tuple[str, float]]]:
    """Minimal exposition-format parser (validation and tests).

    Returns ``{metric_name: [(label_block, value), ...]}`` and raises
    ``ValueError`` on any line that is neither a comment nor a valid
    sample — the CI artifact check runs on this.  OpenMetrics exemplar
    suffixes (``... # {trace_id="..."} value ts``) on bucket lines are
    accepted and ignored.
    """
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+([-+]?[0-9.eE+-]+|[+-]Inf|NaN)"
        r"(?:\s+#\s+\{[^}]*\}\s+\S+(?:\s+\S+)?)?$"
    )
    out: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = sample_re.match(line)
        if not match:
            raise ValueError(f"line {lineno}: not a valid exposition sample: {line!r}")
        name, labels, value = match.groups()
        out.setdefault(name, []).append((labels or "", float(value)))
    return out


def parse_exemplars(text: str, metric: str) -> list[tuple[str, dict[str, str], float]]:
    """Exemplars attached to ``metric``'s bucket lines.

    Returns ``[(bucket_label_block, exemplar_labels, exemplar_value)]``
    — how the trace-smoke check recovers a trace id from a scrape.
    """
    line_re = re.compile(
        rf"^{re.escape(metric)}_bucket(\{{[^}}]*\}})?\s+\S+"
        r"\s+#\s+\{([^}]*)\}\s+(\S+)(?:\s+\S+)?$"
    )
    pair_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    out: list[tuple[str, dict[str, str], float]] = []
    for line in text.splitlines():
        match = line_re.match(line)
        if not match:
            continue
        bucket_labels, exemplar_body, value = match.groups()
        labels = {k: v for k, v in pair_re.findall(exemplar_body)}
        out.append((bucket_labels or "", labels, float(value)))
    return out
