"""Closed- and open-loop load generation for the prediction service.

``repro loadtest`` drives a live server with raw keep-alive HTTP/1.1
over asyncio streams (one connection per worker, framed by
:mod:`repro.serve.http`; no client library, so the generator is never
the bottleneck, and no client-side retry, so every transport error is
counted) and reports throughput plus p50/p95/p99 latency.

Two arrival disciplines, because they answer different questions:

* **closed loop** — ``concurrency`` connections issue requests
  back-to-back.  Measures capacity: the sustained req/s the service
  reaches when clients wait for answers.
* **open loop** — arrivals fire on a fixed ``rate`` schedule whether
  or not earlier requests finished, the way independent users behave.
  Latency is measured from the *scheduled* arrival, so queueing delay
  (and coordinated-omission bias) is included.

A warmup pass issues every distinct query once before timing starts,
so the measured numbers describe the steady warm-cache state — the
regime the ROADMAP's "heavy traffic" north star cares about.

``--breakdown`` closes the attribution loop: the harness scrapes the
server's ``/metrics`` before and after the run and reports per-segment
percentiles (queue wait vs engine time vs serialize) from the delta of
the ``repro_serve_segment_seconds`` histograms — the *server's* own
trace-segment accounting of exactly the requests this run issued,
unbiased by which traces the debug ring happened to retain.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..obs.metrics import parse_prometheus
from .http import encode_request, read_response, retry_after_delay

#: Latency percentiles reported by the harness.
PERCENTILES = (50.0, 95.0, 99.0)

#: Pause of a closed-loop worker after a refused connect: a dead
#: target costs one counted error per pause, not one per event-loop turn.
RECONNECT_PAUSE_S = 0.05


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples (0 when empty)."""
    if not sorted_samples:
        return 0.0
    if q <= 0:
        return sorted_samples[0]
    rank = max(1, -(-len(sorted_samples) * q // 100))  # ceil without floats
    return sorted_samples[int(rank) - 1]


def count_non_2xx(status_counts: dict[str, int]) -> int:
    """Responses outside 2xx (sheds, 4xx and 5xx) in a status tally."""
    return sum(
        count for status, count in status_counts.items()
        if not status.startswith("2")
    )


@dataclass
class LoadResult:
    """Everything one load run measured."""

    mode: str
    duration_s: float
    concurrency: int
    rate: float | None
    requests: int = 0
    errors: int = 0
    #: Cells priced by 2xx responses.  One ``/v1/predict`` is one
    #: prediction; one ``/v1/batch`` of 48 cells is 48 — the unit that
    #: makes bulk and per-request throughput comparable.
    predictions: int = 0
    #: Distinct target URLs the run round-robined over.
    targets: int = 1
    status_counts: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    @property
    def cells_rps(self) -> float:
        """Priced cells per second — aggregate pricing throughput."""
        return self.predictions / self.duration_s if self.duration_s else 0.0

    @property
    def clean(self) -> bool:
        """At least one request, and every one answered with a 2xx."""
        return (
            bool(self.requests) and not self.errors
            and not count_non_2xx(self.status_counts)
        )

    def latency_ms(self) -> dict[str, float]:
        samples = sorted(self.latencies_s)
        doc = {
            "mean": (sum(samples) / len(samples) * 1e3) if samples else 0.0,
            "max": samples[-1] * 1e3 if samples else 0.0,
        }
        for q in PERCENTILES:
            doc[f"p{q:g}"] = percentile(samples, q) * 1e3
        return doc

    def to_json(self) -> dict:
        return {
            "protocol": "v1",
            "mode": self.mode,
            "duration_s": self.duration_s,
            "concurrency": self.concurrency,
            "rate_rps": self.rate,
            "requests": self.requests,
            "errors": self.errors,
            "predictions": self.predictions,
            "targets": self.targets,
            "throughput_rps": self.throughput_rps,
            "cells_rps": self.cells_rps,
            "latency_ms": self.latency_ms(),
            "status_counts": dict(sorted(self.status_counts.items())),
        }

    def summary(self) -> str:
        latency = self.latency_ms()
        statuses = ", ".join(
            f"{status}: {count}" for status, count in sorted(self.status_counts.items())
        )
        throughput = f"{self.throughput_rps:.0f} req/s"
        if self.predictions != self.requests:
            throughput += f", {self.cells_rps:.0f} cells/s"
        return "\n".join([
            f"mode: {self.mode}, concurrency: {self.concurrency}, "
            f"targets: {self.targets}"
            + (f", offered rate: {self.rate:g} req/s" if self.rate else ""),
            f"requests: {self.requests} in {self.duration_s:.2f} s "
            f"({throughput}), errors: {self.errors}",
            f"latency: p50 {latency['p50']:.2f} ms, p95 {latency['p95']:.2f} ms, "
            f"p99 {latency['p99']:.2f} ms, max {latency['max']:.2f} ms",
            f"statuses: {statuses or 'none'}",
        ])


class _Recorder:
    def __init__(self) -> None:
        self.samples: list[tuple[int, float, int]] = []
        self.errors = 0

    def fold(self, result: LoadResult) -> None:
        for status, latency, weight in self.samples:
            result.requests += 1
            result.status_counts[str(status)] = (
                result.status_counts.get(str(status), 0) + 1
            )
            if 200 <= status < 300:
                result.predictions += weight
            result.latencies_s.append(latency)
        result.errors += self.errors


async def _closed_worker(
    host: str, port: int, requests: list[tuple[bytes, int]], offset: int,
    deadline: float, recorder: _Recorder,
) -> None:
    reader = writer = None
    i = offset
    try:
        while time.perf_counter() < deadline:
            data, weight = requests[i % len(requests)]
            i += 1
            started = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                await writer.drain()
                status, headers, _body = await read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                recorder.errors += 1
                if writer is not None:
                    writer.close()
                else:
                    # The connect itself failed: the target is down, so
                    # back off before redialing, never past the deadline.
                    remaining = deadline - time.perf_counter()
                    if remaining > 0:
                        await asyncio.sleep(min(RECONNECT_PAUSE_S, remaining))
                reader = writer = None
                continue
            recorder.samples.append((status, time.perf_counter() - started, weight))
            if status == 429:
                # Honor the server's back-pressure instead of hammering
                # a full queue; jittered so workers desynchronize, and
                # never slept past the run deadline.
                delay = retry_after_delay(headers, f"retry-after:{offset}:{i}")
                remaining = deadline - time.perf_counter()
                if remaining > 0:
                    await asyncio.sleep(min(delay, remaining))
    finally:
        if writer is not None:
            writer.close()


async def _open_worker(
    host: str, port: int,
    arrivals: "asyncio.Queue[tuple[bytes, int, float] | None]",
    recorder: _Recorder,
) -> None:
    reader = writer = None
    try:
        while True:
            item = await arrivals.get()
            if item is None:
                return
            data, weight, scheduled = item
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                await writer.drain()
                status, _headers, _body = await read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                recorder.errors += 1
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            # Latency from the scheduled arrival: includes queue wait.
            recorder.samples.append((status, time.perf_counter() - scheduled, weight))
    finally:
        if writer is not None:
            writer.close()


async def _warmup(host: str, port: int, requests: list[tuple[bytes, int]]) -> None:
    writer = None
    try:
        reader, writer = await asyncio.open_connection(host, port)
        for data, _weight in requests:
            writer.write(data)
            await writer.drain()
            await read_response(reader)  # response discarded: cache priming
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # the measured window counts what the target does wrong
    finally:
        if writer is not None:
            writer.close()


def _body_weight(body: dict) -> int:
    """Cells one request prices: batch bodies weigh their cell count."""
    cells = body.get("cells")
    if isinstance(cells, (list, tuple)):
        return max(1, len(cells))
    return 1


async def run_load(
    url: "str | list[str]",
    bodies: list[dict],
    mode: str = "closed",
    concurrency: int = 8,
    duration_s: float = 3.0,
    rate: float | None = None,
    warmup: bool = True,
    path: str = "/v1/predict",
) -> LoadResult:
    """Drive one or more targets with the query bodies and measure.

    ``bodies`` rotate round-robin across requests; with ``warmup``
    each is issued once *per target* before the clock starts, so the
    measured window sees only warm-cache queries.  A list of URLs
    (e.g. a sharded tier's members) spreads the worker connections
    round-robin across targets and reports aggregate numbers.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and not rate:
        raise ValueError("open-loop mode needs a positive --rate")
    urls = [url] if isinstance(url, str) else list(url)
    if not urls:
        raise ValueError("need at least one target URL")
    endpoints: list[tuple[str, int]] = []
    for target in urls:
        split = urlsplit(target)
        endpoints.append((split.hostname or "127.0.0.1", split.port or 80))
    requests_by_target = [
        [
            (
                encode_request(
                    "POST", path, f"{host}:{port}", json.dumps(body).encode()
                ),
                _body_weight(body),
            )
            for body in bodies
        ]
        for host, port in endpoints
    ]
    if warmup:
        await asyncio.gather(*(
            _warmup(host, port, requests)
            for (host, port), requests in zip(endpoints, requests_by_target)
        ))

    recorders = [_Recorder() for _ in range(concurrency)]
    started = time.perf_counter()
    if mode == "closed":
        deadline = started + duration_s
        await asyncio.gather(*(
            _closed_worker(
                *endpoints[i % len(endpoints)],
                requests_by_target[i % len(endpoints)],
                i, deadline, recorders[i],
            )
            for i in range(concurrency)
        ))
    else:
        queues: list[asyncio.Queue] = [asyncio.Queue() for _ in endpoints]
        workers = [
            asyncio.ensure_future(_open_worker(
                *endpoints[i % len(endpoints)],
                queues[i % len(endpoints)], recorders[i],
            ))
            for i in range(concurrency)
        ]
        interval = 1.0 / float(rate)
        n = 0
        while True:
            scheduled = started + n * interval
            now = time.perf_counter()
            if scheduled >= started + duration_s:
                break
            if scheduled > now:
                await asyncio.sleep(scheduled - now)
            data, weight = requests_by_target[n % len(endpoints)][n % len(bodies)]
            queues[n % len(endpoints)].put_nowait((data, weight, scheduled))
            n += 1
        for i, _worker in enumerate(workers):
            queues[i % len(endpoints)].put_nowait(None)
        await asyncio.gather(*workers)
    elapsed = time.perf_counter() - started

    result = LoadResult(
        mode=mode, duration_s=elapsed, concurrency=concurrency, rate=rate,
        targets=len(urls),
    )
    for recorder in recorders:
        recorder.fold(result)
    return result


# --------------------------------------------------------------------------
# --breakdown: queue wait vs service time, from the server's own segments
# --------------------------------------------------------------------------

#: The segment histogram the breakdown reads (emitted per completed trace).
SEGMENT_METRIC = "repro_serve_segment_seconds"

_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(block: str) -> dict[str, str]:
    return {k: v for k, v in _LABEL_PAIR_RE.findall(block)}


def segment_series(text: str) -> dict[str, dict[str, float]]:
    """Per-segment cumulative state from one exposition snapshot.

    Returns ``{segment: {le_string: cumulative_count, "_sum": s,
    "_count": n}}`` — the raw material two snapshots of which make a
    windowed histogram.
    """
    samples = parse_prometheus(text)
    out: dict[str, dict[str, float]] = {}
    for labels, value in samples.get(f"{SEGMENT_METRIC}_bucket", []):
        parsed = _parse_labels(labels)
        segment, le = parsed.get("segment"), parsed.get("le")
        if segment is None or le is None:
            continue
        out.setdefault(segment, {})[le] = value
    for suffix in ("_sum", "_count"):
        for labels, value in samples.get(f"{SEGMENT_METRIC}{suffix}", []):
            segment = _parse_labels(labels).get("segment")
            if segment is None:
                continue
            out.setdefault(segment, {})[suffix] = value
    return out


@dataclass(frozen=True)
class SegmentStats:
    """One segment's windowed (after - before) distribution estimate."""

    segment: str
    count: int
    mean_ms: float
    quantiles_ms: dict[str, float]

    def row(self) -> list[str]:
        cells = [self.segment, str(self.count), f"{self.mean_ms:.3f}"]
        for q in PERCENTILES:
            bound = self.quantiles_ms[f"p{q:g}"]
            cells.append("> last bucket" if math.isinf(bound) else f"<= {bound:.3f}")
        return cells


def _bucket_quantile(buckets: list[tuple[float, float]], total: float, q: float) -> float:
    """Nearest-rank quantile upper bound from cumulative bucket deltas.

    Histograms only know which bucket an observation fell in, so the
    estimate is the upper bound of the bucket holding the q-th
    observation — an "at most" figure, honest about its resolution.
    """
    if total <= 0:
        return 0.0
    rank = math.ceil(total * q / 100.0)
    for le, cum in buckets:
        if cum >= rank:
            return le
    return math.inf


def segment_breakdown(before: str, after: str) -> list[SegmentStats]:
    """Windowed per-segment latency stats between two /metrics scrapes."""
    start, end = segment_series(before), segment_series(after)
    stats: list[SegmentStats] = []
    for segment in sorted(end):
        series = end[segment]
        base = start.get(segment, {})
        buckets = sorted(
            (
                (float(le), value - base.get(le, 0.0))
                for le, value in series.items()
                if le not in ("_sum", "_count")
            ),
        )
        count = series.get("_count", 0.0) - base.get("_count", 0.0)
        delta_sum = series.get("_sum", 0.0) - base.get("_sum", 0.0)
        if count <= 0:
            continue
        quantiles = {
            f"p{q:g}": _bucket_quantile(buckets, count, q) * 1e3
            for q in PERCENTILES
        }
        stats.append(SegmentStats(
            segment=segment,
            count=int(count),
            mean_ms=delta_sum / count * 1e3,
            quantiles_ms=quantiles,
        ))
    # Queue-type waits first, then the service-time segments: the
    # contrast the breakdown exists to show.
    order = {name: i for i, name in enumerate((
        "queue_wait", "batch_wait", "coalesced_wait", "singleflight_wait",
        "engine", "store_read", "store_write", "handle", "serialize",
    ))}
    stats.sort(key=lambda s: (order.get(s.segment, len(order)), s.segment))
    return stats


def render_breakdown(stats: list[SegmentStats]) -> str:
    """Tabulate the breakdown (plain text, aligned columns)."""
    if not stats:
        return "no segment observations in the measured window (is tracing enabled?)"
    header = ["segment", "count", "mean ms"] + [f"p{q:g} ms" for q in PERCENTILES]
    rows = [header] + [s.row() for s in stats]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    note = ("percentiles are bucket upper bounds from the server's "
            f"{SEGMENT_METRIC} histogram delta over the run window")
    return "\n".join(lines + [note])


def render_shard_health(listing: dict) -> str:
    """Tabulate a router's ``/v1/shards`` health detail.

    Shown by ``repro loadtest --breakdown`` against a sharded tier:
    supervision state, respawn/quarantine counts, and breaker state per
    shard member — the self-healing tier's one-glance dashboard.
    """
    members = listing.get("shards", [])
    if not members:
        return "no shard members reported by /v1/shards"
    header = ["shard", "alive", "state", "respawns", "quarantines",
              "breaker", "opens", "reason"]
    rows = [header]
    for member in members:
        breaker = member.get("breaker", {})
        rows.append([
            str(member.get("shard", "?")),
            "yes" if member.get("alive") else "NO",
            str(member.get("state", "serving")),
            str(member.get("respawns", 0)),
            str(member.get("quarantines", 0)),
            str(breaker.get("state", "closed")),
            str(breaker.get("opens", 0)),
            str(member.get("reason") or "-"),
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
