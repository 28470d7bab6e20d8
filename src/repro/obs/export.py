"""Timeline assembly and exporters.

Two products come out of a telemetry-enabled run:

* a **Chrome trace** — ``trace_event`` JSON loadable in Perfetto or
  ``chrome://tracing``.  Two synthetic processes share the file: pid 1
  is *simulated time* (one thread/track per device queue: GPU queue,
  interconnect, host loop, per platform), pid 2 is *executor wall
  time* (one ``wall`` track showing when each study cell ran).  Both
  use microsecond timestamps, as the format requires.
* a **metrics file** — the merged registry, JSON or Prometheus text.

:func:`merge_run_telemetry` is the deterministic merge: per-run
recordings are laid end to end in submission order, on the simulated
axis (run *i+1* starts where run *i* ended, so one device queue's
track reads as the study's serial schedule) and on the ``wall``
track.  Submission order is fixed by the plan, so the merged
timeline's structure is identical across repeated runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .spans import InstantEvent, RunTelemetry, Span

#: Synthetic process ids of the two time domains in the Chrome trace.
SIM_PID = 1
EXEC_PID = 2

#: The one executor wall-clock track; every other track is a simulated
#: device queue.
WALL_TRACK = "wall"


@dataclass
class Timeline:
    """One merged, study-wide telemetry recording."""

    spans: list[Span] = field(default_factory=list)
    events: list[InstantEvent] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Spans/events the per-run recorders could not store (record cap).
    dropped: int = 0

    def tracks(self) -> list[str]:
        """All track names, device queues first, sorted."""
        seen = {s.track for s in self.spans} | {e.track for e in self.events}
        return sorted(seen)

    def sim_tracks(self) -> list[str]:
        return [t for t in self.tracks() if t != WALL_TRACK]


def merge_run_telemetry(
    items: list[RunTelemetry],
    extra_metrics: MetricsRegistry | None = None,
) -> Timeline:
    """Merge per-run recordings into one timeline.

    ``items`` is in **submission order** — the executor's unique-run
    order, which is fixed by the plan, making the merge deterministic.
    Each run's simulated spans shift by the simulated cursor, and each
    run contributes one ``run`` span on the ``wall`` track at the wall
    cursor: the runs lie end to end on both clocks.
    """
    timeline = Timeline()
    sim_cursor = 0.0
    wall_at = 0.0
    for telemetry in items:
        for span in telemetry.spans:
            timeline.spans.append(span.shifted(sim_cursor, wall_at))
        for event in telemetry.events:
            timeline.events.append(event.shifted(sim_cursor, wall_at))
        timeline.spans.append(
            Span(
                name=telemetry.label,
                category="run",
                track=WALL_TRACK,
                sim_start=sim_cursor,
                sim_end=sim_cursor + telemetry.sim_seconds,
                wall_start=wall_at,
                wall_end=wall_at + telemetry.wall_seconds,
                args=(("sim_seconds", telemetry.sim_seconds),)
                + tuple(sorted(telemetry.meta.items())),
            )
        )
        timeline.metrics.merge(telemetry.metrics)
        timeline.dropped += telemetry.dropped
        sim_cursor += telemetry.sim_seconds
        wall_at += telemetry.wall_seconds
    if extra_metrics is not None:
        timeline.metrics.merge(extra_metrics)
    return timeline


def chrome_trace(timeline: Timeline) -> dict:
    """The timeline as a Chrome ``trace_event`` JSON object."""
    events: list[dict] = [
        {
            "ph": "M",
            "pid": SIM_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "simulated time (device queues)"},
        },
        {
            "ph": "M",
            "pid": EXEC_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "executor wall time"},
        },
    ]

    # track -> (pid, tid)
    tids = {track: (SIM_PID, index + 1) for index, track in enumerate(timeline.sim_tracks())}
    if WALL_TRACK in timeline.tracks():
        tids[WALL_TRACK] = (EXEC_PID, 1)
    for track, (pid, tid) in sorted(tids.items()):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )

    for span in timeline.spans:
        pid, tid = tids[span.track]
        wall_domain = pid == EXEC_PID
        start = span.wall_start if wall_domain else span.sim_start
        duration = span.wall_seconds if wall_domain else span.sim_seconds
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category,
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "args": span.args_dict,
            }
        )
    for event in timeline.events:
        pid, tid = tids[event.track]
        ts = event.wall_ts if pid == EXEC_PID else event.sim_ts
        events.append(
            {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": pid,
                "tid": tid,
                "name": event.name,
                "cat": event.category,
                "ts": ts * 1e6,
                "args": event.args_dict,
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracks": timeline.tracks(),
            "dropped_records": timeline.dropped,
        },
    }


def write_chrome_trace(timeline: Timeline, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(timeline), fh)


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """JSON for ``*.json`` paths, Prometheus text otherwise."""
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(registry.to_json(), fh, indent=2, sort_keys=True)
    else:
        with open(path, "w") as fh:
            fh.write(registry.to_prometheus())


def top_breakdown(timeline: Timeline, top: int = 10) -> str:
    """Plain-text where-did-the-time-go report.

    Phase totals by span category, then the top-N span names by total
    simulated seconds — the profile command's headline output.
    """
    by_category: dict[str, float] = {}
    by_name: dict[tuple[str, str], tuple[float, int]] = {}
    for span in timeline.spans:
        if span.category == "run":
            continue  # envelope spans double-count their children
        by_category[span.category] = by_category.get(span.category, 0.0) + span.sim_seconds
        key = (span.category, span.name)
        seconds, count = by_name.get(key, (0.0, 0))
        by_name[key] = (seconds + span.sim_seconds, count + 1)

    total = sum(by_category.values())
    lines = ["simulated-time breakdown by phase:"]
    for category in sorted(by_category, key=by_category.get, reverse=True):
        seconds = by_category[category]
        share = seconds / total if total else 0.0
        lines.append(f"  {category:<10} {seconds * 1e3:10.3f} ms  {share:6.1%}")

    lines.append(f"top {top} spans by simulated time:")
    ranked = sorted(by_name.items(), key=lambda kv: kv[1][0], reverse=True)[:top]
    for (category, name), (seconds, count) in ranked:
        share = seconds / total if total else 0.0
        lines.append(
            f"  {seconds * 1e3:10.3f} ms  {share:6.1%}  {count:6d}x  [{category}] {name}"
        )
    if timeline.dropped:
        lines.append(
            f"note: {timeline.dropped} records dropped at the per-run cap; "
            "totals above cover stored spans only"
        )
    return "\n".join(lines)
