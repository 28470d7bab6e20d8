"""Structured JSON logging with a bounded in-process ring.

One record is one JSON object per line on stderr — ``ts``, ``level``,
``component``, ``event``, plus whatever fields the call site attaches
(trace ids, routes, statuses, latency segments) — so server output is
machine-parseable instead of ad-hoc prints.  Every record also lands in
a bounded global ring regardless of level, which keeps the recent
history inspectable (``/v1/debug/logs``) without unbounded growth and
without paying stderr I/O on the request hot path: per-request access
records log at ``debug``, which the default ``info`` stream level keeps
off stderr while the ring still captures them.

The stream level comes from ``REPRO_LOG_LEVEL`` (debug/info/warning/
error); ``level="off"`` silences the stream entirely (tests).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from typing import Any, TextIO

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 100}


class LogRing:
    """A bounded, thread-safe ring of recent structured records."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: deque[dict] = deque(maxlen=capacity)

    def append(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent records, oldest first."""
        with self._lock:
            records = list(self._records)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


#: The process-global ring every logger feeds.
RING = LogRing()

_lock = threading.Lock()
_loggers: dict[str, "StructuredLogger"] = {}
_stream: TextIO | None = None  # None -> sys.stderr at emit time
_stream_level = LEVELS.get(os.environ.get("REPRO_LOG_LEVEL", "info").lower(), 20)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class StructuredLogger:
    """Emits one JSON record per event to the ring and (level
    permitting) to stderr."""

    def __init__(self, component: str, ring: LogRing | None = None) -> None:
        self.component = component
        self.ring = ring if ring is not None else RING

    def log(self, level: str, event: str, **fields: Any) -> dict:
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": event,
        }
        for key, value in fields.items():
            record[key] = _jsonable(value)
        self.ring.append(record)
        if LEVELS.get(level, 20) >= _stream_level:
            stream = _stream if _stream is not None else sys.stderr
            try:
                stream.write(json.dumps(record, default=str) + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed stderr must never take down the server
        return record

    def debug(self, event: str, **fields: Any) -> dict:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> dict:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> dict:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> dict:
        return self.log("error", event, **fields)


def get_logger(component: str) -> StructuredLogger:
    """The shared logger for a component (cached per name)."""
    with _lock:
        logger = _loggers.get(component)
        if logger is None:
            logger = _loggers[component] = StructuredLogger(component)
        return logger


def set_stream(stream: TextIO | None) -> None:
    """Redirect stream emission (``None`` restores stderr)."""
    global _stream
    _stream = stream


def set_stream_level(level: str) -> None:
    """Minimum level that reaches the stream; the ring sees all."""
    global _stream_level
    _stream_level = LEVELS.get(level.lower(), 20)
