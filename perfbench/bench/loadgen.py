"""Single-process asyncio load generator: a closed loop over one
keep-alive connection."""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Iterable
from urllib.parse import urlsplit

from .http import Connection


@dataclass
class Sample:
    index: int  #: position in the input sequence
    sent: float
    done: float
    status: int | None  #: None: connection dropped without an answer
    body: bytes


def connect(url: str) -> Connection:
    parts = urlsplit(url)
    return Connection(parts.hostname, parts.port)


async def closed_loop(url: str, path: str, bodies: Iterable[bytes],
                      seconds: float) -> tuple[list[Sample], float]:
    """Send ``bodies`` in order over one keep-alive connection, each as
    soon as the previous answer has arrived, until ``seconds`` have
    passed.  Latency runs from the send, so it is the service time and
    no generator schedule can fall behind.  Returns the samples and the
    start time."""
    conn = connect(url)
    samples: list[Sample] = []
    # A collector pause in the generator would read as server latency.
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    end = t0 + seconds
    try:
        for index, body in enumerate(bodies):
            sent = time.perf_counter()
            if sent >= end:
                break
            status, payload = await conn.request("POST", path, body)
            samples.append(Sample(index, sent, time.perf_counter(), status, payload))
    finally:
        gc.enable()
        conn.close()
    return samples, t0
