"""The load generator: percentile math, both loops, the result record."""

import asyncio

import pytest

from repro.serve import (
    LoadResult,
    ServeConfig,
    ServerThread,
    percentile,
    retry_after_delay,
    run_load,
)
from repro.serve.http import DEFAULT_RETRY_AFTER_S, MAX_RETRY_AFTER_S

BODIES = [
    {"app": "XSBench", "model": model, "platform": "apu", "precision": "single"}
    for model in ("OpenCL", "C++ AMP")
]


def test_percentile_nearest_rank():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(samples, 50) == 5.0
    assert percentile(samples, 95) == 10.0
    assert percentile(samples, 99) == 10.0
    assert percentile(samples, 0) == 1.0
    assert percentile([], 99) == 0.0
    assert percentile([42.0], 50) == 42.0


def test_load_result_summary_and_json():
    result = LoadResult(mode="closed", duration_s=2.0, concurrency=4, rate=None)
    result.requests = 100
    result.status_counts = {"200": 99, "429": 1}
    result.latencies_s = [0.001] * 100
    doc = result.to_json()
    assert doc["throughput_rps"] == 50.0
    assert doc["latency_ms"]["p99"] == 1.0
    assert doc["status_counts"] == {"200": 99, "429": 1}
    assert "p50 1.00 ms" in result.summary()
    # One shed answer is enough to fail the run.
    assert not result.clean
    result.status_counts = {"200": 100}
    assert result.clean


def test_closed_loop_against_live_server():
    with ServerThread(ServeConfig()) as thread:
        result = asyncio.run(run_load(
            thread.url, BODIES, mode="closed", concurrency=2, duration_s=0.3,
        ))
    assert result.errors == 0
    assert result.requests > 0
    assert set(result.status_counts) == {"200"}
    assert len(result.latencies_s) == result.requests


def test_open_loop_respects_offered_rate():
    with ServerThread(ServeConfig()) as thread:
        result = asyncio.run(run_load(
            thread.url, BODIES, mode="open", concurrency=4, duration_s=0.5,
            rate=100.0,
        ))
    assert result.errors == 0
    # An open loop issues ~rate * duration arrivals regardless of
    # service speed (warm cache keeps the server well ahead here).
    assert 30 <= result.requests <= 60


def test_open_loop_requires_a_rate():
    with pytest.raises(ValueError, match="rate"):
        asyncio.run(run_load("http://127.0.0.1:1", BODIES, mode="open"))
    with pytest.raises(ValueError, match="mode"):
        asyncio.run(run_load("http://127.0.0.1:1", BODIES, mode="sideways"))


# -- Retry-After back-pressure ------------------------------------------


def test_retry_after_delay_jitters_upward_and_caps():
    # The hint is a floor: jitter stretches it 0-50%, deterministically
    # per token, and never returns early.
    delays = {
        retry_after_delay({"retry-after": "0.2"}, f"t:{n}") for n in range(20)
    }
    assert all(0.2 <= d <= 0.3 for d in delays)
    assert len(delays) > 1  # workers desynchronize
    assert retry_after_delay({"retry-after": "0.2"}, "t:0") == retry_after_delay(
        {"retry-after": "0.2"}, "t:0"
    )
    assert retry_after_delay({"retry-after": "3600"}, "t") == MAX_RETRY_AFTER_S


def test_retry_after_delay_falls_back_on_missing_or_http_date():
    ceiling = DEFAULT_RETRY_AFTER_S * 1.5
    assert 0.0 < retry_after_delay({}, "t") <= ceiling
    assert 0.0 < retry_after_delay(
        {"retry-after": "Fri, 08 Aug 2026 00:00:00 GMT"}, "t"
    ) <= ceiling
    assert retry_after_delay({"retry-after": "-5"}, "t") == 0.0


def test_closed_loop_honors_retry_after_on_429():
    """A server that always answers 429 + Retry-After must see the
    closed loop back off, not hammer: the request count is bounded by
    duration / hint, instead of the thousands an unthrottled loop
    would issue."""
    hint = 0.1
    body = (b'{"error": {"status": 429, "message": "full"}}')

    async def scenario() -> LoadResult:
        async def handle(reader, writer):
            try:
                while True:
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.decode("latin-1").split("\r\n"):
                        name, _, value = line.partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value.strip())
                    if length:
                        await reader.readexactly(length)
                    writer.write((
                        "HTTP/1.1 429 Too Many Requests\r\n"
                        f"Retry-After: {hint}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode() + body)
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await run_load(
                f"http://127.0.0.1:{port}", BODIES, mode="closed",
                concurrency=2, duration_s=0.5, warmup=False,
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    assert set(result.status_counts) == {"429"}
    # 2 workers x 0.5 s / >= 0.1 s pause: ~10 requests, not thousands.
    assert result.requests <= 2 * (int(0.5 / hint) + 2)
