"""The one HTTP/1.1 framing module: reader, encoder, pooled client.

The client tests run against tiny scripted asyncio servers (silent,
garbage-sending, connection-dropping) in the test's own event loop,
so each failure mode is exact rather than a race against a real shard.
"""

import asyncio

import pytest

from repro.serve import RouterConfig, ShardRouter, run_load
from repro.serve.http import (
    HttpClient,
    MalformedResponse,
    encode_request,
    encode_response,
    fetch_json,
    post_json,
    read_request,
    read_response,
)

PREDICT_BODY = {
    "app": "XSBench", "model": "OpenCL", "platform": "apu", "precision": "single",
}

GARBAGE_REPLIES = [
    b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
    b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
]


def _stream(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _scripted_server(handle) -> tuple[asyncio.AbstractServer, str]:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"


async def _stop(server: asyncio.AbstractServer) -> None:
    server.close()
    await server.wait_closed()


# -- framing -------------------------------------------------------------


def test_request_round_trips_through_the_server_parser():
    async def main():
        data = encode_request("POST", "/v1/predict", "h:1", b'{"a": 1}')
        request = await read_request(_stream(data))
        assert (request.method, request.path, request.body) == (
            "POST", "/v1/predict", b'{"a": 1}',
        )
        assert request.headers["host"] == "h:1"
        assert request.keep_alive

    asyncio.run(main())


def test_response_round_trips_through_the_client_reader():
    async def main():
        data = encode_response(429, {"e": 1}, True, (("Retry-After", "1"),))
        status, headers, body = await read_response(_stream(data))
        assert status == 429
        assert headers["retry-after"] == "1"
        assert headers["connection"] == "keep-alive"
        assert body == b'{"e": 1}\n'

    asyncio.run(main())


@pytest.mark.parametrize("reply", GARBAGE_REPLIES)
def test_malformed_reply_is_a_connection_error(reply):
    async def main():
        with pytest.raises(MalformedResponse):
            await read_response(_stream(reply))

    assert issubclass(MalformedResponse, ConnectionError)
    asyncio.run(main())


def test_eof_before_a_reply_is_a_reset():
    async def main():
        with pytest.raises(ConnectionResetError):
            await read_response(_stream(b""))
        with pytest.raises(MalformedResponse, match="truncated"):
            await read_response(_stream(b"HTTP/1.1 200 OK\r\n"))

    asyncio.run(main())


# -- the pooled client ---------------------------------------------------


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_deadline_closes_the_connection():
    """A call cancelled by its deadline must close its connection (the
    server sees EOF), not leave it open outside the pool.  An
    interpreter whose ``StreamWriter.__del__`` closes the leak itself
    still warns, and the unraisable warning fails the test."""

    async def main():
        eof = asyncio.Event()

        async def silent(reader, writer):
            await reader.read()  # never answers; returns at EOF
            eof.set()
            writer.close()

        server, url = await _scripted_server(silent)
        client = HttpClient(url)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.request("POST", "/v1/predict"), 0.1)
            await asyncio.wait_for(eof.wait(), 5.0)
            eof.clear()
            with pytest.raises(asyncio.TimeoutError):
                await client.request("GET", "/readyz", timeout=0.1)
            await asyncio.wait_for(eof.wait(), 5.0)
        finally:
            client.close()
            await _stop(server)

    asyncio.run(main())


def test_stale_pooled_connection_is_retried_once_on_a_fresh_one():
    async def main():
        connections = []

        async def one_answer_then_drop(reader, writer):
            connections.append(writer)
            if await read_request(reader) is not None:
                writer.write(encode_response(200, {"n": len(connections)}, True))
                await writer.drain()
            writer.close()  # an idle reap: the pooled connection goes stale

        server, url = await _scripted_server(one_answer_then_drop)
        client = HttpClient(url)
        try:
            first = await client.request("GET", "/x")
            await asyncio.sleep(0.05)
            second = await client.request("GET", "/x")
        finally:
            client.close()
            await _stop(server)
        assert first == (200, b'{"n": 1}\n')
        assert second == (200, b'{"n": 2}\n')
        assert len(connections) == 2

    asyncio.run(main())


def test_fresh_connection_failure_is_not_retried():
    async def main():
        connections = []

        async def hang_up(reader, writer):
            connections.append(writer)
            await read_request(reader)
            writer.close()

        server, url = await _scripted_server(hang_up)
        try:
            with pytest.raises(ConnectionError):
                await post_json(url, "/v1/predict", PREDICT_BODY)
            client = HttpClient(url)
            with pytest.raises(ConnectionError):
                await client.request("GET", "/x")
            client.close()
        finally:
            await _stop(server)
        assert len(connections) == 2  # one per call: no retry

    asyncio.run(main())


# -- malformed replies are transport failures ----------------------------


async def _garbage_server(reply: bytes, served: list):
    async def handle(reader, writer):
        if await read_request(reader) is not None:
            served.append(reply)
            writer.write(reply)
            await writer.drain()
        writer.close()

    return await _scripted_server(handle)


@pytest.mark.parametrize("reply", GARBAGE_REPLIES[:2])
def test_router_answers_502_and_counts_a_garbage_shard_reply(reply):
    async def main():
        served: list = []
        shard, shard_url = await _garbage_server(reply, served)
        router = ShardRouter(
            urls=[shard_url], config=RouterConfig(degraded=False, deadline_s=5.0)
        )
        await router.start()
        try:
            status, doc = await post_json(router.url, "/v1/predict", PREDICT_BODY)
            listing = await fetch_json(router.url, "/v1/shards")
        finally:
            await router.shutdown()
            await _stop(shard)
        assert status == 502
        assert "MalformedResponse" in doc["error"]["message"]
        # One breaker failure per malformed reply (the first call plus
        # any retry the budget allowed).
        breaker = listing["shards"][0]["breaker"]
        assert served and breaker["consecutive_failures"] == len(served)

    asyncio.run(main())


@pytest.mark.parametrize("reply", GARBAGE_REPLIES[:2])
def test_loadgen_counts_a_garbage_reply_as_an_error(reply):
    """Through the default warm-up pass too, as ``repro loadtest`` runs:
    the run ends with counted errors, not a traceback."""

    async def main():
        served: list = []
        server, url = await _garbage_server(reply, served)
        try:
            return await run_load(url, [PREDICT_BODY], concurrency=1, duration_s=0.2)
        finally:
            await _stop(server)

    result = asyncio.run(main())
    assert result.errors >= 1
    assert result.requests == 0
    assert not result.clean
