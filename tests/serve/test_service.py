"""The shared service skeleton, as both front ends run it."""

import socket
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import parse_prometheus
from repro.serve import ServeConfig, ServerThread, ShardRouter
from repro.serve.service import ServiceThread

from .conftest import request


@pytest.mark.parametrize("front, metric", [
    ("server", "repro_serve_latency_seconds"),
    ("router", "repro_router_latency_seconds"),
])
def test_malformed_request_gets_a_timed_400_and_a_closed_connection(front, metric):
    if front == "server":
        thread = ServerThread(ServeConfig(warm="none"))
    else:
        # The shard is never called: the request fails at the framing.
        thread = ServiceThread(ShardRouter(urls=["http://127.0.0.1:9"]))
    with thread:
        split = urlsplit(thread.url)
        with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
            sock.sendall(b"GARBLED\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
        _status, _headers, text = request(thread, "GET", "/metrics")
    head = reply.split(b"\r\n\r\n", 1)[0].decode()
    assert head.split(" ")[1] == "400"
    assert "Connection: close" in head
    samples = parse_prometheus(text)
    sums = [
        value for labels, value in samples[metric + "_sum"]
        if 'route="other"' in labels
    ]
    counts = [
        value for labels, value in samples[metric + "_count"]
        if 'route="other"' in labels
    ]
    assert counts == [1.0]
    assert sums[0] > 0.0
