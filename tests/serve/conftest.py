"""Shared helpers for the prediction-service tests."""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.engine import memo
from repro.obs import tracing
from repro.serve import ServeConfig, ServerThread


@pytest.fixture(autouse=True)
def fresh_result_cache():
    """Isolate the process-global whole-run result cache per test."""
    memo.RESULT_CACHE.clear()
    yield
    memo.RESULT_CACHE.clear()


@pytest.fixture(autouse=True)
def fresh_tracer():
    """Isolate the process-global tracer (buffers + trace store)."""
    tracing.TRACER.clear()
    yield
    tracing.TRACER.clear()


@pytest.fixture
def server():
    """A live loopback prediction server."""
    with ServerThread(ServeConfig()) as thread:
        yield thread


def request(thread, method: str, path: str, body: dict | None = None):
    """One HTTP exchange with a ServerThread; returns (status, headers, doc)."""
    split = urlsplit(thread.url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
        if headers.get("Content-Type", "").startswith("application/json"):
            doc = json.loads(raw)
        else:
            doc = raw.decode()
        return response.status, headers, doc
    finally:
        conn.close()
