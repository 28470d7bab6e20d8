"""Graceful tier shutdown under in-flight load.

The drain contract: once ``stop()`` begins, every request already
admitted completes with one full, correct response; later arrivals are
refused at the connection or admission level (503), never answered
with garbage, and no request is ever answered twice.
"""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from repro.serve import ServeConfig, ShardedTier
from repro.serve.supervise import SupervisionPolicy

from .conftest import request

CELL = {"app": "XSBench", "model": "OpenCL", "platform": "dgpu",
        "precision": "single", "scale": "bench"}


class _Worker(threading.Thread):
    """Hammers /v1/predict on one keep-alive connection until the
    connection dies, recording every complete response it receives."""

    def __init__(self, url: str, stop_flag: threading.Event) -> None:
        super().__init__(daemon=True)
        self.url = url
        self.stop_flag = stop_flag
        self.responses: list[tuple[int, object]] = []
        self.decode_failures = 0

    def run(self) -> None:
        split = urlsplit(self.url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
        payload = json.dumps(CELL)
        try:
            while not self.stop_flag.is_set():
                try:
                    conn.request("POST", "/v1/predict", body=payload)
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException):
                    return  # clean connection-level refusal: allowed
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    self.decode_failures += 1  # torn response: forbidden
                    return
                self.responses.append((response.status, doc))
        finally:
            conn.close()


def test_tier_stop_drains_in_flight_requests_cleanly(tmp_path):
    config = ServeConfig(
        store_path=str(tmp_path / "store"), warm="load",
    )
    # Slow probes: supervision must not mistake the drain for a hang.
    policy = SupervisionPolicy(probe_interval_s=5.0, probe_timeout_s=5.0)
    tier = ShardedTier(config, shards=2, policy=policy)
    tier.start()
    stopped = False
    stop_flag = threading.Event()
    workers = [_Worker(tier.url, stop_flag) for _ in range(6)]
    try:
        status, _headers, expected = request(tier, "POST", "/v1/predict", CELL)
        assert status == 200

        for worker in workers:
            worker.start()
        time.sleep(0.5)  # load is in full flight

        tier.stop()  # drains: in-flight requests finish first
        stopped = True
        stop_flag.set()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        stop_flag.set()
        if not stopped:
            tier.stop()

    completed = [r for worker in workers for r in worker.responses]
    assert completed, "no worker completed a single request"
    # Every completed response is whole and inside the contract:
    # 200s bit-identical, refusals only as 503 (shedding) — and the
    # connection either answered fully or died cleanly, never both.
    assert sum(w.decode_failures for w in workers) == 0
    for status, doc in completed:
        assert status in (200, 503), doc
        if status == 200:
            assert doc["seconds"] == expected["seconds"]
            assert doc["kernel_seconds"] == expected["kernel_seconds"]
            assert doc["key"] == expected["key"]
