"""End-to-end loopback tests of the prediction service."""

import asyncio
import json
import re
import threading
import time

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import GPU_MODELS, run_study
from repro.engine import memo
from repro.hardware.specs import Precision
from repro.obs.metrics import parse_prometheus
from repro.serve import ServeConfig, Server, ServerThread

from .conftest import request

XSBENCH_STUDY_BODY = {"apps": ["XSBench"], "scale": "bench"}


@pytest.fixture(scope="module")
def xsbench_study():
    """Direct batch-pipeline output to compare HTTP responses against."""
    return run_study(
        (APPS_BY_NAME["XSBench"],), paper_scale=True, configs=bench_configs()
    )


# -- bit-identity ------------------------------------------------------


def test_predict_is_bit_identical_to_run_study(server, xsbench_study):
    """Every matrix cell served over HTTP equals the batch pipeline."""
    for model in GPU_MODELS:
        for apu in (True, False):
            for precision in (Precision.SINGLE, Precision.DOUBLE):
                status, _headers, doc = request(server, "POST", "/v1/predict", {
                    "app": "XSBench", "model": model,
                    "platform": "apu" if apu else "dgpu",
                    "precision": precision.value, "scale": "bench",
                })
                assert status == 200
                entry = xsbench_study.get("XSBench", model, apu, precision)
                assert doc["seconds"] == entry.seconds
                assert doc["kernel_seconds"] == entry.kernel_seconds
                assert doc["baseline_seconds"] == entry.baseline_seconds
                assert doc["speedup"] == entry.speedup
                assert doc["version"] == "v1"


def test_study_route_is_bit_identical_to_run_study(server, xsbench_study):
    status, _headers, doc = request(server, "POST", "/v1/study", XSBENCH_STUDY_BODY)
    assert status == 200
    assert len(doc["entries"]) == len(xsbench_study.entries)
    for served in doc["entries"]:
        entry = xsbench_study.get(
            served["app"], served["model"], served["platform"] == "APU",
            Precision(served["precision"]),
        )
        assert served["seconds"] == entry.seconds
        assert served["speedup"] == entry.speedup
        assert served["baseline_seconds"] == entry.baseline_seconds
    assert sum(doc["served"].values()) == 16  # 4 cells x (1 baseline + 3 models)


def test_predict_provenance_progresses_to_cache(server):
    body = {"app": "CoMD", "model": "OpenCL", "platform": "dgpu",
            "precision": "double"}
    _status, _headers, cold = request(server, "POST", "/v1/predict", body)
    _status, _headers, warm = request(server, "POST", "/v1/predict", body)
    assert cold["provenance"]["model"] == "computed"
    assert warm["provenance"] == {"baseline": "cache", "model": "cache"}
    assert warm["seconds"] == cold["seconds"]
    assert warm["key"] == cold["key"]


# -- pricing engines ----------------------------------------------------


def _engine_runs(thread):
    _status, _headers, text = request(thread, "GET", "/metrics")
    return sum(v for _labels, v in parse_prometheus(text)["repro_serve_engine_runs_total"])


def test_cold_study_engages_the_columnar_path(monkeypatch):
    """A cold ``/v1/study`` prices its misses by schedule group, none
    through the retry ladder — and stays bit-identical to the direct
    pipeline, which the tests above check against the same default
    server."""
    from repro.exec import executor

    def ladder(spec, *args, **kwargs):
        raise AssertionError(f"{spec.label} left grouped pricing")

    monkeypatch.setattr(executor, "run_with_retry", ladder)
    with ServerThread(ServeConfig()) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/study", XSBENCH_STUDY_BODY)
        assert status == 200
        # All 16 unique cold cells (4 baselines + 12 model runs) were
        # priced, across however many batches.
        assert _engine_runs(thread) == 16


def test_cold_predict_prices_both_legs_in_one_batch(server):
    """A predict submits its model and baseline legs in one event-loop
    iteration, so idle dispatch still sends them as one batch."""
    body = {"app": "CoMD", "model": "OpenCL", "platform": "dgpu",
            "precision": "double"}
    _status, _headers, doc = request(server, "POST", "/v1/predict", body)
    assert doc["provenance"] == {"baseline": "computed", "model": "computed"}
    _status, _headers, text = request(server, "GET", "/metrics")
    samples = parse_prometheus(text)
    assert sum(v for _l, v in samples["repro_serve_batches_total"]) == 1
    assert sum(v for _l, v in samples["repro_serve_batch_size_sum"]) == 2
    assert _engine_runs(server) == 2


def test_scalar_engine_serves_identical_entries(xsbench_study, monkeypatch):
    """With grouped pricing rejecting every cell, each takes the retry
    ladder and the server serves the same bits."""
    import repro.engine.study_vec as study_vec

    monkeypatch.setattr(
        study_vec, "_price_outcome", lambda lattice, rows: [None] * len(rows)
    )
    with ServerThread(ServeConfig()) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/study", XSBENCH_STUDY_BODY)
        assert status == 200
        assert len(doc["entries"]) == len(xsbench_study.entries)
        for served in doc["entries"]:
            entry = xsbench_study.get(
                served["app"], served["model"], served["platform"] == "APU",
                Precision(served["precision"]),
            )
            assert served["seconds"] == entry.seconds
            assert served["speedup"] == entry.speedup
        assert _engine_runs(thread) == 16


# -- operational endpoints ---------------------------------------------


def test_health_and_readiness(server):
    assert request(server, "GET", "/healthz")[0] == 200
    status, _headers, doc = request(server, "GET", "/readyz")
    assert status == 200 and doc == {"status": "ready"}


def test_metrics_exposition_is_valid_and_consistent(server):
    request(server, "POST", "/v1/predict", {
        "app": "XSBench", "model": "OpenCL", "platform": "apu",
        "precision": "single",
    })
    status, headers, text = request(server, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = parse_prometheus(text)
    assert any(
        'route="predict"' in labels and 'status="200"' in labels
        for labels, _value in samples["repro_serve_requests_total"]
    )
    assert "repro_memo_singleflight_coalesced_total" in samples
    assert "repro_serve_queue_depth" in samples
    assert "repro_memo_hit_ratio" in samples
    # Every registered memo layer exports its hit ratio, and only those.
    layers = {
        re.search(r'cache="([^"]+)"', labels).group(1)
        for labels, _value in samples["repro_memo_hit_ratio"]
    }
    assert layers == set(memo.CACHES)
    # Histogram self-consistency: the +Inf bucket equals _count.
    inf = {
        labels: value
        for labels, value in samples["repro_serve_latency_seconds_bucket"]
        if '+Inf' in labels
    }
    counts = dict(samples["repro_serve_latency_seconds_count"])
    for labels, total in counts.items():
        matching = [v for k, v in inf.items() if labels.strip("{}") in k]
        assert matching and matching[0] == total


# -- error handling ----------------------------------------------------


def test_bad_routes_and_methods(server):
    assert request(server, "GET", "/nope")[0] == 404
    assert request(server, "GET", "/v1/predict")[0] == 405
    status, _headers, doc = request(server, "POST", "/v1/predict", {"app": "bogus"})
    assert status == 400
    assert "unknown app" in doc["error"]["message"]


def test_malformed_json_is_a_400(server):
    import http.client
    from urllib.parse import urlsplit

    split = urlsplit(server.url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        conn.request("POST", "/v1/predict", body="{not json")
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in doc["error"]["message"]
    finally:
        conn.close()


@pytest.mark.parametrize("clocks", [
    {"core_mhz": 1300.0},
    {"core_mhz": 1300.0, "memory_mhz": 1000.0},
])
def test_out_of_range_clock_is_a_400_on_a_live_connection(server, clocks):
    """An out-of-range clock is refused at parse time; the keep-alive
    connection that carried it then answers a valid predict."""
    import http.client
    from urllib.parse import urlsplit

    cell = {"app": "CoMD", "model": "OpenCL", "platform": "dgpu", "precision": "single"}
    split = urlsplit(server.url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        conn.request("POST", "/v1/predict", body=json.dumps({**cell, **clocks}))
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 400
        assert "outside the dgpu GPU" in doc["error"]["message"]
        conn.request("POST", "/v1/predict", body=json.dumps({**cell, "core_mhz": 700.0}))
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 200, doc
        assert doc["speedup"] > 0
    finally:
        conn.close()


# -- admission control, deadlines, drain --------------------------------


def test_overload_sheds_with_429_and_retry_after():
    with ServerThread(ServeConfig(max_queue=0)) as thread:
        status, headers, doc = request(thread, "POST", "/v1/predict", {
            "app": "XSBench", "model": "OpenCL", "platform": "apu",
            "precision": "single",
        })
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "admission queue full" in doc["error"]["message"]
        _status, _headers, text = request(thread, "GET", "/metrics")
        samples = parse_prometheus(text)
        assert samples["repro_serve_shed_total"][0][1] == 1
        # Operational endpoints are never shed.
        assert request(thread, "GET", "/healthz")[0] == 200


def test_deadline_overrun_is_a_504():
    with ServerThread(ServeConfig(deadline_s=0.0)) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/predict", {
            "app": "XSBench", "model": "OpenCL", "platform": "apu",
            "precision": "single",
        })
        assert status == 504
        assert "deadline" in doc["error"]["message"]


@pytest.mark.parametrize("path, body", [
    ("/v1/predict", {"app": "XSBench", "model": "OpenCL", "platform": "apu",
                     "precision": "single"}),
    ("/v1/study", {"apps": ["XSBench"], "models": ["OpenCL"],
                   "platforms": ["apu"], "precisions": ["single"]}),
    ("/v1/batch", {"cells": [
        {"app": "XSBench", "model": model, "platform": "apu", "precision": "single"}
        for model in ("OpenMP", "OpenCL")
    ]}),
])
def test_slow_backend_is_a_504_and_the_retry_is_served_from_cache(path, body):
    """The deadline bounds the wait for cold legs on every route; the
    engine run behind a 504 completes and answers the retry."""
    release = threading.Event()
    with ServerThread(ServeConfig(deadline_s=0.2)) as thread:
        batcher = thread.server.batcher
        run_batch = batcher._run_batch

        def held(batch, dispatched_s):
            release.wait(timeout=30)
            return run_batch(batch, dispatched_s)

        batcher._run_batch = held
        try:
            status, _headers, doc = request(thread, "POST", path, body)
        finally:
            release.set()
        assert status == 504
        assert "deadline" in doc["error"]["message"]
        until = time.monotonic() + 30
        while batcher.depth:
            assert time.monotonic() < until, "the engine run never landed"
            time.sleep(0.005)
        status, _headers, doc = request(thread, "POST", path, body)
        assert status == 200
        labels = doc["provenance"].values() if path == "/v1/predict" else doc["served"]
        assert set(labels) == {"cache"}


def test_graceful_drain_finishes_in_flight_work():
    """Shutdown waits for admitted requests and then refuses new ones."""
    async def main():
        server = Server(ServeConfig())
        await server.start()
        port = server.port
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps({
            "app": "LULESH", "model": "OpenACC", "platform": "apu",
            "precision": "single",
        }).encode()
        writer.write(
            (f"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        )
        await writer.drain()
        await asyncio.sleep(0.01)  # let the request be admitted
        shutdown = asyncio.ensure_future(server.shutdown())
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        await shutdown
        writer.close()
        # The listener is closed: new connections must fail.
        with pytest.raises(OSError):
            await asyncio.open_connection("127.0.0.1", port)
        return status

    assert asyncio.run(main()) == 200


def test_readyz_flips_to_503_while_draining():
    async def main():
        server = Server(ServeConfig())
        await server.start()
        # A keep-alive connection opened before the drain begins.
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        server._draining = True
        writer.write(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        writer.close()
        server._draining = False
        await server.shutdown()
        return int(head.split(b" ")[1])

    assert asyncio.run(main()) == 503
