"""End-to-end loopback tests of the prediction service."""

import asyncio
import json

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import GPU_MODELS, run_study
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


def test_cold_study_engages_the_columnar_path():
    """A cold ``/v1/study`` on the default (vector) engine prices its
    misses through the whole-batch columnar call — and stays
    bit-identical to the direct pipeline, which the tests above check
    against the same default server."""
    with ServerThread(ServeConfig(window_s=0.001, engine="vector")) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/study", XSBENCH_STUDY_BODY)
        assert status == 200
        _status, _headers, text = request(thread, "GET", "/metrics")
        samples = parse_prometheus(text)
        # All 16 unique cold cells (4 baselines + 12 model runs) went
        # through the columnar path, across however many batch windows.
        assert sum(v for _labels, v in samples["repro_serve_columnar_specs_total"]) == 16


def test_scalar_engine_serves_identical_entries(xsbench_study):
    """``engine="scalar"`` disables the columnar path entirely and
    serves the same bits."""
    with ServerThread(ServeConfig(window_s=0.001, engine="scalar")) as thread:
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
        _status, _headers, text = request(thread, "GET", "/metrics")
        assert "repro_serve_columnar_specs_total" not in parse_prometheus(text)


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
    with ServerThread(ServeConfig(window_s=0.001, max_queue=0)) as thread:
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
    with ServerThread(ServeConfig(window_s=0.001, deadline_s=0.0)) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/predict", {
            "app": "XSBench", "model": "OpenCL", "platform": "apu",
            "precision": "single",
        })
        assert status == 504
        assert "deadline" in doc["error"]["message"]


def test_graceful_drain_finishes_in_flight_work():
    """Shutdown waits for admitted requests and then refuses new ones."""
    async def main():
        server = Server(ServeConfig(window_s=0.001))
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
        server = Server(ServeConfig(window_s=0.001))
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
