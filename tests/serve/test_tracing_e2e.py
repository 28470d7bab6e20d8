"""End-to-end request tracing through the live prediction service."""

import http.client
import json
from urllib.parse import urlsplit

import pytest

import repro
from repro.obs.metrics import parse_exemplars, parse_prometheus
from repro.serve import ServeConfig, ServerThread

from .conftest import request

PREDICT_BODY = {
    "app": "XSBench", "model": "OpenCL", "platform": "apu",
    "precision": "single", "scale": "bench",
}


def _request_with_headers(thread, method, path, headers, body=None):
    split = urlsplit(thread.url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _span_index(doc):
    return {span["span_id"]: span for span in doc["spans"]}


# -- the complete span tree ---------------------------------------------


def test_cold_predict_yields_a_complete_parented_trace(server):
    status, _headers, _doc = request(server, "POST", "/v1/predict", PREDICT_BODY)
    assert status == 200
    _status, _headers, index = request(server, "GET", "/v1/debug/traces")
    assert index["tracing"] is True
    assert index["retained"] == 1
    summary = index["traces"][0]
    assert summary["route"] == "predict"
    assert summary["status"] == 200
    assert summary["duration_ms"] > 0

    status, _headers, doc = request(server, "GET", summary["href"])
    assert status == 200
    spans = doc["spans"]
    by_id = _span_index(doc)
    names = {span["name"] for span in spans}
    # Server, batcher and engine layers are all present.
    assert {"request", "handle", "serialize", "batch_wait", "queue_wait",
            "engine"} <= names
    roots = [span for span in spans if not span["parent_id"]]
    assert len(roots) == 1 and roots[0]["name"] == "request"
    # Complete parentage: every non-root span chains to a present parent.
    for span in spans:
        if span["parent_id"]:
            assert span["parent_id"] in by_id, span
    # The root's direct children tile the request: their durations sum
    # to the measured end-to-end latency within 5%.
    direct = [s for s in spans if s["parent_id"] == roots[0]["span_id"]]
    covered_us = sum(s["duration_us"] for s in direct)
    assert covered_us == pytest.approx(doc["duration_ms"] * 1e3, rel=0.05)
    # Attribution segments hang off the handle span.
    handle = next(s for s in spans if s["name"] == "handle")
    for name in ("batch_wait", "queue_wait", "engine"):
        segment = next(s for s in spans if s["name"] == name)
        assert segment["parent_id"] == handle["span_id"]
    assert doc["segments_ms"]["engine"] > 0


def test_trace_is_reachable_from_a_metrics_exemplar(server):
    request(server, "POST", "/v1/predict", PREDICT_BODY)
    _status, _headers, text = request(server, "GET", "/metrics")
    exemplars = parse_exemplars(text, "repro_serve_latency_seconds")
    assert exemplars, "latency buckets carry no exemplars"
    trace_ids = {labels["trace_id"] for _bucket, labels, _value in exemplars}
    assert len(trace_ids) == 1
    trace_id = trace_ids.pop()
    status, _headers, doc = request(server, "GET", f"/v1/debug/traces/{trace_id}")
    assert status == 200
    assert doc["trace_id"] == trace_id
    # The exemplar's observed value is the trace's own duration.
    _bucket, _labels, value = exemplars[0]
    assert value * 1e3 == pytest.approx(doc["duration_ms"], rel=1e-3)


def test_inbound_traceparent_continues_the_callers_trace(server):
    trace_id, parent_span = "ab" * 16, "cd" * 8
    status, doc = _request_with_headers(
        server, "POST", "/v1/predict",
        {"traceparent": f"00-{trace_id}-{parent_span}-01",
         "Content-Type": "application/json"},
        PREDICT_BODY,
    )
    assert status == 200
    status, _headers, doc = request(server, "GET", f"/v1/debug/traces/{trace_id}")
    assert status == 200
    roots = [span for span in doc["spans"] if span["parent_id"] == parent_span]
    assert len(roots) == 1 and roots[0]["name"] == "request"


def test_chrome_export_and_unknown_trace_404(server):
    request(server, "POST", "/v1/predict", PREDICT_BODY)
    _status, _headers, index = request(server, "GET", "/v1/debug/traces")
    href = index["traces"][0]["href"]
    status, _headers, exported = request(server, "GET", href + "?format=chrome")
    assert status == 200
    names = {event["name"] for event in exported["traceEvents"]
             if event.get("ph") == "X"}
    assert {"request", "engine"} <= names
    assert request(server, "GET", "/v1/debug/traces/" + "0" * 32)[0] == 404


def test_debug_logs_expose_the_access_record(server):
    request(server, "POST", "/v1/predict", PREDICT_BODY)
    _status, _headers, doc = request(server, "GET", "/v1/debug/logs")
    access = [r for r in doc["records"]
              if r["event"] == "request" and r.get("route") == "predict"]
    assert access
    assert access[-1]["status"] == 200
    assert len(access[-1]["trace_id"]) == 32
    assert "segments_ms" in access[-1]


# -- satellite metrics ---------------------------------------------------


def test_latency_histogram_labels_shed_requests_by_status():
    with ServerThread(ServeConfig(max_queue=0)) as thread:
        status, _headers, _doc = request(thread, "POST", "/v1/predict", PREDICT_BODY)
        assert status == 429
        _status, _headers, text = request(thread, "GET", "/metrics")
        samples = parse_prometheus(text)
        shed_counts = [
            value for labels, value in samples["repro_serve_latency_seconds_count"]
            if 'route="predict"' in labels and 'status="429"' in labels
        ]
        assert shed_counts == [1.0]


def test_build_info_and_uptime_gauges(server):
    _status, _headers, text = request(server, "GET", "/metrics")
    samples = parse_prometheus(text)
    build = samples["repro_build_info"]
    assert len(build) == 1
    labels, value = build[0]
    assert value == 1.0
    assert f'version="{repro.__version__}"' in labels
    assert "engine=" not in labels
    assert 'python="3.' in labels
    uptime = dict(samples["repro_serve_uptime_seconds"])
    assert uptime[""] >= 0.0


# -- tracing off: dark, and bit-identical --------------------------------


def test_tracing_off_is_dark_and_bit_identical():
    with ServerThread(ServeConfig(tracing=True)) as thread:
        _status, _headers, traced = request(thread, "POST", "/v1/predict", PREDICT_BODY)
    from repro.engine import memo
    from repro.obs import tracing
    memo.RESULT_CACHE.clear()
    tracing.TRACER.clear()  # the trace store is process-global
    with ServerThread(ServeConfig(tracing=False)) as thread:
        _status, _headers, untraced = request(thread, "POST", "/v1/predict", PREDICT_BODY)
        _status, _headers, index = request(thread, "GET", "/v1/debug/traces")
        assert index["tracing"] is False
        assert index["retained"] == 0
        _status, _headers, text = request(thread, "GET", "/metrics")
        assert parse_exemplars(text, "repro_serve_latency_seconds") == []
    for field in ("seconds", "kernel_seconds", "baseline_seconds",
                  "speedup", "kernel_speedup", "key", "provenance"):
        assert traced[field] == untraced[field], field


# -- the store write is a segment of the cold path -----------------------


def _cold_predict_spans(config):
    with ServerThread(config) as thread:
        status, _headers, _doc = request(thread, "POST", "/v1/predict", PREDICT_BODY)
        assert status == 200
        _status, _headers, index = request(thread, "GET", "/v1/debug/traces")
        summary = next(t for t in index["traces"] if t["route"] == "predict")
        _status, _headers, doc = request(thread, "GET", summary["href"])
    return doc["spans"]


def test_cold_store_write_is_a_segment_under_handle(tmp_path):
    spans = _cold_predict_spans(ServeConfig(store_path=str(tmp_path)))
    handle = next(s for s in spans if s["name"] == "handle")
    writes = [s for s in spans if s["name"] == "store_write"]
    assert writes
    for span in writes:
        assert span["kind"] == "segment"
        assert span["parent_id"] == handle["span_id"]


def test_store_less_server_records_no_store_write():
    spans = _cold_predict_spans(ServeConfig())
    assert "engine" in {s["name"] for s in spans}
    assert "store_write" not in {s["name"] for s in spans}
