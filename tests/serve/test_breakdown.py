"""The loadtest --breakdown path: segment percentiles from /metrics."""

import asyncio
import math

import pytest

from repro.serve.http import fetch_text
from repro.serve.loadgen import (
    SegmentStats,
    _bucket_quantile,
    render_breakdown,
    segment_breakdown,
    segment_series,
)

from .conftest import request

PREDICT_BODY = {
    "app": "XSBench", "model": "OpenCL", "platform": "apu",
    "precision": "single", "scale": "bench",
}


def _exposition(engine_buckets, engine_sum, engine_count) -> str:
    lines = ["# TYPE repro_serve_segment_seconds histogram"]
    for le, cumulative in engine_buckets:
        lines.append(
            f'repro_serve_segment_seconds_bucket{{le="{le}",segment="engine"}} '
            f"{cumulative}"
        )
    lines.append(f'repro_serve_segment_seconds_sum{{segment="engine"}} {engine_sum}')
    lines.append(f'repro_serve_segment_seconds_count{{segment="engine"}} {engine_count}')
    return "\n".join(lines) + "\n"


def test_segment_series_extracts_buckets_sum_and_count():
    text = _exposition([("0.001", 3), ("0.01", 9), ("+Inf", 10)], 0.05, 10)
    series = segment_series(text)
    assert series == {
        "engine": {"0.001": 3.0, "0.01": 9.0, "+Inf": 10.0,
                   "_sum": 0.05, "_count": 10.0},
    }


def test_bucket_quantile_is_a_nearest_rank_upper_bound():
    buckets = [(0.001, 3.0), (0.01, 9.0), (math.inf, 10.0)]
    assert _bucket_quantile(buckets, 10, 50) == 0.01   # 5th of 10 in bucket 2
    assert _bucket_quantile(buckets, 10, 30) == 0.001  # 3rd of 10 in bucket 1
    assert _bucket_quantile(buckets, 10, 99) == math.inf
    assert _bucket_quantile(buckets, 0, 50) == 0.0


def test_breakdown_uses_the_window_delta_not_the_absolute_counts():
    before = _exposition([("0.001", 100), ("0.01", 100), ("+Inf", 100)], 0.1, 100)
    after = _exposition([("0.001", 100), ("0.01", 108), ("+Inf", 110)], 0.6, 110)
    stats = segment_breakdown(before, after)
    assert len(stats) == 1
    engine = stats[0]
    assert engine.segment == "engine"
    assert engine.count == 10
    assert engine.mean_ms == pytest.approx(50.0)  # 0.5 s over 10 requests
    # 8 of the 10 new observations fell in (0.001, 0.01]: p50 is 10 ms.
    assert engine.quantiles_ms["p50"] == pytest.approx(10.0)
    assert math.isinf(engine.quantiles_ms["p99"])  # 2 landed past the last bound


def test_breakdown_with_no_new_observations_is_empty():
    text = _exposition([("0.001", 5), ("+Inf", 5)], 0.001, 5)
    assert segment_breakdown(text, text) == []
    assert "no segment observations" in render_breakdown([])


def test_render_orders_waits_before_service_segments():
    stats = segment_breakdown(
        "",
        "\n".join([
            'repro_serve_segment_seconds_bucket{le="+Inf",segment="serialize"} 1',
            'repro_serve_segment_seconds_sum{segment="serialize"} 0.001',
            'repro_serve_segment_seconds_count{segment="serialize"} 1',
            'repro_serve_segment_seconds_bucket{le="+Inf",segment="queue_wait"} 1',
            'repro_serve_segment_seconds_sum{segment="queue_wait"} 0.002',
            'repro_serve_segment_seconds_count{segment="queue_wait"} 1',
        ]) + "\n",
    )
    assert [s.segment for s in stats] == ["queue_wait", "serialize"]
    table = render_breakdown(stats)
    assert table.index("queue_wait") < table.index("serialize")
    assert "p99 ms" in table


def test_live_breakdown_measures_the_served_requests(server):
    """Scrape a live server before/after traffic: the segment deltas
    describe exactly the requests issued in between."""
    before = asyncio.run(fetch_text(server.url))
    assert request(server, "POST", "/v1/predict", PREDICT_BODY)[0] == 200
    assert request(server, "POST", "/v1/predict", PREDICT_BODY)[0] == 200
    after = asyncio.run(fetch_text(server.url))
    stats = {s.segment: s for s in segment_breakdown(before, after)}
    # Both requests produced full segment accounting (the second was a
    # warm cache hit: handle/serialize only).
    assert stats["handle"].count == 2
    assert stats["serialize"].count == 2
    assert stats["engine"].count == 1
    assert stats["engine"].mean_ms > 0
    for segment in stats.values():
        assert isinstance(segment, SegmentStats)
        assert segment.quantiles_ms["p50"] > 0
