"""Integration: ``repro profile`` artifacts and result non-perturbation.

The acceptance bar for the telemetry layer: the profile command emits a
schema-valid Chrome trace with at least one track per device queue and
per executor worker plus a metrics file with kernel-time histograms and
memo hit ratios — and turning telemetry on leaves every study speedup
bit-identical.
"""

import json

import pytest

from repro.apps import ALL_APPS
from repro.cli import main
from repro.core import bench_configs, run_study
from repro.engine import memo
from repro.obs.metrics import parse_prometheus

from .test_export import check_trace_schema


@pytest.fixture(autouse=True)
def fresh_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


@pytest.fixture(scope="module")
def profile_artifacts(tmp_path_factory):
    """One bench-scale ``repro profile figure8`` run, shared by the
    schema assertions below."""
    out = tmp_path_factory.mktemp("profile")
    trace = out / "trace.json"
    metrics = out / "metrics.prom"
    memo.clear_caches()
    code = main(
        ["profile", "figure8", "--trace", str(trace), "--metrics", str(metrics)]
    )
    assert code == 0
    return trace, metrics


class TestProfileCommand:
    def test_trace_is_schema_valid(self, profile_artifacts):
        trace, _ = profile_artifacts
        doc = json.loads(trace.read_text())
        check_trace_schema(doc)

    def test_trace_has_device_queue_and_worker_tracks(self, profile_artifacts):
        trace, _ = profile_artifacts
        doc = json.loads(trace.read_text())
        tracks = set(doc["otherData"]["tracks"])
        # One track per simulated device queue, both platforms.
        assert {"apu/gpu", "apu/interconnect", "dgpu/gpu", "dgpu/interconnect"} <= tracks
        assert any(t.startswith("worker-") for t in tracks)

    def test_metrics_have_histograms_and_hit_ratios(self, profile_artifacts):
        _, metrics = profile_artifacts
        parsed = parse_prometheus(metrics.read_text())
        assert "repro_kernel_seconds_bucket" in parsed
        assert "repro_kernel_seconds_count" in parsed
        assert "repro_memo_hit_ratio" in parsed
        assert "repro_memo_lookups_total" in parsed
        # Histograms are labelled per app x model x device.
        labels = parsed["repro_kernel_seconds_count"][0][0]
        assert "app=" in labels and "model=" in labels and "device=" in labels

    def test_metrics_json_flavour(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        memo.clear_caches()
        assert main(["profile", "figure8", "--metrics", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["repro_kernel_seconds"]["type"] == "histogram"


class TestNonPerturbation:
    def test_speedups_bit_identical_with_telemetry(self):
        apps = ALL_APPS[:2]
        configs = bench_configs()
        memo.clear_caches()
        plain = run_study(apps, configs=configs)
        memo.clear_caches()
        traced = run_study(apps, configs=configs, telemetry=True)
        assert plain.telemetry is None
        assert traced.telemetry is not None and traced.telemetry.spans
        assert len(plain.entries) == len(traced.entries)
        for a, b in zip(plain.entries, traced.entries):
            assert (a.app, a.model, a.platform, a.precision) == (
                b.app, b.model, b.platform, b.precision
            )
            assert a.seconds == b.seconds  # bitwise, no approx
            assert a.kernel_seconds == b.kernel_seconds
            assert a.speedup == b.speedup

    def test_telemetry_survives_warm_memo_caches(self):
        """Second run hits the memo caches; spans must still appear
        (captures are memoized, the priced charges are replayed)."""
        apps = ALL_APPS[:1]
        configs = bench_configs()
        memo.clear_caches()
        run_study(apps, configs=configs)
        warm = run_study(apps, configs=configs, telemetry=True)
        assert warm.telemetry is not None and warm.telemetry.spans
        hits = warm.telemetry.metrics.get(
            "repro_memo_lookups_total", cache="plan", result="hit"
        )
        assert hits is not None and hits.value > 0
