"""The sharded tier: routing, fan-out, aggregation, restart drill.

One module-scoped two-shard tier over a shared store (shard processes
cost ~1 s each to boot); every test drives the router's loopback URL
through the same helper the single-server tests use.
"""

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import GPU_MODELS, run_study
from repro.hardware.specs import Precision
from repro.serve import (
    ServeConfig,
    ServerThread,
    ShardedTier,
    ShardRouter,
    shard_for_key,
)
from repro.serve.protocol import PredictRequest
from repro.serve.service import ServiceThread

from .conftest import request

XSBENCH_STUDY_BODY = {"apps": ["XSBench"], "scale": "bench"}


def _cell(app: str, model: str, platform: str, precision: str) -> dict:
    return {"app": app, "model": model, "platform": platform,
            "precision": precision, "scale": "bench"}


# -- the routing function ----------------------------------------------


def test_shard_for_key_is_deterministic_and_in_range():
    spec, _model = PredictRequest.from_json(
        _cell("XSBench", "OpenCL", "dgpu", "single")
    ).specs()
    key = spec.content_key()
    for shards in (1, 2, 3, 7):
        owner = shard_for_key(key, shards)
        assert 0 <= owner < shards
        assert owner == shard_for_key(key, shards)  # stable


def test_shard_for_key_spreads_the_preset_lattice():
    from repro.serve.warmup import preset_specs

    owners = {shard_for_key(spec.content_key(), 2) for spec in preset_specs()}
    assert owners == {0, 1}  # both shards own work


def test_shard_for_key_rejects_zero_shards():
    with pytest.raises(ValueError):
        shard_for_key("ab" * 32, 0)


# -- the live tier ------------------------------------------------------


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    config = ServeConfig(
        store_path=str(tmp_path_factory.mktemp("store")),
        warm="load",
    )
    with ShardedTier(config, shards=2) as tier:
        yield tier


@pytest.fixture(scope="module")
def xsbench_study():
    return run_study(
        (APPS_BY_NAME["XSBench"],), paper_scale=True, configs=bench_configs()
    )


def test_predict_through_the_router_is_bit_identical(tier, xsbench_study):
    for model in GPU_MODELS:
        status, _headers, doc = request(
            tier, "POST", "/v1/predict", _cell("XSBench", model, "dgpu", "double")
        )
        assert status == 200
        entry = xsbench_study.get("XSBench", model, False, Precision.DOUBLE)
        assert doc["seconds"] == entry.seconds
        assert doc["baseline_seconds"] == entry.baseline_seconds
        assert doc["speedup"] == entry.speedup


def test_study_fans_out_and_reassembles_bit_identically(tier, xsbench_study):
    status, _headers, doc = request(tier, "POST", "/v1/study", XSBENCH_STUDY_BODY)
    assert status == 200
    assert len(doc["entries"]) == len(xsbench_study.entries)
    for served in doc["entries"]:
        entry = xsbench_study.get(
            served["app"], served["model"], served["platform"] == "APU",
            Precision(served["precision"]),
        )
        assert served["seconds"] == entry.seconds
        assert served["kernel_seconds"] == entry.kernel_seconds
        assert served["baseline_seconds"] == entry.baseline_seconds
        assert served["speedup"] == entry.speedup


def test_batch_scatter_gather_preserves_cell_order(tier):
    cells = [
        _cell("XSBench", model, platform, precision)
        for model in GPU_MODELS
        for platform in ("apu", "dgpu")
        for precision in ("single", "double")
    ]
    status, _headers, doc = request(tier, "POST", "/v1/batch", {"cells": cells})
    assert status == 200
    assert doc["count"] == len(cells)
    echoed = [(r["model"], r["platform"], r["precision"]) for r in doc["results"]]
    assert echoed == [(c["model"], c["platform"], c["precision"]) for c in cells]
    assert sum(doc["served"].values()) == len(cells)


def test_health_readiness_and_shard_listing(tier):
    status, _headers, _doc = request(tier, "GET", "/healthz")
    assert status == 200
    status, _headers, doc = request(tier, "GET", "/readyz")
    assert status == 200
    assert doc["status"] == "ready"
    assert [probe["status"] for probe in doc["shards"]] == [200, 200]
    status, _headers, doc = request(tier, "GET", "/v1/shards")
    assert status == 200
    assert doc["count"] == 2
    assert len(doc["shards"]) == 2


def test_restart_drill_serves_warm_with_zero_cold_misses(tier):
    """Bounce shard 0 mid-tier; the replacement must answer the whole
    previously-priced mix from its store-loaded cache — the zero
    cold-start guarantee the bench gate enforces."""
    cells = [
        _cell("XSBench", model, platform, precision)
        for model in GPU_MODELS
        for platform in ("apu", "dgpu")
        for precision in ("single", "double")
    ]
    # Price (and persist) everything first.
    status, _h, _d = request(tier, "POST", "/v1/batch", {"cells": cells})
    assert status == 200

    status, _headers, doc = request(tier, "POST", "/v1/admin/restart", {"shard": 0})
    assert status == 200
    assert doc["shard"] == 0

    status, _headers, doc = request(tier, "POST", "/v1/batch", {"cells": cells})
    assert status == 200
    assert "computed" not in doc["served"]  # zero cold misses
    assert set(doc["served"]) <= {"cache", "store"}

    status, _headers, doc = request(tier, "GET", "/v1/shards")
    assert doc["restarts"] == 1


def test_oversize_batch_through_the_router_is_413(tier):
    cells = [_cell("XSBench", "OpenCL", "dgpu", "single")] * 513
    status, _headers, doc = request(tier, "POST", "/v1/batch", {"cells": cells})
    assert status == 413
    assert "split" in doc["error"]["message"]


def test_malformed_request_through_the_router_is_400(tier):
    status, _headers, doc = request(
        tier, "POST", "/v1/predict", {"app": "NoSuchApp", "model": "OpenCL"}
    )
    assert status == 400
    assert "NoSuchApp" in doc["error"]["message"]


def test_unknown_route_is_404(tier):
    status, _headers, _doc = request(tier, "GET", "/v1/nope")
    assert status == 404


# -- degraded mode -------------------------------------------------------


def _strip_provenance(doc: dict) -> dict:
    """``doc`` without what a degraded answer may legitimately differ in."""
    doc = {field: value for field, value in doc.items() if field != "served"}
    if "results" in doc:
        doc["results"] = [
            {field: value for field, value in row.items() if field != "provenance"}
            for row in doc["results"]
        ]
    return doc


def test_degraded_answers_equal_a_single_server_field_for_field():
    """A router whose only shard is unreachable prices every cell itself:
    its ``/v1/batch`` and ``/v1/study`` answers equal a single server's,
    energy included, in everything but provenance."""
    cells = [
        _cell("XSBench", model, platform, "single")
        for model in GPU_MODELS
        for platform in ("apu", "dgpu")
    ]
    study = {**XSBENCH_STUDY_BODY, "precisions": ["single"]}
    answers = {}
    with ServiceThread(ShardRouter(urls=["http://127.0.0.1:9"])) as router, \
            ServerThread(ServeConfig(warm="none")) as server:
        for front, thread in (("router", router), ("server", server)):
            for path, body in (("/v1/batch", {"cells": cells}), ("/v1/study", study)):
                status, _headers, doc = request(thread, "POST", path, body)
                assert status == 200, (front, path, doc)
                answers[front, path] = doc
    batch = answers["router", "/v1/batch"]
    assert batch["served"] == {"degraded": len(cells)}
    assert {row["provenance"] for row in batch["results"]} == {"degraded"}
    assert all(row["joules"] > 0 for row in batch["results"])
    for path in ("/v1/batch", "/v1/study"):
        assert _strip_provenance(answers["router", path]) == _strip_provenance(
            answers["server", path]
        ), path
    assert all(entry["edp"] > 0 for entry in answers["router", "/v1/study"]["entries"])
