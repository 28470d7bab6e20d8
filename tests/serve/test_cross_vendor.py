"""The second-vendor family over the wire: V100 cells with energy and
EDP through ``/v1/predict`` on a single server and ``/v1/study``
through a two-shard tier, both against the local pipeline oracle."""

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import run_study
from repro.hardware.specs import Precision
from repro.serve import ServeConfig, ShardedTier

from .conftest import request

CROSS_VENDOR_STUDY_BODY = {
    "apps": ["XSBench"],
    "models": ["omp-offload", "OpenACC"],
    "platforms": ["v100"],
    "scale": "bench",
}


@pytest.fixture(scope="module")
def v100_study():
    """Direct batch-pipeline output to compare HTTP responses against."""
    return run_study(
        (APPS_BY_NAME["XSBench"],),
        configs=bench_configs(),
        models=("OpenMP Offload", "OpenACC"),
        platforms=("v100",),
    )


# -- single server ------------------------------------------------------


def test_predict_v100_omp_offload_carries_energy(server, v100_study):
    """A V100 cell via the model alias serves joules and EDP equal to
    the local oracle, bit for bit."""
    for precision in (Precision.SINGLE, Precision.DOUBLE):
        status, _headers, doc = request(server, "POST", "/v1/predict", {
            "app": "XSBench", "model": "omp-offload", "platform": "v100",
            "precision": precision.value, "scale": "bench",
        })
        assert status == 200
        entry = v100_study.get(
            "XSBench", "OpenMP Offload", precision=precision, platform="v100"
        )
        assert doc["seconds"] == entry.seconds
        assert doc["speedup"] == entry.speedup
        assert doc["joules"] == entry.joules
        assert doc["edp"] == entry.edp
        assert doc["joules"] > 0.0


def test_study_v100_family_matches_oracle(server, v100_study):
    status, _headers, doc = request(
        server, "POST", "/v1/study", CROSS_VENDOR_STUDY_BODY
    )
    assert status == 200
    assert len(doc["entries"]) == len(v100_study.entries)
    for served in doc["entries"]:
        assert served["platform"] == "V100"
        entry = v100_study.get(
            served["app"], served["model"],
            precision=Precision(served["precision"]), platform="v100",
        )
        assert served["seconds"] == entry.seconds
        assert served["speedup"] == entry.speedup
        assert served["joules"] == entry.joules
        assert served["edp"] == entry.edp


# -- the sharded tier ---------------------------------------------------


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    config = ServeConfig(
        store_path=str(tmp_path_factory.mktemp("store")),
    )
    with ShardedTier(config, shards=2) as tier:
        yield tier


def test_sharded_study_v100_family_matches_oracle(tier, v100_study):
    """The acceptance bar: the same cells through a two-shard tier match
    the local oracle, including the energy columns."""
    status, _headers, doc = request(
        tier, "POST", "/v1/study", CROSS_VENDOR_STUDY_BODY
    )
    assert status == 200
    assert len(doc["entries"]) == len(v100_study.entries)
    for served in doc["entries"]:
        entry = v100_study.get(
            served["app"], served["model"],
            precision=Precision(served["precision"]), platform="v100",
        )
        assert served["seconds"] == entry.seconds
        assert served["kernel_seconds"] == entry.kernel_seconds
        assert served["baseline_seconds"] == entry.baseline_seconds
        assert served["speedup"] == entry.speedup
        assert served["joules"] == entry.joules
        assert served["edp"] == entry.edp


def test_sharded_predict_v100_alias_round_trips(tier, v100_study):
    status, _headers, doc = request(tier, "POST", "/v1/predict", {
        "app": "XSBench", "model": "openmp offload", "platform": "v100",
        "precision": "double", "scale": "bench",
    })
    assert status == 200
    entry = v100_study.get(
        "XSBench", "OpenMP Offload", precision=Precision.DOUBLE, platform="v100"
    )
    assert doc["seconds"] == entry.seconds
    assert doc["joules"] == entry.joules
    assert doc["edp"] == entry.edp
