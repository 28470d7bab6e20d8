"""The ``/v1/batch`` bulk endpoint: caps, validation, bit-identity.

Bulk cells bypass the micro-batch window (straight to columnar
pricing) but must serve exactly the bytes the study pipeline computes.
"""

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import GPU_MODELS, run_study
from repro.hardware.specs import Precision
from repro.obs.metrics import parse_prometheus
from repro.serve import ServeConfig, ServerThread

from .conftest import request


def _cell(model: str, platform: str = "dgpu", precision: str = "single") -> dict:
    return {"app": "XSBench", "model": model, "platform": platform,
            "precision": precision, "scale": "bench"}


@pytest.fixture(scope="module")
def xsbench_study():
    return run_study(
        (APPS_BY_NAME["XSBench"],), paper_scale=True, configs=bench_configs()
    )


# -- bit-identity -------------------------------------------------------


def test_batch_is_bit_identical_to_run_study(server, xsbench_study):
    """Every cell of the full matrix — models and the OpenMP baseline —
    priced in one bulk call equals the batch pipeline."""
    cells = []
    for platform in ("apu", "dgpu"):
        for precision in ("single", "double"):
            cells.append(_cell("OpenMP", platform, precision))
            cells.extend(_cell(m, platform, precision) for m in GPU_MODELS)
    status, _headers, doc = request(server, "POST", "/v1/batch", {"cells": cells})
    assert status == 200
    assert doc["count"] == len(cells)
    assert [r["model"] for r in doc["results"]] == [c["model"] for c in cells]
    for cell, served in zip(cells, doc["results"]):
        entry = xsbench_study.get(
            "XSBench",
            cell["model"] if cell["model"] != "OpenMP" else GPU_MODELS[0],
            cell["platform"] == "apu",
            Precision(cell["precision"]),
        )
        if cell["model"] == "OpenMP":
            assert served["seconds"] == entry.baseline_seconds
        else:
            assert served["seconds"] == entry.seconds
            assert served["kernel_seconds"] == entry.kernel_seconds


def test_batch_bypasses_the_micro_batch_window(server):
    status, _headers, _doc = request(
        server, "POST", "/v1/batch",
        {"cells": [_cell(m) for m in GPU_MODELS]},
    )
    assert status == 200
    _status, _headers, text = request(server, "GET", "/metrics")
    samples = parse_prometheus(text)
    assert sum(v for _l, v in samples["repro_serve_bulk_batches_total"]) >= 1


def test_repeated_batch_serves_entirely_from_cache(server):
    body = {"cells": [_cell(m) for m in GPU_MODELS]}
    request(server, "POST", "/v1/batch", body)
    _status, _headers, doc = request(server, "POST", "/v1/batch", body)
    assert doc["served"] == {"cache": len(GPU_MODELS)}
    assert all(r["provenance"] == "cache" for r in doc["results"])


# -- validation ---------------------------------------------------------


def test_malformed_cell_error_names_its_index(server):
    cells = [_cell("OpenCL"), {"app": "XSBench", "model": "NoSuchModel"}]
    status, _headers, doc = request(server, "POST", "/v1/batch", {"cells": cells})
    assert status == 400
    assert "cells[1]" in doc["error"]["message"]


def test_empty_and_non_array_cells_are_rejected(server):
    for body in ({"cells": []}, {"cells": "OpenCL"}, {}, [1, 2]):
        status, _headers, doc = request(server, "POST", "/v1/batch", body)
        assert status == 400, body
        assert "error" in doc


# -- size caps (413) ----------------------------------------------------


def test_batch_over_the_configured_cap_is_413():
    config = ServeConfig(max_batch_cells=4)
    with ServerThread(config) as thread:
        cells = [_cell("OpenCL")] * 5
        status, _headers, doc = request(thread, "POST", "/v1/batch", {"cells": cells})
        assert status == 413
        message = doc["error"]["message"]
        assert "limit" in message and "split" in message
        # At the cap is fine.
        status, _h, _d = request(thread, "POST", "/v1/batch", {"cells": cells[:4]})
        assert status == 200


def test_study_over_the_env_cap_is_413(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_MAX_STUDY_RUNS", "8")
    with ServerThread(ServeConfig()) as thread:
        # One app expands to 16 runs (4 cells x 1 baseline + 3 models).
        status, _headers, doc = request(
            thread, "POST", "/v1/study", {"apps": ["XSBench"], "scale": "bench"}
        )
        assert status == 413
        assert "16" in doc["error"]["message"] and "8" in doc["error"]["message"]


def test_config_cap_beats_the_protocol_default():
    config = ServeConfig(max_study_runs=16)
    with ServerThread(config) as thread:
        status, _h, _d = request(
            thread, "POST", "/v1/study", {"apps": ["XSBench"], "scale": "bench"}
        )
        assert status == 200  # exactly at the cap
        status, _h, doc = request(
            thread, "POST", "/v1/study",
            {"apps": ["XSBench", "LULESH"], "scale": "bench"},
        )
        assert status == 413
