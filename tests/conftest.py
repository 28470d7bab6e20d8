"""Shared test helpers."""

import json
from pathlib import Path

import pytest

from repro.engine.study_vec import priced_run
from repro.hardware.device import make_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext

GOLDEN_DIR = Path(__file__).parent / "goldens"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/goldens/ from "
        "the current model output instead of diffing against them",
    )


@pytest.fixture
def golden(request):
    """Compare (or with ``--regen-goldens``, rewrite) a JSON snapshot.

    Usage: ``golden("name", payload)`` — payload must be JSON-safe.
    """
    regen = request.config.getoption("--regen-goldens")

    def check(name: str, payload):
        path = GOLDEN_DIR / f"{name}.json"
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if regen:
            path.write_text(rendered)
            return
        assert path.exists(), (
            f"golden {path} missing — run pytest --regen-goldens to create it"
        )
        expected = json.loads(path.read_text())
        mismatches = _diff_golden(expected, json.loads(rendered))
        assert not mismatches, (
            f"golden {name} drifted at {mismatches[:10]} — inspect the "
            f"diff, and if the change is intended run pytest --regen-goldens"
        )

    return check


def _diff_golden(expected, actual, path="$", rel=1e-9):
    """Recursive comparison with a tiny float tolerance (libm's last
    ulp may differ across platforms; anything larger is real drift)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        bad = []
        for key in expected.keys() | actual.keys():
            if key not in expected or key not in actual:
                bad.append(f"{path}.{key} (missing)")
            else:
                bad.extend(_diff_golden(expected[key], actual[key], f"{path}.{key}", rel))
        return bad
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path} (length {len(expected)} != {len(actual)})"]
        bad = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            bad.extend(_diff_golden(e, a, f"{path}[{i}]", rel))
        return bad
    if isinstance(expected, float) or isinstance(actual, float):
        if actual == pytest.approx(expected, rel=rel, abs=1e-300):
            return []
        return [f"{path} ({expected!r} != {actual!r})"]
    return [] if expected == actual else [f"{path} ({expected!r} != {actual!r})"]


def project(app, model, apu, precision, config):
    """Run one port in projection mode (paper-scale pricing, numerics
    skipped) — used by shape assertions that need saturated devices."""
    ctx = ExecutionContext(
        platform=make_platform(apu=apu), precision=precision, execute_kernels=False
    )
    return priced_run(app.ports[model], ctx, config)
