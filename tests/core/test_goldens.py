"""Golden regression snapshots for the paper's headline artifacts.

The figures and tables are deterministic functions of the model, so
their exact numbers are committed under ``tests/goldens/`` and diffed
here.  Any model or calibration change that moves a published number
fails loudly; an intended recalibration is recorded by re-running

    pytest tests/core/test_goldens.py --regen-goldens

and committing the updated JSON alongside the change that caused it.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.core.configs import bench_configs
from repro.core.export import speedup_tables
from repro.core.study import GPU_MODELS, run_study
from repro.engine.study_vec import capture_program
from repro.exec.plan import PLATFORMS, RunSpec
from repro.hardware.specs import Precision
from repro.sloc import table4

APP_NAMES = tuple(app.name for app in ALL_APPS)


@pytest.fixture(scope="module")
def bench_study():
    return run_study(ALL_APPS, configs=bench_configs())


def test_figure8_figure9_speedups_match_golden(bench_study, golden):
    golden("speedup_tables", speedup_tables(bench_study))


def test_table4_sloc_matches_golden(golden):
    golden("table4_sloc", table4(ALL_APPS))


def test_cross_vendor_energy_matches_golden(golden):
    """The second-vendor study family: every app through the directive
    models on the dGPU and the V100, with whole-run energy and EDP —
    the numbers behind 'a study the paper couldn't run'."""
    study = run_study(
        ALL_APPS,
        configs=bench_configs(),
        models=("OpenCL", "OpenACC", "OpenMP Offload"),
        platforms=("dgpu", "v100"),
    )
    table: dict = {}
    for e in study.entries:
        cell = {"speedup": e.speedup, "joules": e.joules, "edp": e.edp}
        table.setdefault(e.platform_key, {}).setdefault(
            e.precision.value, {}
        ).setdefault(e.app, {})[e.model] = cell
    golden("cross_vendor_energy", table)


def test_speedup_tables_cover_full_matrix(bench_study):
    """Shape guard, independent of the stored numbers: every platform,
    precision, app and model appears, so a silently shrunken study
    cannot 'pass' against a stale golden."""
    tables = speedup_tables(bench_study)
    assert set(tables) == {"APU", "dGPU"}
    for precisions in tables.values():
        assert set(precisions) == {"single", "double"}
        for apps in precisions.values():
            assert set(apps) == set(APP_NAMES)
            for models in apps.values():
                assert set(models) == set(GPU_MODELS)


def _values(value):
    """``value`` as plain JSON data built from values only: dataclasses
    by field, enums by name, arrays by dtype, shape and the sha256 of
    their bytes, floats exactly.  Anything else is an error, so no ``id()`` or default
    ``repr`` can leak into a digest."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            _values(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return [str(value.dtype), list(value.shape), data]
    if isinstance(value, (list, tuple)):
        return [_values(item) for item in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"no value encoding for {type(value).__name__}")


def _program_digest(spec: RunSpec) -> str:
    program = capture_program(spec)
    fields = {f.name: _values(getattr(program, f.name)) for f in dataclasses.fields(program)}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def test_charge_programs_match_golden(golden):
    """Every port's captured schedule (``capture_program``: checksum,
    atoms, transfers, event arrays, event metadata and HC streams), at
    bench and paper scale, on every platform and precision, as one
    sha256 per capture.  This pins the Sec. VI-A charge stream — which
    arrays each runtime moves, and when — through any refactor of the
    runtimes or of the capture path."""
    table: dict = {}
    for scale in ("bench", "paper"):
        for app in ALL_APPS:
            config = bench_configs()[app.name] if scale == "bench" else app.paper_config()
            for model in sorted(app.ports):
                for platform in PLATFORMS:
                    for precision in Precision:
                        spec = RunSpec(app.name, model, platform, precision, config)
                        table.setdefault(scale, {}).setdefault(app.name, {}).setdefault(
                            model, {}
                        ).setdefault(platform, {})[precision.value] = _program_digest(spec)
    golden("charge_programs", table)
