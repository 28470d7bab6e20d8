"""Golden regression snapshots for the paper's headline artifacts.

The figures and tables are deterministic functions of the model, so
their exact numbers are committed under ``tests/goldens/`` and diffed
here.  Any model or calibration change that moves a published number
fails loudly; an intended recalibration is recorded by re-running

    pytest tests/core/test_goldens.py --regen-goldens

and committing the updated JSON alongside the change that caused it.
"""

import pytest

from repro.apps import ALL_APPS
from repro.core.configs import bench_configs
from repro.core.export import speedup_tables
from repro.core.study import GPU_MODELS, run_study
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
