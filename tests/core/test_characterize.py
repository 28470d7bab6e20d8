"""Table I characterization tests."""

import pytest

from repro.apps import APPS_BY_NAME, PROXY_APPS
from repro.core.characterize import (
    DOMINANT_KERNEL,
    PAPER_TABLE1,
    characterize,
    dominant_spec,
    measure_ipc,
    measure_miss_rate,
)
from repro.core.configs import sweep_configs


@pytest.fixture(scope="module")
def miss_rates():
    configs = sweep_configs()
    return {
        app.name: measure_miss_rate(dominant_spec(app, configs[app.name]))
        for app in PROXY_APPS
    }


@pytest.fixture(scope="module")
def ipcs():
    configs = sweep_configs()
    return {app.name: measure_ipc(app, configs[app.name]) for app in PROXY_APPS}


class TestMissRates:
    def test_all_in_range(self, miss_rates):
        for app, rate in miss_rates.items():
            assert 0.0 < rate < 1.0, app

    def test_lulesh_has_best_locality(self, miss_rates):
        """Table I: LULESH 'portrays good data locality as shown by the
        low miss rate'."""
        assert miss_rates["LULESH"] == min(miss_rates.values())

    def test_xsbench_has_worst_locality_of_gathers(self, miss_rates):
        """Table I: XSBench 'manifests poor data-locality'."""
        assert miss_rates["XSBench"] > 2 * miss_rates["LULESH"]
        assert miss_rates["XSBench"] > miss_rates["CoMD"]

    def test_minife_misses_heavily(self, miss_rates):
        assert miss_rates["miniFE"] > miss_rates["CoMD"]


class TestIPC:
    def test_xsbench_locality_hurts_ipc(self, ipcs):
        """Table I: XSBench's appalling locality 'also results in poor
        instructions per cycle' — below the compute-bound apps.
        (Deviation from the paper: our bandwidth-starved CPU model
        gives miniFE the lowest IPC instead of the highest; recorded
        in EXPERIMENTS.md.)"""
        assert ipcs["XSBench"] < ipcs["CoMD"]
        assert ipcs["XSBench"] < ipcs["LULESH"]

    def test_ipc_magnitudes_sane(self, ipcs):
        for app, ipc in ipcs.items():
            assert 0.01 < ipc < 2.5, app


class TestCharacterize:
    def test_full_row(self):
        app = APPS_BY_NAME["CoMD"]
        config = sweep_configs()["CoMD"]
        row = characterize(app, config)
        assert row.app == "CoMD"
        assert row.n_kernels == 3
        assert row.boundedness == "Compute"

    def test_kernel_counts_match_table1(self):
        for app in PROXY_APPS:
            assert app.n_kernels == PAPER_TABLE1[app.name]["kernels"]

    def test_dominant_kernels_defined(self):
        for app in PROXY_APPS:
            assert app.name in DOMINANT_KERNEL


class TestCharacterizeApps:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.core.characterize import characterize_apps

        return characterize_apps(PROXY_APPS)

    def test_one_row_per_app(self, result):
        assert [r.app for r in result.rows] == [app.name for app in PROXY_APPS]

    def test_stats_include_trace_counters(self, result):
        lookups = result.stats.caches["trace"].lookups
        assert lookups >= len(PROXY_APPS)
        assert "trace-replay memo cache" in result.stats.summary()

    def test_workers_bit_identical(self, result):
        from repro.core.characterize import characterize_apps

        # Telemetry makes every sweep point its own run, so the pool is
        # reached (grouped pricing of a projection grid stays in process).
        parallel = characterize_apps(PROXY_APPS, max_workers=2, telemetry=True)
        assert parallel.stats.workers == 2
        assert parallel.rows == result.rows

    def test_no_cache_bit_identical(self, result):
        from repro.core.characterize import characterize_apps

        uncached = characterize_apps(PROXY_APPS, use_cache=False)
        assert uncached.rows == result.rows
        assert uncached.stats.caches["trace"].hits == 0
