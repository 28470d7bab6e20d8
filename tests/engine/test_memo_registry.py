"""Every memo layer is registered in ``memo.CACHES``.

The registry drives clearing, the cache toggle and every per-layer
counter report, so a cache outside it would be left warm by
``clear_caches``, keep computing under ``use_cache=False`` and go
missing from the stats.  The scan finds every cache object bound at
module level in :mod:`repro.engine.memo` and fails on one the registry
does not hold.
"""

import types

import pytest

from repro.apps.comd.reference import make_state
from repro.engine import memo
from repro.hardware.specs import Precision
from tests.test_projection import SMALL


def unregistered(module: types.ModuleType) -> list[str]:
    """Module-level cache objects of ``module`` missing from its registry."""
    registered = {id(cache) for cache in module.CACHES.values()}
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, memo.MemoCache) and id(value) not in registered
    )


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.clear_caches()
    yield
    memo.clear_caches()


def test_every_module_level_cache_is_registered():
    assert unregistered(memo) == []


def test_registry_is_keyed_by_layer_name():
    assert all(name == cache.layer for name, cache in memo.CACHES.items())


def test_the_scan_finds_an_unregistered_cache():
    fake = types.ModuleType("fake_memo")
    fake.CACHES = {"kernel": memo.KERNEL_CACHE}
    fake.KERNEL_CACHE = memo.KERNEL_CACHE
    fake.ROGUE_CACHE = memo.LruMemoCache("rogue", maxsize=2)
    assert unregistered(fake) == ["ROGUE_CACHE"]


def _fill_every_layer():
    config = SMALL["CoMD"]
    make_state(config, Precision.DOUBLE)
    with memo.projection_stubs():
        make_state(config, Precision.DOUBLE)
    for name, cache in memo.CACHES.items():
        if name == "result":
            cache.get_or_compute((name,), lambda: 1)
        elif name != "setup" and name != "stub":
            cache.lookup((name,), lambda: 1)
            cache.lookup((name,), lambda: 1)


def test_clear_caches_empties_every_layer_and_zeroes_its_counters():
    _fill_every_layer()
    assert all(len(cache) and cache.snapshot().lookups for cache in memo.CACHES.values())
    memo.clear_caches()
    for name, cache in memo.CACHES.items():
        assert len(cache) == 0, name
        assert cache.snapshot() == memo.MemoStats(), name


def test_snapshot_and_since_cover_every_layer():
    before = memo.snapshot()
    assert list(before) == list(memo.CACHES)
    _fill_every_layer()
    delta = memo.since(before)
    assert list(delta) == list(memo.CACHES)
    assert delta["kernel"] == memo.MemoStats(hits=1, misses=1)
    assert delta["stub"] == memo.MemoStats(hits=0, misses=1)


def test_cache_setting_toggles_every_layer_but_the_result_cache():
    toggled = [cache for cache in memo.CACHES.values() if cache.toggled]
    assert {cache.layer for cache in toggled} == {"kernel", "setup", "trace", "plan", "stub"}
    assert not memo.RESULT_CACHE.toggled
    with memo.cache_setting(False):
        assert not any(cache.enabled for cache in toggled)
        assert memo.RESULT_CACHE.enabled
    assert all(cache.enabled for cache in toggled)
    assert memo.RESULT_CACHE.enabled


def test_cache_setting_restores_each_layer_to_its_own_prior_state():
    memo.PLAN_CACHE.enabled = False
    try:
        with memo.cache_setting(True):
            assert memo.PLAN_CACHE.enabled
        assert not memo.PLAN_CACHE.enabled
        assert memo.KERNEL_CACHE.enabled
    finally:
        memo.PLAN_CACHE.enabled = True


def test_disabled_stub_layer_rebuilds_every_stub():
    config = SMALL["CoMD"]
    with memo.cache_disabled(), memo.projection_stubs():
        first = make_state(config, Precision.DOUBLE)
        second = make_state(config, Precision.DOUBLE)
    assert first is not second
    assert len(memo.STUB_CACHE) == 0
    assert memo.STUB_CACHE.snapshot() == memo.MemoStats()

