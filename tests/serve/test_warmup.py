"""Boot-time warm-up: the preset lattice, store loading, work splitting."""

import pytest

from repro.engine.memo import SingleFlightCache
from repro.serve.store import ResultStore
from repro.serve.warmup import WarmReport, load_store, preset_specs, warm_presets


# -- the preset lattice -------------------------------------------------


def test_preset_specs_are_deduplicated_and_stable():
    specs = preset_specs(("bench",))
    keys = [spec.content_key() for spec in specs]
    assert len(keys) == len(set(keys))
    assert keys == [spec.content_key() for spec in preset_specs(("bench",))]
    # Every preset is clock-default projection pricing.
    assert all(spec.core_mhz is None and spec.projection for spec in specs)


def test_preset_specs_grow_with_scales():
    bench = preset_specs(("bench",))
    both = preset_specs(("bench", "paper"))
    assert len(both) > len(bench)
    # The bench lattice is a prefix: stable enumeration order.
    assert [s.content_key() for s in both][: len(bench)] == \
        [s.content_key() for s in bench]


def test_preset_specs_reject_unknown_scales():
    with pytest.raises(ValueError, match="nope"):
        preset_specs(("nope",))


# -- loading ------------------------------------------------------------


def test_load_store_seeds_the_memory_cache(tmp_path):
    store = ResultStore(tmp_path)
    specs = preset_specs(("bench",))[:3]
    for i, spec in enumerate(specs):
        store.put(spec.content_key(), {"i": i})
    cache = SingleFlightCache()
    assert load_store(cache, store) == 3
    for i, spec in enumerate(specs):
        found, value = cache.peek(spec.content_key())
        assert found and value == {"i": i}


def test_load_store_skips_corrupt_entries(tmp_path):
    store = ResultStore(tmp_path)
    key = "ab" * 32
    store.put(key, {"ok": True})
    path = store.path_for(key)
    path.write_bytes(path.read_bytes()[:10])
    assert load_store(SingleFlightCache(), store) == 0


# -- pre-pricing --------------------------------------------------------


def test_warm_presets_prices_once_then_loads_forever(tmp_path):
    """First boot prices the lattice; every later boot loads it."""
    store = ResultStore(tmp_path)
    first = SingleFlightCache()
    report = warm_presets(first, store, scales=("bench",))
    assert report.total == len(preset_specs(("bench",)))
    assert report.priced > 0
    assert report.deferred == 0
    assert report.loaded + report.priced == report.total

    # A "restarted" process over the same store: nothing to price.
    second = SingleFlightCache()
    again = warm_presets(second, store, scales=("bench",))
    assert again.priced == 0
    assert again.loaded == again.total
    # And both caches hold bit-identical values for every preset.
    for spec in preset_specs(("bench",)):
        key = spec.content_key()
        found_a, a = first.peek(key)
        found_b, b = second.peek(key)
        assert found_a and found_b and a == b


def test_warm_presets_defers_keys_another_process_holds(tmp_path):
    """A key locked by a concurrent warmer is not priced here; once the
    leader publishes, the deferred-poll loop seeds it as a load."""
    import threading
    import time

    store = ResultStore(tmp_path)
    claimed = preset_specs(("bench",))[0]
    key = claimed.content_key()
    assert store._try_lock(key)  # "another process" holds the claim

    def leader():
        time.sleep(0.3)
        store.put(key, {"published": "by-leader"})
        store._unlock(key)

    publisher = threading.Thread(target=leader)
    publisher.start()
    try:
        report = warm_presets(SingleFlightCache(), store, scales=("bench",),
                              wait_s=30)
        # The claimed key was loaded once the leader published, never
        # priced by this warmer.
        assert report.priced == report.total - 1
        assert report.loaded == 1
        assert report.deferred == 0
        assert store.get(key) == {"published": "by-leader"}
    finally:
        publisher.join()


def test_warm_presets_ignores_the_study_run_fault_plan(monkeypatch):
    """``REPRO_INJECT_FAULTS`` arms study runs only: the warm-up still
    prices every preset."""
    monkeypatch.setenv("REPRO_INJECT_FAULTS", "poison:1")
    report = warm_presets(SingleFlightCache(), scales=("bench",))
    assert report.priced == report.total > 0


def test_warm_report_summary_reads_like_a_boot_line():
    report = WarmReport(total=120, loaded=100, priced=18, deferred=2, wall_s=1.5)
    summary = report.summary()
    assert "100 loaded" in summary
    assert "18 priced" in summary
    assert "2 deferred" in summary
    assert "120 presets" in summary
