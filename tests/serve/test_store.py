"""The disk-backed content-addressed result store.

Covers the PR-8 durability contract: pickle round-trips are
bit-identical, torn or garbled entries read as misses (and are
repaired), first write wins, single-flight holds across processes,
and a restarted server answers from disk without recomputing.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.metrics import speedup
from repro.engine.memo import SingleFlightCache
from repro.exec.retry import RetryPolicy, run_with_retry
from repro.serve import PersistentResultCache, ResultStore, ServeConfig, ServerThread
from repro.serve.protocol import PredictRequest

from .conftest import request

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def xsbench_cell():
    """One scalar-priced cell as the bit-identity oracle."""
    body = {"app": "XSBench", "model": "OpenCL", "platform": "dgpu",
            "precision": "single", "scale": "bench"}
    req = PredictRequest.from_json(body)
    baseline_spec, model_spec = req.specs()
    policy = RetryPolicy(max_attempts=2)
    baseline = run_with_retry(baseline_spec, policy).result
    model = run_with_retry(model_spec, policy).result
    return body, model_spec, baseline, model


# -- round trip and layout ---------------------------------------------


def test_put_get_round_trip_is_bit_identical(tmp_path, xsbench_cell):
    _body, spec, _baseline, result = xsbench_cell
    store = ResultStore(tmp_path)
    key = spec.content_key()
    assert store.put(key, result, label=spec.label)
    loaded = store.get(key)
    assert loaded == result  # frozen dataclasses: exact float equality
    assert loaded.seconds == result.seconds
    assert loaded.counters == result.counters
    assert store.snapshot().hits == 1


def test_keys_len_contains(tmp_path):
    store = ResultStore(tmp_path)
    keys = [_key(f"entry-{i}") for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, {"i": i})
    assert sorted(store.keys()) == sorted(keys)
    assert len(store) == 3
    assert keys[0] in store
    assert _key("absent") not in store


def test_first_write_wins(tmp_path):
    store = ResultStore(tmp_path)
    key = _key("contested")
    assert store.put(key, {"writer": "first"}) is True
    assert store.put(key, {"writer": "second"}) is False
    assert store.get(key) == {"writer": "first"}


# -- torn / corrupt tolerance ------------------------------------------


def test_truncated_entry_reads_as_miss_and_is_repaired(tmp_path):
    store = ResultStore(tmp_path)
    key = _key("torn")
    store.put(key, {"value": 42})
    path = store.path_for(key)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # a torn write
    assert store.get(key) is None
    assert not path.exists()  # defective file unlinked
    assert store.snapshot().corrupt == 1
    # The next write repairs the entry.
    assert store.put(key, {"value": 43}) is True
    assert store.get(key) == {"value": 43}


def test_garbage_bytes_read_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    key = _key("garbage")
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x00\xffnot json at all")
    assert store.get(key) is None
    assert store.snapshot().corrupt == 1


def test_tampered_payload_fails_the_checksum(tmp_path):
    store = ResultStore(tmp_path)
    key = _key("tampered")
    store.put(key, {"value": 1})
    path = store.path_for(key)
    doc = json.loads(path.read_text())
    doc["payload"] = doc["payload"][:-8] + "AAAAAAA="
    path.write_text(json.dumps(doc))
    assert store.get(key) is None


def test_entry_filed_under_the_wrong_key_is_rejected(tmp_path):
    store = ResultStore(tmp_path)
    key, wrong = _key("right"), _key("wrong")
    store.put(key, {"value": 1})
    target = store.path_for(wrong)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(store.path_for(key).read_bytes())
    assert store.get(wrong) is None  # key field mismatch == corrupt


def test_previous_format_entry_is_repriced_and_rewritten(tmp_path, xsbench_cell):
    # A version 1 entry pickled a result whose counters carried
    # per-launch records: it reads as a miss, is priced afresh and
    # rewritten in the current format.
    from repro.serve.store import STORE_FORMAT

    _body, spec, _baseline, result = xsbench_cell
    store = ResultStore(tmp_path)
    key = spec.content_key()
    store.put(key, result, label=spec.label)
    path = store.path_for(key)
    doc = json.loads(path.read_text())
    doc["format"] = "repro-result-store/1"
    path.write_text(json.dumps(doc))
    assert store.get(key) is None
    calls = []
    value, source = store.fetch_or_compute(key, lambda: calls.append(1) or result)
    assert (source, calls, value) == ("computed", [1], result)
    assert json.loads(path.read_text())["format"] == STORE_FORMAT == "repro-result-store/2"
    assert store.get(key) == result


# -- single-flight ------------------------------------------------------


def test_fetch_or_compute_computes_once_then_serves_from_disk(tmp_path):
    store = ResultStore(tmp_path)
    key = _key("once")
    calls = []
    value, source = store.fetch_or_compute(key, lambda: calls.append(1) or {"n": 1})
    assert source == "computed" and value == {"n": 1}
    value, source = store.fetch_or_compute(key, lambda: calls.append(1) or {"n": 2})
    assert source == "store" and value == {"n": 1}
    assert len(calls) == 1


def test_stale_lock_is_broken(tmp_path):
    store = ResultStore(tmp_path, lock_timeout_s=10.0, lock_stale_s=0.05)
    key = _key("dead-leader")
    assert store._try_lock(key)  # a leader that died without unlocking
    lock = store._lock_path(key)
    old = lock.stat().st_mtime - 60
    os.utime(lock, (old, old))
    value, source = store.fetch_or_compute(key, lambda: {"n": 3})
    assert source == "computed" and value == {"n": 3}


_DYING_LEADER_CHILD = textwrap.dedent("""
    import os, sys
    from repro.serve.store import ResultStore

    root, key = sys.argv[1], sys.argv[2]
    assert ResultStore(root)._try_lock(key)
    os._exit(9)  # dies mid-compute, lock file left behind
""")


def test_follower_breaks_a_dead_leaders_lock_and_computes_once(tmp_path):
    """A leader that really dies (O_EXCL lock held, process gone) must
    not wedge the key: a follower waits out ``lock_stale_s``, breaks
    the orphaned lock, elects itself leader, and computes exactly once.
    """
    key = _key("dying-leader")
    env = {**os.environ, "PYTHONPATH": _SRC}
    child = subprocess.run(
        [sys.executable, "-c", _DYING_LEADER_CHILD, str(tmp_path), key],
        env=env, timeout=120,
    )
    assert child.returncode == 9
    store = ResultStore(tmp_path, lock_timeout_s=30.0, lock_stale_s=0.2)
    assert store._lock_path(key).exists()  # the orphan is really there

    calls = []
    value, source = store.fetch_or_compute(
        key, lambda: calls.append(1) or {"n": 42}
    )
    assert (value, source) == ({"n": 42}, "computed")
    assert calls == [1]  # exactly one compute
    assert not store._lock_path(key).exists()  # broken and released
    value, source = store.fetch_or_compute(key, lambda: calls.append(1) or {})
    assert (value, source) == ({"n": 42}, "store")
    assert calls == [1]
    assert store.snapshot().lock_waits >= 1


_SINGLE_FLIGHT_CHILD = textwrap.dedent("""
    import os, sys, time
    from repro.serve.store import ResultStore

    root, key = sys.argv[1], sys.argv[2]
    store = ResultStore(root)

    def compute():
        time.sleep(0.3)
        return {"pid": os.getpid()}

    _value, source = store.fetch_or_compute(key, compute)
    print(source)
""")


def test_cross_process_single_flight_elects_one_leader(tmp_path):
    """Four processes race one key; exactly one computes."""
    key = _key("cross-process")
    env = {**os.environ, "PYTHONPATH": _SRC}
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _SINGLE_FLIGHT_CHILD, str(tmp_path), key],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(4)
    ]
    sources = []
    for child in children:
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        sources.append(out.strip())
    assert sources.count("computed") == 1
    assert sources.count("store") == 3
    assert len(ResultStore(tmp_path)) == 1


_WRITER_CHILD = textwrap.dedent("""
    import sys
    from repro.serve.store import ResultStore

    root, key, tag = sys.argv[1], sys.argv[2], sys.argv[3]
    ResultStore(root).put(key, {"writer": tag})
""")


def test_concurrent_multi_process_writers_leave_one_valid_entry(tmp_path):
    """Racing writers never produce a torn or mixed entry."""
    key = _key("many-writers")
    env = {**os.environ, "PYTHONPATH": _SRC}
    tags = [f"writer-{i}" for i in range(6)]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_CHILD, str(tmp_path), key, tag],
            env=env,
        )
        for tag in tags
    ]
    for child in children:
        assert child.wait(timeout=120) == 0
    store = ResultStore(tmp_path)
    assert len(store) == 1
    value = store.get(key)
    assert value is not None and value["writer"] in tags


# -- the tiered cache ---------------------------------------------------


def test_persistent_cache_tiers_memory_over_store(tmp_path):
    store = ResultStore(tmp_path)
    cache = PersistentResultCache(store)
    key = _key("tiers")
    assert cache.peek_tiered(key) == (None, None)
    store.put(key, {"n": 7})
    value, source = cache.peek_tiered(key)
    assert (value, source) == ({"n": 7}, "store")
    # The disk hit was seeded into memory for next time.
    assert cache.peek_tiered(key) == ({"n": 7}, "memory")


def test_persistent_cache_persists_computed_values(tmp_path):
    store = ResultStore(tmp_path)
    cache = PersistentResultCache(store)
    key = _key("persisted")
    assert cache.get_or_compute(key, lambda: {"n": 9}) == {"n": 9}
    # A brand-new cache over the same directory sees it: a restart.
    fresh = PersistentResultCache(ResultStore(tmp_path))
    assert fresh.peek_tiered(key) == ({"n": 9}, "store")


def test_load_store_requires_no_lock_files(tmp_path):
    """A pure load never creates lock state (read-only boot path)."""
    store = ResultStore(tmp_path)
    store.put(_key("resident"), {"n": 1})
    cache = SingleFlightCache()
    from repro.serve.warmup import load_store

    assert load_store(cache, store) == 1
    assert not (tmp_path / "locks").exists()


# -- restart bit-identity (the zero-cold-start guarantee) ---------------


def test_restart_serves_warm_and_bit_identical_to_scalar_oracle(
    tmp_path, xsbench_cell
):
    """Boot, price, stop; boot again over the same store: the second
    process answers from disk — no recompute — with bytes equal to the
    scalar retry-ladder oracle."""
    body, _spec, baseline, model = xsbench_cell
    config = ServeConfig(store_path=str(tmp_path), warm="load")
    with ServerThread(config) as thread:
        status, _headers, cold = request(thread, "POST", "/v1/predict", body)
        assert status == 200
        assert cold["provenance"]["model"] == "computed"
    # A fresh process: new memory cache, same store directory.
    with ServerThread(config) as thread:
        status, _headers, warm = request(thread, "POST", "/v1/predict", body)
        assert status == 200
        # Zero cold misses: every constituent run came from cache/store.
        assert set(warm["provenance"].values()) <= {"cache", "store"}
        assert warm["seconds"] == model.seconds
        assert warm["kernel_seconds"] == model.kernel_seconds
        assert warm["baseline_seconds"] == baseline.seconds
        assert warm["speedup"] == speedup(baseline.seconds, model.seconds)
        # The whole document matches bit for bit, provenance aside.
        assert {k: v for k, v in warm.items() if k != "provenance"} == \
            {k: v for k, v in cold.items() if k != "provenance"}


def test_warm_none_still_hits_the_store_lazily(tmp_path, xsbench_cell):
    body, _spec, _baseline, model = xsbench_cell
    with ServerThread(
        ServeConfig(store_path=str(tmp_path), warm="none")
    ) as thread:
        request(thread, "POST", "/v1/predict", body)
    with ServerThread(
        ServeConfig(store_path=str(tmp_path), warm="none")
    ) as thread:
        _status, _headers, doc = request(thread, "POST", "/v1/predict", body)
        # No boot-time seeding, so the first touch reads the disk tier.
        assert "computed" not in doc["provenance"].values()
        assert "store" in doc["provenance"].values()
        assert doc["seconds"] == model.seconds
