"""The self-healing tier, live: kill, crash-loop, quarantine, repair.

One module-scoped two-shard tier with drill-speed supervision (50 ms
probes, tens-of-ms backoff, a two-attempt quarantine window) so the
whole recovery ladder runs in seconds.  Throughout every test the
correctness bar is absolute: any 200 must carry exactly the same
numbers as the first (healthy) answer — failures may slow the tier
down or degrade its provenance, never change its arithmetic.
"""

import time

import pytest

from repro.serve import RouterConfig, ServeConfig, ShardedTier, shard_for_key
from repro.serve.faults import ENV_SERVE_FAULTS
from repro.serve.protocol import PredictRequest
from repro.serve.supervise import SupervisionPolicy

from .conftest import request

FAST_POLICY = SupervisionPolicy(
    probe_interval_s=0.05,
    probe_timeout_s=0.5,
    probe_failures=2,
    backoff_base_s=0.01,
    backoff_factor=2.0,
    backoff_cap_s=0.05,
    quarantine_after=2,
    quarantine_window_s=8.0,
    quarantine_cooldown_s=0.8,
)

FAST_ROUTER = RouterConfig(deadline_s=2.0, breaker_reset_s=0.25)

#: The comparable numbers of a predict response.
FIELDS = ("seconds", "kernel_seconds", "baseline_seconds",
          "speedup", "kernel_speedup", "key")


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    config = ServeConfig(
        store_path=str(tmp_path_factory.mktemp("store")),
        warm="load",
    )
    with ShardedTier(
        config, shards=2, router=FAST_ROUTER, policy=FAST_POLICY
    ) as tier:
        yield tier


def _cell_owned_by(shard: int) -> dict:
    """A predict body whose model spec routes to the given shard."""
    from repro.core.study import GPU_MODELS

    for model in GPU_MODELS:
        for platform in ("apu", "dgpu"):
            for precision in ("single", "double"):
                cell = {"app": "XSBench", "model": model, "platform": platform,
                        "precision": precision, "scale": "bench"}
                spec = PredictRequest.from_json(cell).specs()[1]
                if shard_for_key(spec.content_key(), 2) == shard:
                    return cell
    raise AssertionError(f"no XSBench cell routes to shard {shard}")


def _member(tier, shard: int) -> dict:
    status, _headers, doc = request(tier, "GET", "/v1/shards")
    assert status == 200
    return next(m for m in doc["shards"] if m["shard"] == shard)


def _predict_expecting(tier, cell: dict, expected: dict | None) -> dict:
    """One predict that must succeed and must not change its numbers."""
    status, _headers, doc = request(tier, "POST", "/v1/predict", cell)
    assert status == 200, doc
    if expected is not None:
        got = {name: doc[name] for name in FIELDS}
        assert got == expected
    return doc


def _wait_until(tier, cell, predicate, timeout_s: float, expected) -> None:
    """Drive predict traffic (checked for bit-identity) until the shard
    listing satisfies the predicate; supervision and breakers need live
    traffic to make progress observable."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _predict_expecting(tier, cell, expected)
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"tier did not reach the expected state in {timeout_s} s")


def test_shard_listing_reports_health_and_breaker_detail(tier):
    status, _headers, doc = request(tier, "GET", "/v1/shards")
    assert status == 200
    for member in doc["shards"]:
        assert member["state"] == "serving"
        assert member["alive"]
        assert member["respawns"] == 0
        assert member["quarantines"] == 0
        assert member["breaker"]["state"] == "closed"
        assert member["breaker"]["opens"] == 0


def test_killed_shard_respawns_and_range_is_served_meanwhile(tier):
    shard = 0
    cell = _cell_owned_by(shard)
    expected = {
        name: _predict_expecting(tier, cell, None)[name] for name in FIELDS
    }

    tier.supervisor._shards[shard].process.kill()

    # Until the supervisor's replacement is up, the owner's key range
    # keeps answering — degraded local pricing behind the breaker —
    # with exactly the same numbers.
    _wait_until(
        tier, cell,
        lambda: (
            _member(tier, shard)["respawns"] >= 1
            and _member(tier, shard)["state"] == "serving"
        ),
        timeout_s=60.0, expected=expected,
    )
    # And the router re-homes: direct calls resume and the breaker closes.
    _wait_until(
        tier, cell,
        lambda: _member(tier, shard)["breaker"]["state"] == "closed",
        timeout_s=30.0, expected=expected,
    )


def test_crash_loop_is_quarantined_then_rehabilitated(tier, monkeypatch):
    shard = 1
    cell = _cell_owned_by(shard)
    expected = {
        name: _predict_expecting(tier, cell, None)[name] for name in FIELDS
    }

    # Arm a crash-every-request plan for this shard in the tier's
    # environment: the *currently running* generation was spawned
    # disarmed, but every respawn inherits the environment — exactly
    # how a bad deploy keeps crashing its replacements.
    monkeypatch.setenv(ENV_SERVE_FAULTS, f"crash:1,shard:{shard}")
    tier.supervisor._shards[shard].process.kill()

    _wait_until(
        tier, cell,
        lambda: _member(tier, shard)["state"] == "quarantined",
        timeout_s=90.0, expected=expected,
    )
    member = _member(tier, shard)
    assert member["quarantines"] >= 1
    assert member["respawns"] >= 1

    # Roll the bad deploy back: the next probation respawn boots clean
    # and fully rehabilitates the shard.
    monkeypatch.delenv(ENV_SERVE_FAULTS)
    _wait_until(
        tier, cell,
        lambda: (
            _member(tier, shard)["state"] == "serving"
            and _member(tier, shard)["breaker"]["state"] == "closed"
        ),
        timeout_s=90.0, expected=expected,
    )


def test_admin_chaos_corrupt_forces_detect_recompute_repair(tier):
    cell = _cell_owned_by(0)
    expected_doc = _predict_expecting(tier, cell, None)
    expected = {name: expected_doc[name] for name in FIELDS}

    status, _headers, doc = request(
        tier, "POST", "/v1/admin/chaos", {"plan": "corrupt:1,limit:1"}
    )
    assert status == 200
    armed = [entry for entry in doc["shards"] if entry.get("status") == 200]
    assert armed, doc

    # The doomed request scribbles the cell's store entry and evicts the
    # memory copy — then answers it anyway, bit-identically, by
    # detecting the damage, recomputing, and repairing the file.
    doc = _predict_expecting(tier, cell, expected)
    assert doc["provenance"]["model"] == "computed"

    # Disarm (empty plan) and confirm the repaired entry serves warm.
    status, _headers, _doc = request(tier, "POST", "/v1/admin/chaos", {})
    assert status == 200
    doc = _predict_expecting(tier, cell, expected)
    assert doc["provenance"]["model"] in ("cache", "store")
