"""Chaos-drill report logic (pure; the live drill runs in CI's
chaos-serve smoke and via ``repro loadtest --chaos``)."""

import json

from repro.serve.chaos import ChaosReport, _metric_total, chaos_bodies
from repro.serve.loadgen import LoadResult


def _report(**overrides) -> ChaosReport:
    base = dict(
        plan="crash:0.004", seed=7, shards=2, store="/tmp/s",
        max_error_rate=0.01,
        load=LoadResult(mode="closed", duration_s=5.0, concurrency=4, rate=None),
        checked=100, mismatches=0, checker_requests=100,
        status_counts={"200": 100},
        respawns=2.0, breaker_opens=1.0, converged=True, cold_misses=0,
    )
    base.update(overrides)
    return ChaosReport(**base)


def test_passing_report_has_no_failures():
    report = _report()
    assert report.ok
    assert report.failures() == []
    row = report.row()
    assert row["converged"] == 1 and row["mismatches"] == 0
    assert "PASS" in report.summary()


def test_each_invariant_violation_is_named():
    assert "wrong answers" in "".join(_report(mismatches=1).failures())
    assert "converge" in "".join(_report(converged=False).failures())
    assert "cold misses" in "".join(_report(cold_misses=3).failures())
    assert "respawn" in "".join(_report(respawns=0.0).failures())
    assert "breaker" in "".join(_report(breaker_opens=0.0).failures())
    assert "post-recovery" in "".join(_report(final_mismatches=2).failures())


def test_error_rate_counts_non_2xx_and_transport_failures():
    load = LoadResult(mode="closed", duration_s=5.0, concurrency=4, rate=None)
    load.requests, load.errors = 100, 2
    report = _report(
        load=load, checker_requests=100,
        status_counts={"200": 95, "503": 4, "429": 1},
    )
    assert report.requests == 200
    assert report.errors == 2 + 5
    assert report.error_rate == 7 / 200
    assert report.disallowed == 0  # 429 is inside the contract
    failures = "".join(report.failures())
    assert "error rate" in failures


def test_4xx_other_than_429_is_disallowed():
    report = _report(status_counts={"200": 99, "404": 1})
    assert report.disallowed == 1
    assert "contract" in "".join(report.failures())


def test_chaos_bodies_cover_the_model_lattice():
    bodies = chaos_bodies()
    assert len(bodies) == 12
    assert len({json.dumps(b, sort_keys=True) for b in bodies}) == 12
    assert all(b["app"] == "XSBench" and b["scale"] == "bench" for b in bodies)


def test_metric_total_sums_families_and_filters_labels():
    text = "\n".join([
        "# HELP repro_shard_respawns_total respawns",
        "# TYPE repro_shard_respawns_total counter",
        'repro_shard_respawns_total{shard="0",reason="died"} 2',
        'repro_shard_respawns_total{shard="1",reason="hung"} 1',
        'repro_shard_respawns_total_created{shard="0"} 99',  # not the family
        'repro_router_breaker_transitions_total{shard="0",to="open"} 3',
        'repro_router_breaker_transitions_total{shard="0",to="closed"} 3',
    ])
    assert _metric_total(text, "repro_shard_respawns_total") == 3.0
    assert _metric_total(
        text, "repro_router_breaker_transitions_total", 'to="open"'
    ) == 3.0
    assert _metric_total(text, "repro_router_degraded_total") == 0.0
