"""Metric vocabulary and the span arithmetic behind the per-layer numbers.

``END_TO_END`` and ``PER_LAYER`` are the names and units
``BENCHMARK.json`` declares; ``run.py`` refuses to start if the two
disagree.  A per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

END_TO_END = (
    ("cells_per_s", "1/s"),
    ("cpu_ms_per_cell", "ms"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("success_rate", "share"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("engine.capture_s", "s"),
    ("engine.capture_calls", "count"),
    ("apps.port_s", "s"),
    ("engine.lift_s", "s"),
    ("engine.price_s", "s"),
    ("engine.price_calls", "count"),
    ("engine.timing_vec_s", "s"),
    ("engine.fold_s", "s"),
    ("engine.kernel_cache_hit_ratio", "ratio"),
    ("engine.timing_scalar_s", "s"),
    ("engine.timing_scalar_calls", "count"),
    ("exec.scalar_run_s", "s"),
    ("exec.scalar_runs", "count"),
    ("exec.plan_s", "s"),
    ("exec.execute_self_s", "s"),
    ("exec.bookkeeping_s", "s"),
    ("core.reassemble_s", "s"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("serve.handle_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.batch_wait_p50_ms", "ms"),
    ("serve.serialize_p50_ms", "ms"),
    ("serve.batch_size_mean", "cells"),
    ("serve.shed", "count"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.price_s", "s"),
    ("serve.computed_share", "share"),
    ("store.write_s", "s"),
    ("store.writes", "count"),
    ("serve.warm_s", "s"),
    ("store.read_s", "s"),
    ("serve.oor_requests", "count"),
    ("serve.oor_mishandled", "count"),
    ("trace.tiling_error", "share"),
    ("trace.overhead_share", "share"),
    ("trace.cpu_overhead_share", "share"),
)


#: Spans whose self time is the time no narrower layer span covers.
#: Anything the hook does not wrap lands here, so traced runs bound it.
EXECUTE_SELF = ("exec.execute", "engine.execute_vector", "exec.run_with_retry",
                "engine.price_specs")
REASSEMBLE = ("core.run_study", "core.run_sweep")
CATCH_ALL = EXECUTE_SELF + REASSEMBLE


def check_declared(benchmark_json: Path) -> int:
    """Fail unless ``BENCHMARK.json`` declares exactly these metrics;
    its ``run_seconds``."""
    doc = json.loads(benchmark_json.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in doc[key]]
        if declared != list(ours):
            raise SystemExit(f"BENCHMARK.json {key} does not match bench/layers.py")
    return doc["run_seconds"]


def load_spans(directory: Path) -> dict[int, dict]:
    """pid -> the span dump one traced process wrote at exit."""
    dumps = {}
    for path in sorted(directory.glob("spans-*.json")):
        doc = json.loads(path.read_text())
        dumps[doc["pid"]] = doc
    return dumps


def span_totals(spans, start: float, end: float) -> dict[str, list[float]]:
    """name -> [inclusive s, self s, calls] over spans starting in
    ``[start, end)``."""
    totals: dict[str, list[float]] = {}
    for name, s0, s1, self_s, _sid, _parent in spans:
        if not start <= s0 < end:
            continue
        row = totals.setdefault(name, [0.0, 0.0, 0])
        row[0] += s1 - s0
        row[1] += self_s
        row[2] += 1
    return totals


def merge_totals(parts) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(name, [0.0, 0.0, 0])
            for i in range(3):
                into[i] += row[i]
    return merged


def span_layers(totals: dict[str, list[float]], per: float) -> dict[str, float]:
    """Per-layer engine/exec/core metrics from span totals, divided by
    ``per`` (invocations for the offline workloads, 1 for serving)."""

    def inc(name):
        return totals.get(name, [0.0, 0.0, 0])[0] / per

    def own(*names):
        return sum(totals.get(n, [0.0, 0.0, 0])[1] for n in names) / per

    def calls(name):
        return totals.get(name, [0.0, 0.0, 0])[2] / per

    return {
        "engine.capture_s": inc("engine.capture"),
        "engine.capture_calls": calls("engine.capture"),
        "apps.port_s": own("apps.port"),
        "engine.lift_s": own("engine.capture"),
        "engine.price_s": inc("engine.price_cell"),
        "engine.price_calls": calls("engine.price_cell"),
        "engine.timing_vec_s": inc("engine.timing_vec"),
        "engine.fold_s": own("engine.price_cell"),
        "engine.timing_scalar_s": inc("engine.timing_scalar"),
        "engine.timing_scalar_calls": calls("engine.timing_scalar"),
        "exec.scalar_run_s": own("exec.execute_run"),
        "exec.scalar_runs": calls("exec.execute_run"),
        "exec.plan_s": inc("exec.plan"),
        "exec.execute_self_s": own(*EXECUTE_SELF),
        "exec.bookkeeping_s": own("exec.envelope", "exec.tally"),
        "core.reassemble_s": own(*REASSEMBLE),
        "serve.price_s": inc("engine.price_specs"),
        "store.write_s": inc("store.write"),
        "serve.warm_s": inc("serve.warm"),
        "store.read_s": inc("store.read"),
    }


def self_total(totals: dict[str, list[float]], names) -> float:
    """Summed self time of the spans ``names``."""
    return sum(totals[n][1] for n in names if n in totals)


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
