"""``study-paper`` and ``sweep-dense``: fresh program processes, each
one ``repro`` invocation from a cold start, until the run's seconds
are spent."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from . import layers, stats

#: Set-up samples per run: extra ``--setup-only`` children top the
#: measuring children up to this count.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class Child:
    def __init__(self, report: dict, spawned: float, pid: int) -> None:
        self.report = report
        self.setup_s = report["ready"] - spawned
        self.pid = pid
        self.spans: dict | None = None


def _spawn(ctx, workload: str, seed: int, setup_only: bool = False,
           trace_dir: Path | None = None) -> Child:
    argv = [sys.executable, str(ctx.bench_dir / "study_child.py"),
            "--workload", workload, "--seed", str(seed)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ctx.root, env=ctx.program_env(trace_dir),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} child timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed ({proc.returncode}):\n{err[-2000:]}")
    return Child(json.loads(out.strip().splitlines()[-1]), spawned, proc.pid)


def _expected(ctx, workload: str, seed: int) -> str:
    from .studies import sweep_variant

    reference = ctx.reference[workload]
    return reference if workload == "study-paper" else reference[str(sweep_variant(seed))]


def _summarize(children: list[Child], expected: str) -> dict:
    cells = sum(c.report["cells"] for c in children)
    work_s = sum(sum(c.report["latencies_s"]) for c in children)
    bad = [c for c in children
           if c.report["digest"] != expected or c.report["failures"]]
    failed = sum(c.report["cells"] for c in bad)
    # One latency sample per invocation: the whole study or sweep.
    latencies = [sum(c.report["latencies_s"]) * 1e3 for c in children]
    p99, q = stats.tail(latencies)
    return {
        "cells": cells,
        "failed": failed,
        "work_s": work_s,
        "cells_per_s": (cells - failed) / work_s,
        "cpu_ms_per_cell": sum(c.report["cpu_s"] for c in children) * 1e3 / cells,
        "peak_rss_mb": max(c.report["peak_rss_mb"] for c in children),
        "p50_ms": stats.median(latencies),
        "p99_ms": p99,
        "p99_quantile": q,
        "latency_samples": len(latencies),
        "digests_ok": not bad,
    }


def run(ctx, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = _expected(ctx, workload, seed)
    plain: list[Child] = []
    traced: list[Child] = []
    started = time.perf_counter()
    # Traced runs alternate untraced and traced invocations and stop at
    # half the seconds, so both kinds of run last about as long.
    budget = seconds / 2 if trace else seconds
    while not plain or time.perf_counter() - started < budget:
        plain.append(_spawn(ctx, workload, seed))
        if trace:
            trace_dir = ctx.fresh_dir("spans")
            child = _spawn(ctx, workload, seed, trace_dir=trace_dir)
            child.spans = layers.load_spans(trace_dir).get(child.pid)
            if child.spans is None:
                raise RuntimeError("traced child wrote no spans")
            traced.append(child)
    setups = [c.setup_s for c in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(ctx, workload, seed, setup_only=True).setup_s)

    summary = _summarize(plain, expected)
    detail = {"untraced": summary, "setup_samples_s": setups}
    correct = summary["digests_ok"]
    attempted, failed = summary["cells"], summary["failed"]
    if not trace:
        metrics = {
            "cells_per_s": summary["cells_per_s"],
            "cpu_ms_per_cell": summary["cpu_ms_per_cell"],
            "peak_rss_mb": summary["peak_rss_mb"],
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "success_rate": (attempted - failed) / attempted,
            "setup_s": stats.median(setups),
        }
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics, "detail": detail}

    traced_summary = _summarize(traced, expected)
    correct = correct and traced_summary["digests_ok"]
    attempted += traced_summary["cells"]
    failed += traced_summary["failed"]
    totals = layers.merge_totals(
        layers.span_totals(c.spans["spans"], c.report["work_start"], c.report["work_end"])
        for c in traced
    )
    metrics = dict.fromkeys((name for name, _unit in layers.PER_LAYER), 0.0)
    metrics.update(layers.span_layers(totals, per=len(traced)))
    kernel = [sum(c.report["caches"]["kernel"][i] for c in traced) for i in (0, 1)]
    plan = [sum(c.report["caches"]["plan"][i] for c in traced) for i in (0, 1)]
    metrics["engine.kernel_cache_hit_ratio"] = layers.ratio(*kernel)
    metrics["engine.plan_cache_hit_ratio"] = layers.ratio(*plan)
    # Every span nests inside a root ``core.run_*`` span that covers the
    # timed call, so self times always sum to the wall time.  What can
    # go wrong is attribution: time in an unwrapped call lands in the
    # self time of the catch-all spans, and that share is the error.
    wall = traced_summary["work_s"]
    tiling = layers.self_total(totals, layers.CATCH_ALL) / wall
    metrics["trace.tiling_error"] = tiling
    per_wall = wall / len(traced)
    detail["wall_shares"] = {
        name: value / per_wall for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith(("serve.", "store."))
    }
    # Columnar pricing plus whole scalar runs (port, timing and run).
    detail["wall_shares"]["pricing"] = sum(
        totals[name][0] for name in ("engine.price_cell", "exec.execute_run")
        if name in totals) / wall
    detail["unwrapped"] = sorted({m for c in traced for m in c.spans["missing"]})
    metrics["trace.overhead_share"] = 1 - traced_summary["cells_per_s"] / summary["cells_per_s"]
    metrics["trace.cpu_overhead_share"] = (
        traced_summary["cpu_ms_per_cell"] / summary["cpu_ms_per_cell"] - 1
    )
    detail["traced"] = traced_summary
    detail["layer_totals"] = totals
    detail["tiling_within_limit"] = tiling <= ctx.tiling_limit
    return {"correct": correct and detail["tiling_within_limit"], "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}
