"""``serve-mixed``: ``repro serve`` processes driven closed-loop by the
benchmark's own load generator, every 2xx answer checked against the
scalar oracle once the measured window has closed."""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from . import layers, loadgen, prom, stats
from .launch import ServeProcess

GPU_MODELS = ("OpenCL", "C++ AMP", "OpenACC")
#: Legal (core, memory) MHz ranges of the two paper platforms' GPUs.
CLOCK_DOMAINS = {
    "apu": ((200.0, 720.0), (333.0, 1066.0)),
    "dgpu": ((200.0, 1050.0), (480.0, 1500.0)),
}
#: serve-mixed: one request in every ``COLD_EVERY`` is a cold predict,
#: at a seeded place in its block, so every prefix of the sequence has
#: the same share.  At 2% the p99 sits near the median cold request.
COLD_EVERY = 50
#: Out-of-range probes sent after each boot's measured window.
PROBES_PER_BOOT = 20
#: Boots per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _cell_key(doc: dict) -> tuple:
    return (doc["app"], doc["model"], doc["platform"], doc["precision"])


class Reference:
    """The committed scalar-oracle prices of the preset lattice."""

    def __init__(self, presets: list[dict]) -> None:
        self.cells = [{k: p[k] for k in ("app", "model", "platform", "precision")}
                      for p in presets]
        self.prices = {
            _cell_key(p): tuple(float.fromhex(p[k]) for k in ("seconds", "kernel_seconds", "joules"))
            for p in presets
        }
        self.gpu_cells = [c for c in self.cells
                          if c["model"] in GPU_MODELS and c["platform"] in CLOCK_DOMAINS]

    def baseline(self, cell: dict) -> float:
        return self.prices[(cell["app"], "OpenMP", cell["platform"], cell["precision"])][0]


def mixed_requests(ref: Reference, seed: int):
    """The endless seeded predict sequence: ``(kind, cell)`` with kind
    ``"warm"`` (a preset cell) or ``"cold"`` (a GPU cell at a clock pair
    not sent before)."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    while True:
        cold_at = rng.randrange(COLD_EVERY)
        for slot in range(COLD_EVERY):
            if slot != cold_at:
                yield "warm", dict(rng.choice(ref.cells), scale="bench")
                continue
            cell = dict(rng.choice(ref.gpu_cells), scale="bench")
            (core_lo, core_hi), (mem_lo, mem_hi) = CLOCK_DOMAINS[cell["platform"]]
            while True:
                core = round(rng.uniform(core_lo, core_hi), 1)
                memory = round(rng.uniform(mem_lo, mem_hi), 1)
                if (_cell_key(cell), core, memory) not in seen:
                    seen.add((_cell_key(cell), core, memory))
                    break
            cell.update(core_mhz=core, memory_mhz=memory)
            yield "cold", cell


def oor_probes(ref: Reference, seed: int) -> list[dict]:
    """Cells whose core clock is above the platform's range; half of
    them also name a valid memory clock."""
    rng = random.Random(f"probes-{seed}")
    probes = []
    for _ in range(PROBES_PER_BOOT):
        cell = dict(rng.choice(ref.gpu_cells), scale="bench")
        (_core_lo, core_hi), (mem_lo, mem_hi) = CLOCK_DOMAINS[cell["platform"]]
        cell["core_mhz"] = round(core_hi + rng.uniform(50.0, 500.0), 1)
        if rng.random() < 0.5:
            cell["memory_mhz"] = round(rng.uniform(mem_lo, mem_hi), 1)
        probes.append(cell)
    return probes


async def _probe(url: str, probes: list[dict]) -> list[int | None]:
    """Send the out-of-range probes one at a time; their statuses."""
    conn = loadgen.connect(url)
    statuses = []
    for cell in probes:
        status, _body = await conn.request("POST", "/v1/predict", json.dumps(cell).encode())
        statuses.append(status)
    conn.close()
    return statuses


class Oracle:
    """Scalar-oracle prices: committed for the preset lattice, computed
    here with ``repro.exec.retry.run_with_retry`` for clock overrides."""

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self.computed: dict[tuple, tuple] = {}

    def prices(self, cell: dict) -> tuple[float, float, float]:
        if "core_mhz" not in cell:
            return self.ref.prices[_cell_key(cell)]
        key = (*_cell_key(cell), cell["core_mhz"], cell["memory_mhz"])
        if key not in self.computed:
            from repro.core.configs import bench_configs
            from repro.exec.plan import RunSpec
            from repro.exec.retry import RetryPolicy, run_with_retry
            from repro.hardware.specs import Precision

            spec = RunSpec(
                cell["app"], cell["model"], cell["platform"], Precision(cell["precision"]),
                bench_configs()[cell["app"]], projection=True,
                core_mhz=cell["core_mhz"], memory_mhz=cell["memory_mhz"],
            )
            outcome = run_with_retry(spec, RetryPolicy())
            result = outcome.result
            self.computed[key] = (result.seconds, result.kernel_seconds, result.joules)
        return self.computed[key]

    def prefetch(self, cells: list[dict]) -> None:
        """Price clock-override cells grouped by app, so the program's
        problem-setup cache is reused instead of rebuilt per cell."""
        for cell in sorted(cells, key=lambda c: (c["app"], c["precision"], c["platform"], c["model"])):
            self.prices(cell)

    def predict_ok(self, cell: dict, doc: dict) -> bool:
        seconds, kernel, joules = self.prices(cell)
        base = self.ref.baseline(cell)
        return (doc["seconds"], doc["kernel_seconds"], doc["baseline_seconds"],
                doc["speedup"], doc["kernel_speedup"], doc["joules"], doc["edp"]) == (
                seconds, kernel, base, base / seconds, base / kernel, joules, joules * seconds)


def _phase(ctx, seed: int, seconds: float, ref: Reference, traced: bool,
           cpu: set) -> dict:
    """Boot one server, measure one window, stop it; raw observations."""
    trace_dir = ctx.fresh_dir("spans") if traced else None
    inputs: list[tuple[str, dict]] = []

    def bodies():
        for kind, cell in mixed_requests(ref, seed):
            inputs.append((kind, cell))
            yield json.dumps(cell).encode()

    server = ServeProcess(ctx, cpu, trace_dir).start()
    try:
        before = prom.scrape(server.url)
        cpu_before = server.cpu_seconds()
        window_start = time.perf_counter()
        samples, t0 = asyncio.run(loadgen.closed_loop(
            server.url, "/v1/predict", bodies(), seconds))
        window_end = time.perf_counter()
        cpu_s = server.cpu_seconds() - cpu_before
        after = prom.scrape(server.url)
        rss = server.peak_rss_mb()
        probe_statuses = asyncio.run(_probe(server.url, oor_probes(ref, seed)))
    finally:
        server.stop()
    return {
        "inputs": inputs, "samples": samples, "t0": t0,
        "window": (window_start, window_end),
        "cpu_s": cpu_s, "peak_rss_mb": rss, "setup_s": server.setup_s,
        "metrics_delta": prom.delta(after, before),
        "spans": layers.load_spans(trace_dir) if traced else None,
        "probe_statuses": probe_statuses,
    }


def _evaluate(phases: list[dict], oracle: Oracle) -> dict:
    """Check every answer; end-to-end numbers pooled over the phases."""
    latencies: list[float] = []
    probes: list[int | None] = []
    attempted = ok = mismatched = computed = cold = 0
    wall = 0.0
    for phase in phases:
        probes += phase["probe_statuses"]
        inputs = phase["inputs"]
        oracle.prefetch([inputs[s.index][1] for s in phase["samples"]
                         if s.status == 200 and inputs[s.index][0] == "cold"])
        for sample in phase["samples"]:
            latencies.append((sample.done - sample.sent) * 1e3)
            attempted += 1
            cold += inputs[sample.index][0] == "cold"
            if sample.status != 200:
                continue
            doc = json.loads(sample.body)
            if oracle.predict_ok(inputs[sample.index][1], doc):
                ok += 1
                computed += doc["provenance"]["model"] == "computed"
            else:
                mismatched += 1
        wall += phase["samples"][-1].done - phase["t0"]
    p99, q = stats.tail(latencies)
    return {
        "attempted": attempted, "ok": ok, "mismatched": mismatched, "cold": cold,
        "cells_per_s": ok / wall, "wall_s": wall,
        "cpu_ms_per_cell": sum(p["cpu_s"] for p in phases) * 1e3 / ok,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in phases),
        "p50_ms": stats.median(latencies), "p99_ms": p99, "p99_quantile": q,
        "latency_samples": len(latencies), "computed": computed,
        "oor": len(probes),
        "oor_mishandled": sum(not (s is not None and 400 <= s < 500) for s in probes),
        "oor_statuses": {str(s): probes.count(s) for s in set(probes)},
    }


def _layers(phase: dict, summary: dict) -> tuple[dict, float]:
    """Per-layer metrics of a traced phase, and its tiling error: how far
    the program's own ``handle`` + ``serialize`` request segments fall
    short of the request latency (reported; the gate is offline)."""
    served = phase["metrics_delta"]
    seg = "repro_serve_segment_seconds"

    def seg_p50(segment: str) -> float:
        return prom.quantile(served, seg, 0.5, segment=segment) * 1e3

    metrics = dict.fromkeys((name for name, _unit in layers.PER_LAYER), 0.0)
    start, end = phase["window"]
    window = layers.merge_totals(
        layers.span_totals(d["spans"], start, end) for d in phase["spans"].values())
    lifetime = layers.merge_totals(
        layers.span_totals(d["spans"], float("-inf"), float("inf"))
        for d in phase["spans"].values())
    metrics.update(layers.span_layers(window, per=1))
    boot = layers.span_layers(lifetime, per=1)
    metrics["serve.warm_s"] = boot["serve.warm_s"]
    metrics["store.read_s"] = boot["store.read_s"]
    kernel = [sum(d["caches"]["kernel"][i] for d in phase["spans"].values()) for i in (0, 1)]
    plan = [sum(d["caches"]["plan"][i] for d in phase["spans"].values()) for i in (0, 1)]
    batches = prom.total(served, "repro_serve_batch_size_count")
    latency_sum = prom.total(served, "repro_serve_latency_seconds_sum", route="predict")
    segments_sum = sum(prom.total(served, seg + "_sum", segment=s)
                       for s in ("handle", "serialize"))
    metrics.update({
        "engine.kernel_cache_hit_ratio": layers.ratio(*kernel),
        "engine.plan_cache_hit_ratio": layers.ratio(*plan),
        "serve.handle_p50_ms": seg_p50("handle"),
        "serve.queue_wait_p50_ms": seg_p50("queue_wait"),
        "serve.batch_wait_p50_ms": seg_p50("batch_wait"),
        "serve.serialize_p50_ms": seg_p50("serialize"),
        "serve.engine_p50_ms": seg_p50("engine"),
        "serve.batch_size_mean": (
            prom.total(served, "repro_serve_batch_size_sum") / batches if batches else 0.0),
        "serve.shed": prom.total(served, "repro_serve_shed_total"),
        "serve.computed_share": summary["computed"] / summary["ok"],
        "store.writes": prom.total(served, "repro_store_writes_total"),
        "serve.oor_requests": summary["oor"],
        "serve.oor_mishandled": summary["oor_mishandled"],
    })
    tiling = abs(segments_sum - latency_sum) / latency_sum if latency_sum else 1.0
    return metrics, tiling


def _one_cpu() -> set:
    """The CPU the load generator and the server share.  Each request is
    then a context switch on one CPU, not a wake-up of another CPU that
    went idle: on a virtual machine that wake-up waits for the host's
    scheduler, and with the two on separate CPUs throughput swung by
    40% between windows of the same run."""
    return {max(os.sched_getaffinity(0))}


def run(ctx, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = Reference(ctx.reference["presets"])
    oracle = Oracle(ref)
    cpu = _one_cpu()
    os.sched_setaffinity(0, cpu)
    if not trace:
        # Each boot is a set-up sample and measures a third of the
        # window, so the run samples the host at three moments.
        phases = [_phase(ctx, seed, seconds / SETUP_SAMPLES, ref, False, cpu)
                  for _ in range(SETUP_SAMPLES)]
        setups = [phase["setup_s"] for phase in phases]
        summary = _evaluate(phases, oracle)
        failed = summary["attempted"] - summary["ok"]
        metrics = {
            "cells_per_s": summary["cells_per_s"],
            "cpu_ms_per_cell": summary["cpu_ms_per_cell"],
            "peak_rss_mb": summary["peak_rss_mb"],
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "success_rate": summary["ok"] / summary["attempted"],
            "setup_s": stats.median(setups),
        }
        return {"correct": summary["mismatched"] == 0, "attempted": summary["attempted"],
                "failed": failed, "metrics": metrics,
                "detail": {"untraced": summary, "setup_samples_s": setups,
                           "pinned_cpu": sorted(cpu)}}

    plain = _evaluate([_phase(ctx, seed, seconds / 2, ref, False, cpu)], oracle)
    traced_phase = _phase(ctx, seed, seconds / 2, ref, True, cpu)
    traced = _evaluate([traced_phase], oracle)
    metrics, tiling = _layers(traced_phase, traced)
    metrics["trace.tiling_error"] = tiling
    metrics["trace.overhead_share"] = 1 - traced["cells_per_s"] / plain["cells_per_s"]
    metrics["trace.cpu_overhead_share"] = traced["cpu_ms_per_cell"] / plain["cpu_ms_per_cell"] - 1
    attempted = plain["attempted"] + traced["attempted"]
    failed = attempted - plain["ok"] - traced["ok"]
    return {
        "correct": plain["mismatched"] == 0 and traced["mismatched"] == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": {"untraced": plain, "traced": traced,
                   "tiling_within_limit": tiling <= ctx.tiling_limit},
    }
