"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro table1            # Table I: application characteristics
    repro table4            # Table IV: SLOC, measured vs paper
    repro figure7 --app CoMD
    repro figure8           # APU speedups (single + double precision)
    repro figure9           # dGPU speedups
    repro figure10          # productivity, Eq. 1
    repro figure11          # optimization-feature matrix
    repro all               # everything
    repro figure9 --full    # exact Table I problem sizes (slow)
    repro study                         # comparison study, priced by schedule group
    repro study --paper-scale           # full Table I matrix
    repro sweep --app LULESH            # Figure 7 grid, one pricing call
    repro study --trace t.json --workers 4  # per-run recordings over a pool
    repro characterize                  # Table I, miss rates by LRU replay
    repro profile figure8 --trace t.json --metrics m.prom   # telemetry
    repro figure9 --trace t.json        # any study-backed command
    repro serve --port 8351             # the prediction service
    repro loadtest --spawn              # loopback serving capacity
    repro loadtest --breakdown          # queue wait vs engine vs serialize
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .apps import ALL_APPS, APPS_BY_NAME, PROXY_APPS
from .exec import ExecutionInterrupted, RetryPolicy, parse_fault_plan
from .core import (
    format_table,
    bench_configs,
    decompose_transfers,
    study_records,
    sweep_records,
    write_csv,
    write_json,
    characterize,
    characterize_apps,
    compute_productivity,
    render_energy,
    render_figure7,
    render_figure10,
    render_figure11,
    render_speedups,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    run_study,
    run_sweep,
    sweep_configs,
)
from .exec.plan import PLATFORMS, platform_label
from .models.registry import normalize_model_name
from .sloc import PAPER_TABLE4, table4

FIGURE_APPS = tuple(app.name for app in ALL_APPS)


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", None) or getattr(args, "metrics", None))


def _fault_kwargs(args: argparse.Namespace) -> dict:
    """The fault-tolerance keyword arguments selected by the CLI flags."""
    kwargs: dict = {
        "policy": RetryPolicy(
            max_attempts=getattr(args, "retries", 3),
            run_timeout=getattr(args, "run_timeout", None),
        )
    }
    spec = getattr(args, "inject_faults", None)
    if spec:
        kwargs["faults"] = parse_fault_plan(spec, seed=getattr(args, "fault_seed", 0))
    resume = getattr(args, "resume", None)
    if resume:
        kwargs["checkpoint"] = resume
    return kwargs


def _print_failures(failures) -> bool:
    """Print the quarantined-run table; True if there were any."""
    if not failures:
        return False
    print()
    print(format_table(
        ["Run", "Kind", "Attempts", "Error"],
        [list(f.summary_row()) for f in failures],
        title=f"Quarantined runs ({len(failures)})",
    ))
    return True


def _study(full: bool, workers: int = 1, cache: bool = True, telemetry: bool = False,
           models=None, platforms=None, **fault_kwargs):
    configs = None if full else bench_configs()
    matrix = {}
    if models is not None:
        matrix["models"] = models
    if platforms is not None:
        matrix["platforms"] = platforms
    return run_study(
        ALL_APPS, paper_scale=True, configs=configs, max_workers=workers,
        use_cache=cache, telemetry=telemetry, **matrix, **fault_kwargs,
    )


def _write_telemetry(timeline, args: argparse.Namespace) -> None:
    """Write the ``--trace`` / ``--metrics`` artifacts, if requested."""
    if timeline is None:
        return
    from .obs import write_chrome_trace, write_metrics

    if getattr(args, "trace", None):
        write_chrome_trace(timeline, args.trace)
        print(f"wrote Chrome trace ({len(timeline.spans)} spans, "
              f"{len(timeline.events)} events) to {args.trace}")
    if getattr(args, "metrics", None):
        write_metrics(timeline.metrics, args.metrics)
        print(f"wrote metrics to {args.metrics}")


def cmd_table1(args: argparse.Namespace) -> None:
    configs = bench_configs()
    sweeps = sweep_configs()
    measured = [
        characterize(app, configs[app.name], sweep_config=sweeps[app.name])
        for app in PROXY_APPS
    ]
    print(render_table1(measured))


def cmd_table2(_args: argparse.Namespace) -> None:
    print(render_table2())
    print()
    print(render_table3())


def cmd_table4(_args: argparse.Namespace) -> None:
    print(render_table4(table4(ALL_APPS), PAPER_TABLE4))


def cmd_figure7(args: argparse.Namespace) -> None:
    configs = sweep_configs()
    apps = [APPS_BY_NAME[args.app]] if args.app else ALL_APPS
    for app in apps:
        sweep = run_sweep(app, configs[app.name])
        print(render_figure7(sweep))
        print(f"classification: {sweep.classify()}")
        print()


def cmd_figure8(args: argparse.Namespace) -> None:
    study = _study(args.full, args.workers, not args.no_cache, _wants_telemetry(args))
    if args.chart:
        from .core import figure_chart

        print(figure_chart(study, FIGURE_APPS, apu=True))
        return
    print(render_speedups(study, FIGURE_APPS, apu=True,
                          title="Figure 8: speedup over 4-core OpenMP on the APU"))
    _write_telemetry(study.telemetry, args)


def cmd_figure9(args: argparse.Namespace) -> None:
    study = _study(args.full, args.workers, not args.no_cache, _wants_telemetry(args))
    if args.chart:
        from .core import figure_chart

        print(figure_chart(study, FIGURE_APPS, apu=False))
        return
    print(render_speedups(study, FIGURE_APPS, apu=False,
                          title="Figure 9: speedup over 4-core OpenMP on the dGPU"))
    _write_telemetry(study.telemetry, args)


def cmd_figure10(args: argparse.Namespace) -> None:
    study = _study(args.full, args.workers, not args.no_cache, _wants_telemetry(args))
    for apu in (True, False):
        result = compute_productivity(study, ALL_APPS, apu=apu)
        print(render_figure10(result, FIGURE_APPS))
        print()
    _write_telemetry(study.telemetry, args)


def cmd_figure11(_args: argparse.Namespace) -> None:
    print(render_figure11())


def cmd_ablation(args: argparse.Namespace) -> None:
    """Transfer decomposition of one app on the dGPU (Sec. VI-A)."""
    from .core import format_table

    app = APPS_BY_NAME[args.app or "LULESH"]
    config = bench_configs()[app.name]
    decomposition = decompose_transfers(app, config, apu=False)
    rows = [
        [
            d.model,
            f"{d.kernel_seconds * 1e3:.2f} ms",
            f"{d.transfer_seconds * 1e3:.2f} ms",
            f"{d.transfer_share:.0%}",
            f"{d.bytes_moved / 1e6:.1f} MB",
        ]
        for d in decomposition.values()
    ]
    print(format_table(
        ["Model", "Kernel time", "Transfer time", "Transfer share", "Bytes moved"],
        rows,
        title=f"Transfer decomposition: {app.name} on the dGPU",
    ))


def cmd_export(args: argparse.Namespace) -> None:
    """Export the full study (and sweeps) to JSON or CSV."""
    study = _study(args.full, args.workers, not args.no_cache)
    records = study_records(study)
    if args.sweeps:
        sweeps = sweep_configs()
        for app in ALL_APPS:
            records.extend(sweep_records(run_sweep(app, sweeps[app.name])))
    out = args.out
    if out.endswith(".csv"):
        write_csv(records, out)
    else:
        write_json(records, out)
    print(f"wrote {len(records)} records to {out}")


def cmd_characterize(args: argparse.Namespace) -> int | None:
    """Regenerate Table I, miss rates by LRU trace replay.

    Prints the characterization table plus the executor stats (which
    now include the trace-replay memo counters).
    """
    fault_kwargs = _fault_kwargs(args)
    fault_kwargs.pop("checkpoint", None)  # per-app sweeps share no journal
    result = characterize_apps(
        PROXY_APPS,
        max_workers=args.workers,
        use_cache=not args.no_cache,
        telemetry=_wants_telemetry(args),
        **fault_kwargs,
    )
    print(render_table1(result.rows))
    print()
    print(result.stats.summary())
    _write_telemetry(result.telemetry, args)
    if _print_failures(result.failures):
        return 1


def cmd_study(args: argparse.Namespace) -> int | None:
    """Run the comparison study through the parallel executor.

    Prints the Figure 8/9 speedup tables plus the executor's
    observability counters (wall time, deduplication, kernel memo
    cache hits).  ``--paper-scale`` uses the exact Table I problem
    sizes; the default is the reduced bench-scale matrix.
    """
    models = (
        tuple(normalize_model_name(m) for m in args.model) if args.model else None
    )
    platforms = tuple(args.platform) if args.platform else None
    study = _study(args.paper_scale, args.workers, not args.no_cache,
                   _wants_telemetry(args), models=models, platforms=platforms,
                   **_fault_kwargs(args))
    if models is not None or platforms is not None:
        # A custom matrix: render the cross-vendor energy view per
        # platform (speedup + joules + EDP) instead of Figures 8/9.
        from .core.study import GPU_MODELS

        for platform in platforms or ("apu", "dgpu"):
            print(render_energy(
                study, FIGURE_APPS, models or GPU_MODELS, platform,
                title=f"Energy/EDP on the {platform_label(platform)} "
                      f"(speedup over 4-core OpenMP)"))
            print()
    else:
        print(render_speedups(study, FIGURE_APPS, apu=True,
                              title="Figure 8: speedup over 4-core OpenMP on the APU"))
        print()
        print(render_speedups(study, FIGURE_APPS, apu=False,
                              title="Figure 9: speedup over 4-core OpenMP on the dGPU"))
        print()
    print(study.stats.summary())
    if args.per_run:
        print()
        for spec, wall, caches in sorted(study.stats.per_run, key=lambda r: r[1], reverse=True):
            counts = "".join(
                f"{name} {stats.hits:6d}/{stats.misses:<6d}  "
                for name, stats in caches.items() if stats.lookups
            )
            print(f"  {wall:8.3f} s  {counts}{spec.label}")
    _write_telemetry(study.telemetry, args)
    if args.out:
        write_json(study_records(study), args.out)
        print(f"\nwrote {len(study.entries)} records to {args.out}")
    if _print_failures(study.failures):
        return 1


def cmd_sweep(args: argparse.Namespace) -> int | None:
    """Run Figure 7 frequency sweeps through the parallel executor."""
    configs = sweep_configs()
    apps = [APPS_BY_NAME[args.app]] if args.app else ALL_APPS
    lost = False
    for app in apps:
        sweep = run_sweep(
            app, configs[app.name], max_workers=args.workers,
            use_cache=not args.no_cache, telemetry=_wants_telemetry(args),
            **_fault_kwargs(args),
        )
        print(render_figure7(sweep))
        if sweep.complete:
            print(f"classification: {sweep.classify()}")
        else:
            print("classification: unavailable (grid points quarantined)")
        print(sweep.stats.summary())
        _write_telemetry(sweep.telemetry, args)
        lost = _print_failures(sweep.failures) or lost
        print()
    if lost:
        return 1


def cmd_profile(args: argparse.Namespace) -> None:
    """Run a study or sweep with telemetry and report where time goes.

    Prints the per-phase and top-N span breakdowns plus the executor
    stats (cache hit ratios per memo layer, limited-by tallies), and
    writes the Chrome-trace / metrics artifacts when asked.  The
    speedup numbers are bit-identical to the un-instrumented run of
    the same target.
    """
    from .obs import top_breakdown

    if args.target == "sweep":
        app = APPS_BY_NAME[args.app or "LULESH"]
        sweep = run_sweep(
            app, sweep_configs()[app.name], max_workers=args.workers,
            use_cache=not args.no_cache, telemetry=True,
        )
        timeline, stats = sweep.telemetry, sweep.stats
        print(f"profiled Figure 7 sweep: {app.name}")
    elif args.target == "characterize":
        result = characterize_apps(
            PROXY_APPS, max_workers=args.workers,
            use_cache=not args.no_cache, telemetry=True,
        )
        timeline, stats = result.telemetry, result.stats
        print(render_table1(result.rows))
    else:
        study = _study(args.full, args.workers, not args.no_cache, telemetry=True)
        timeline, stats = study.telemetry, study.stats
        if args.target in ("figure8", "figure9"):
            apu = args.target == "figure8"
            title = ("Figure 8: speedup over 4-core OpenMP on the APU" if apu
                     else "Figure 9: speedup over 4-core OpenMP on the dGPU")
            print(render_speedups(study, FIGURE_APPS, apu=apu, title=title))
        else:
            print(f"profiled comparison study "
                  f"({len(study.entries)} entries, {stats.unique_runs} runs)")
    print()
    print(top_breakdown(timeline, top=args.top))
    print()
    print(stats.summary())
    print(f"trace tracks: {len(timeline.sim_tracks())} device-queue, "
          f"{len(timeline.worker_tracks())} worker")
    _write_telemetry(timeline, args)


def cmd_serve(args: argparse.Namespace) -> int | None:
    """Run the prediction service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from .serve import ServeConfig, Server
    from .serve.service import stop_on_signals

    store_path = args.store
    if args.shards > 1 and store_path is None:
        # A sharded tier without a shared store cannot keep its
        # restart-warm promise; default to an ephemeral one and say so.
        import tempfile

        store_path = tempfile.mkdtemp(prefix="repro-store-")
        print(f"no --store given; sharded tier using ephemeral store {store_path}")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        deadline_s=args.deadline,
        retries=args.retries,
        run_timeout_s=args.run_timeout,
        store_path=store_path,
        warm=args.warm,
        warm_scales=tuple(args.warm_scales.split(",")),
        max_study_runs=args.max_study_runs,
        max_batch_cells=args.max_batch_cells,
    )
    if args.shards > 1:
        return _serve_sharded(args, config)

    async def main() -> None:
        server = Server(config)
        stop = stop_on_signals()
        await server.start()
        print(f"serving on {server.url} "
              f"(queue bound {config.max_queue}, deadline {config.deadline_s:g} s)")
        if server.warm_report is not None:
            print(server.warm_report.summary())
        print("routes: POST /v1/predict /v1/study /v1/batch, "
              "GET /healthz /readyz /metrics")
        await stop.wait()
        print("draining in-flight requests ...")
        await server.shutdown()
        total = sum(
            sample.value
            for family in server.metrics.families()
            if family.name == "repro_serve_requests_total"
            for sample in family.samples.values()
        )
        print(f"drained; served {total:g} requests")

    asyncio.run(main())


def _serve_sharded(args: argparse.Namespace, config) -> int | None:
    """Run the sharded tier: N shard processes behind the hash router."""
    import asyncio

    from .serve.service import stop_on_signals
    from .serve.shard import RouterConfig, ShardRouter, ShardSupervisor

    print(f"starting {args.shards} shards "
          f"(store {config.store_path}, warm {config.warm}) ...")
    supervisor = ShardSupervisor(config, args.shards)
    supervisor.start()
    router = ShardRouter(supervisor=supervisor, config=RouterConfig(
        host=args.host,
        port=args.port,
        deadline_s=args.deadline,
        max_study_runs=args.max_study_runs,
        max_batch_cells=args.max_batch_cells,
    ))

    async def main() -> None:
        stop = stop_on_signals()
        await router.start()
        print(f"routing on {router.url} over:")
        for url in supervisor.urls:
            print(f"  {url}")
        print("routes: POST /v1/predict /v1/study /v1/batch, GET /v1/shards, "
              "POST /v1/admin/restart, GET /healthz /readyz /metrics")
        await stop.wait()
        print("draining router and shards ...")
        await router.shutdown()
        print("tier stopped")

    try:
        asyncio.run(main())
    finally:
        supervisor.stop()


def _predict_cells(args: argparse.Namespace, apps: list[str]) -> list[dict]:
    """The cell mix: apps x models x platforms x precisions."""
    from .core.study import GPU_MODELS

    models = [normalize_model_name(args.model)] if args.model else list(GPU_MODELS)
    platforms = [args.platform] if args.platform else ["apu", "dgpu"]
    precisions = [args.precision] if args.precision else ["single", "double"]
    return [
        {"app": app, "model": model, "platform": platform,
         "precision": precision, "scale": args.scale}
        for app in apps
        for model in models
        for platform in platforms
        for precision in precisions
    ]


def _loadtest_bodies(args: argparse.Namespace) -> list[dict]:
    """The query mix for the chosen route.

    ``predict`` rotates one app's cells as individual requests;
    ``batch`` spreads the paper's proxy apps (unless ``--app`` narrows
    it) across ``--batch-cells``-sized bulk requests.
    """
    if args.route == "batch":
        from .apps import PROXY_APPS

        apps = [args.app] if args.app else [app.name for app in PROXY_APPS]
        cells = _predict_cells(args, apps)
        size = max(1, args.batch_cells)
        return [
            {"cells": cells[i:i + size]} for i in range(0, len(cells), size)
        ]
    return _predict_cells(args, [args.app or "XSBench"])


def cmd_loadtest(args: argparse.Namespace) -> int | None:
    """Drive a prediction server and report its capacity.

    Plain and sharded runs exit 1 unless every request got a 2xx
    answer: a run that was shed (429) or failed (5xx) measured nothing.
    The chaos drill holds its own 5xx/429 contract.
    """
    import asyncio
    from .serve import ServeConfig, ServerThread, run_load

    if args.chaos:
        return _loadtest_chaos(args)
    if args.shards:
        return _loadtest_sharded(args)

    bodies = _loadtest_bodies(args)
    path = "/v1/batch" if args.route == "batch" else "/v1/predict"
    spawned = None
    if args.url:
        url = args.url if len(args.url) > 1 else args.url[0]
    else:
        spawned = ServerThread(ServeConfig(
            max_queue=args.max_queue, store_path=args.store, warm=args.warm,
        )).start()
        url = spawned.url
        print(f"spawned ephemeral server on {url}")

    async def measured() -> tuple:
        from .serve.http import fetch_text

        scrape = url if isinstance(url, str) else url[0]
        before = await fetch_text(scrape) if args.breakdown else None
        result = await run_load(
            url,
            bodies,
            mode=args.mode,
            concurrency=args.concurrency,
            duration_s=args.duration,
            rate=args.rate,
            warmup=not args.cold,
            path=path,
        )
        after = await fetch_text(scrape) if args.breakdown else None
        return result, before, after

    try:
        result, before, after = asyncio.run(measured())
    finally:
        if spawned is not None:
            spawned.stop()
    print(f"{len(bodies)} distinct {args.route} queries "
          f"({'cold' if args.cold else 'warmed'}), target {url}")
    print(result.summary())
    if args.breakdown:
        from .serve.loadgen import render_breakdown, segment_breakdown

        print()
        print(render_breakdown(segment_breakdown(before, after)))
    if not result.clean:
        return 1


def _loadtest_sharded(args: argparse.Namespace) -> int | None:
    """Stand up a sharded tier and measure it end to end.

    Three measurements in one pass: warm per-request ``/v1/predict``
    capacity, warm bulk ``/v1/batch`` aggregate pricing throughput
    across all shards (the ``cells/s`` figure), and the restart drill —
    gracefully bounce shard 0, then re-issue the whole warm mix against
    the replacement and count answers that had to be recomputed (cold
    misses; the store makes it 0).  Exits 1 on any transport error,
    any non-2xx answer, or any cold miss.
    """
    import argparse as _argparse
    import asyncio
    import tempfile

    from .serve import ServeConfig, run_load
    from .serve.http import post_json
    from .serve.shard import ShardedTier

    store = args.store or tempfile.mkdtemp(prefix="repro-store-")
    predict_args = _argparse.Namespace(**{**vars(args), "route": "predict"})
    batch_args = _argparse.Namespace(**{**vars(args), "route": "batch"})
    predict_bodies = _loadtest_bodies(predict_args)
    batch_bodies = _loadtest_bodies(batch_args)

    tier = ShardedTier(ServeConfig(
        max_queue=args.max_queue, store_path=store, warm=args.warm,
    ), shards=args.shards)
    print(f"starting {args.shards}-shard tier (store {store}) ...")
    with tier:
        urls = tier.shard_urls
        print(f"router {tier.url} over {', '.join(urls)}")

        async def protocol_run() -> tuple:
            legacy = await run_load(
                urls, predict_bodies, mode=args.mode,
                concurrency=args.concurrency, duration_s=args.duration,
                rate=args.rate, warmup=not args.cold,
            )
            sharded = await run_load(
                urls, batch_bodies, mode="closed",
                concurrency=args.concurrency, duration_s=args.duration,
                warmup=not args.cold, path="/v1/batch",
            )
            return legacy, sharded

        legacy, sharded = asyncio.run(protocol_run())
        print("\nwarm /v1/predict across shards:")
        print(legacy.summary())
        print("\nwarm /v1/batch across shards:")
        print(sharded.summary())

        async def restart_drill() -> dict:
            status, doc = await post_json(
                tier.url, "/v1/admin/restart", {"shard": 0}
            )
            if status != 200:
                return {"error": doc, "cold_misses": -1, "checked": 0}
            restarted = doc["url"]
            checked = 0
            tally: dict[str, int] = {}
            for body in batch_bodies:
                status, answer = await post_json(restarted, "/v1/batch", body)
                if status != 200:
                    return {"error": answer, "cold_misses": -1, "checked": checked}
                checked += answer["count"]
                for label, count in answer["served"].items():
                    tally[label] = tally.get(label, 0) + count
            return {
                "shard": 0,
                "restart_s": doc["restart_s"],
                "checked": checked,
                "cold_misses": tally.get("computed", 0),
                "served": tally,
            }

        restart = asyncio.run(restart_drill())
        print(f"\nrestart drill: {restart}")

        if args.breakdown:
            from .serve.http import fetch_json
            from .serve.loadgen import render_shard_health

            try:
                listing = asyncio.run(fetch_json(tier.url, "/v1/shards"))
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"\nshard health unavailable: {exc}")
            else:
                print("\nshard health (/v1/shards):")
                print(render_shard_health(listing))

    if not (legacy.clean and sharded.clean) or restart.get("cold_misses") != 0:
        return 1


def _loadtest_chaos(args: argparse.Namespace) -> int | None:
    """Run the self-healing chaos drill and hold it to its invariants.

    Exits non-zero on any violation: a wrong answer, an error rate
    above 1%, a response outside the 5xx/429 failure contract, failure
    to converge back to all-shards-healthy, a cold miss after
    recovery, or a storm too gentle to exercise the machinery (no
    respawn or no breaker cycle observed).
    """
    from .serve.chaos import (
        DEFAULT_CHAOS_PLAN,
        DEFAULT_CHAOS_SEED,
        run_chaos_drill,
    )

    report = run_chaos_drill(
        shards=args.shards or 2,
        duration_s=args.duration,
        concurrency=args.concurrency,
        plan=args.chaos_plan or DEFAULT_CHAOS_PLAN,
        seed=args.chaos_seed if args.chaos_seed is not None else DEFAULT_CHAOS_SEED,
        store=args.store,
        settle_timeout_s=args.settle_timeout,
        max_queue=args.max_queue,
        echo=print,
    )
    print()
    print(report.summary())
    if not report.ok:
        return 1


def cmd_all(args: argparse.Namespace) -> None:
    cmd_table2(args)
    print()
    cmd_table1(args)
    print()
    cmd_table4(args)
    print()
    cmd_figure7(args)
    study = _study(args.full, args.workers, not args.no_cache)
    print(render_speedups(study, FIGURE_APPS, apu=True,
                          title="Figure 8: speedup over 4-core OpenMP on the APU"))
    print()
    print(render_speedups(study, FIGURE_APPS, apu=False,
                          title="Figure 9: speedup over 4-core OpenMP on the dGPU"))
    print()
    for apu in (True, False):
        print(render_figure10(compute_productivity(study, ALL_APPS, apu=apu), FIGURE_APPS))
        print()
    cmd_figure11(args)


def _add_executor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard the run matrix over N worker processes")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the kernel memo cache (recompute everything)")


def _add_fault_flags(p: argparse.ArgumentParser, resume: bool = True) -> None:
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="total attempts per run before quarantine (1 disables "
                        "retries; default 3)")
    p.add_argument("--run-timeout", type=float, default=None, metavar="SEC",
                   help="per-run watchdog budget in wall seconds "
                        "(default: no watchdog)")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                        "'crash:0.2,timeout:0.1' (kinds: crash, timeout, "
                        "corrupt, poison, abort, hang, interrupt)")
    p.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed for the fault-injection draws (same seed, "
                        "same faults)")
    if resume:
        p.add_argument("--resume", default=None, metavar="FILE",
                       help="checkpoint journal: completed runs are journaled "
                            "here and restored instead of re-executed")


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record telemetry and write a Chrome trace_event JSON "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="record telemetry and write the metrics registry "
                        "(.json, or Prometheus text for any other suffix)")


#: ``repro --help`` sections: every command, grouped, one line each.
COMMAND_SECTIONS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("paper artifacts", (
        ("table1", "Table I: measured application characteristics"),
        ("table2", "Tables II & III: platform and compiler specs"),
        ("table4", "Table IV: SLOC per programming model, measured vs paper"),
        ("figure7", "Figure 7: frequency-scaling grids (per app)"),
        ("figure8", "Figure 8: APU speedups over 4-core OpenMP"),
        ("figure9", "Figure 9: dGPU speedups over 4-core OpenMP"),
        ("figure10", "Figure 10: relative productivity (Eq. 1)"),
        ("figure11", "Figure 11: optimization-feature matrix"),
        ("ablation", "transfer decomposition of one app on the dGPU"),
        ("all", "every table and figure in sequence"),
    )),
    ("studies & data", (
        ("study", "the full comparison study through the parallel executor"),
        ("sweep", "Figure 7 frequency sweeps through the parallel executor"),
        ("characterize", "Table I, miss rates by LRU trace replay"),
        ("export", "dump study (and sweep) records to JSON or CSV"),
    )),
    ("performance & telemetry", (
        ("profile", "phase breakdown plus Chrome-trace/metrics artifacts"),
        ("serve", "async HTTP prediction service over the performance model"),
        ("loadtest", "drive a prediction server; report req/s and latency"),
    )),
)

#: One-line description per command (drives both help layers).
COMMAND_HELP = {
    name: blurb
    for _section, commands in COMMAND_SECTIONS
    for name, blurb in commands
}


def _command_epilog() -> str:
    lines = ["commands:"]
    for section, commands in COMMAND_SECTIONS:
        lines.append(f"\n  {section}:")
        for name, blurb in commands:
            lines.append(f"    {name:<13} {blurb}")
    lines.append("\nrun 'repro COMMAND --help' for the options of one command")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Exploring Parallel "
        "Programming Models for Heterogeneous Computing Systems' (IISWC 2015).",
        epilog=_command_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, fn, needs_full, needs_app in (
        ("table1", cmd_table1, False, False),
        ("table2", cmd_table2, False, False),
        ("table4", cmd_table4, False, False),
        ("figure7", cmd_figure7, False, True),
        ("figure8", cmd_figure8, True, False),
        ("figure9", cmd_figure9, True, False),
        ("figure10", cmd_figure10, True, False),
        ("figure11", cmd_figure11, False, False),
        ("ablation", cmd_ablation, False, True),
        ("all", cmd_all, True, False),
    ):
        p = sub.add_parser(name, description=COMMAND_HELP[name])
        p.set_defaults(func=fn, full=False, app=None, chart=False,
                       workers=1, no_cache=False, trace=None, metrics=None)
        if needs_full:
            p.add_argument("--full", action="store_true",
                           help="use the exact paper problem sizes (slow)")
            _add_executor_flags(p)
        if name in ("figure8", "figure9", "figure10"):
            _add_telemetry_flags(p)
        if name in ("figure8", "figure9"):
            p.add_argument("--chart", action="store_true",
                           help="render as bar charts instead of a table")
        if needs_app:
            p.add_argument("--app", choices=FIGURE_APPS, default=None)
    study = sub.add_parser(
        "study",
        description=COMMAND_HELP["study"] + ", with executor stats")
    study.set_defaults(func=cmd_study)
    study.add_argument("--paper-scale", action="store_true",
                       help="use the exact Table I problem sizes (slow)")
    study.add_argument("--per-run", action="store_true",
                       help="print per-run wall times and cache counters")
    study.add_argument("--out", default=None,
                       help="also export the study records as JSON")
    study.add_argument("--model", action="append", default=None, metavar="NAME",
                       help="compare this model instead of the paper's three "
                            "(repeatable; aliases like 'omp-offload' accepted)")
    study.add_argument("--platform", action="append", default=None,
                       choices=PLATFORMS,
                       help="run on this platform selector instead of APU+dGPU "
                            "(repeatable; 'v100' is the second-vendor device)")
    _add_executor_flags(study)
    _add_telemetry_flags(study)
    _add_fault_flags(study)
    char = sub.add_parser(
        "characterize",
        description="Table I, miss rates by LRU replay of synthetic traces "
                    "through the simulated R9 280X L2")
    char.set_defaults(func=cmd_characterize)
    _add_executor_flags(char)
    _add_telemetry_flags(char)
    _add_fault_flags(char, resume=False)
    sweep = sub.add_parser(
        "sweep",
        description=COMMAND_HELP["sweep"] + ", with executor stats")
    sweep.set_defaults(func=cmd_sweep)
    sweep.add_argument("--app", choices=FIGURE_APPS, default=None)
    _add_executor_flags(sweep)
    _add_telemetry_flags(sweep)
    _add_fault_flags(sweep)
    profile = sub.add_parser(
        "profile",
        description="run a study/sweep with telemetry: phase breakdown, "
                    "Chrome trace, metrics registry")
    profile.set_defaults(func=cmd_profile, full=False)
    profile.add_argument("target",
                         choices=("figure8", "figure9", "study", "sweep",
                                  "characterize"),
                         help="what to profile (figure8/figure9/study run the "
                              "comparison study; sweep runs one Figure 7 grid; "
                              "characterize regenerates Table I)")
    profile.add_argument("--app", choices=FIGURE_APPS, default=None,
                         help="app for the sweep target (default LULESH)")
    profile.add_argument("--full", action="store_true",
                         help="use the exact paper problem sizes (slow)")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows in the top-span breakdown")
    _add_executor_flags(profile)
    _add_telemetry_flags(profile)
    export = sub.add_parser("export", description=COMMAND_HELP["export"])
    export.set_defaults(func=cmd_export, full=False, app=None)
    export.add_argument("--out", default="results.json",
                        help="output path (.json or .csv)")
    export.add_argument("--full", action="store_true")
    export.add_argument("--sweeps", action="store_true",
                        help="include the Figure 7 sweep grids")
    _add_executor_flags(export)
    serve = sub.add_parser(
        "serve",
        description="serve /v1/predict, /v1/study and /v1/batch over the "
                    "performance model: micro-batched, admission-controlled, "
                    "Prometheus-instrumented; SIGTERM drains gracefully. "
                    "--shards N runs a horizontally sharded tier over a "
                    "shared persistent result store")
    serve.set_defaults(func=cmd_serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8351, metavar="N",
                       help="listen port; 0 picks an ephemeral one "
                            "(default 8351)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="flush a batch early at N queued specs")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admission bound: shed (429 + Retry-After) past "
                            "N predictions in flight")
    serve.add_argument("--deadline", type=float, default=30.0, metavar="SEC",
                       help="per-request wall-clock budget; over it the "
                            "client gets a 504")
    serve.add_argument("--retries", type=int, default=2, metavar="N",
                       help="engine attempts per run before a 500")
    serve.add_argument("--run-timeout", type=float, default=None, metavar="SEC",
                       help="per-engine-run watchdog (default: none; the "
                            "HTTP deadline still applies)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="run N server processes over a shared store "
                            "behind a content-hash router (default 1: a "
                            "single in-process server)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="persistent content-addressed result store; "
                            "restarts boot warm from it (default: in-memory "
                            "only; sharded tiers get an ephemeral one)")
    serve.add_argument("--warm", choices=("none", "load", "presets"),
                       default="load",
                       help="boot-time warm-up: 'load' seeds memory from the "
                            "store, 'presets' additionally pre-prices the "
                            "reachable preset lattice (default load)")
    serve.add_argument("--warm-scales", default="bench", metavar="LIST",
                       help="comma-separated scale presets the 'presets' "
                            "warm-up prices (default bench)")
    serve.add_argument("--max-study-runs", type=int, default=None, metavar="N",
                       help="cap on the run matrix one /v1/study may expand "
                            "to (default 64, or REPRO_SERVE_MAX_STUDY_RUNS)")
    serve.add_argument("--max-batch-cells", type=int, default=None, metavar="N",
                       help="cap on cells per /v1/batch request (default "
                            "512, or REPRO_SERVE_MAX_BATCH_CELLS)")
    loadtest = sub.add_parser(
        "loadtest",
        description="drive a prediction server (an existing --url, a "
                    "--spawn'd loopback one, or a --shards N tier) with warm "
                    "queries and report throughput and latency percentiles; "
                    "with --shards the whole tier is measured (predict "
                    "capacity, bulk cells/s, restart drill); exits 1 on any "
                    "non-2xx answer")
    loadtest.set_defaults(func=cmd_loadtest)
    target = loadtest.add_mutually_exclusive_group()
    target.add_argument("--url", action="append", default=None, metavar="URL",
                        help="base URL of a running server; repeat to "
                             "round-robin over several (e.g. a tier's shards)")
    target.add_argument("--spawn", action="store_true",
                        help="spawn a loopback server for the run "
                             "(the default when --url is absent)")
    target.add_argument("--shards", type=int, default=None, metavar="N",
                        help="spawn an N-shard tier over a shared store and "
                             "measure it end to end (predict + bulk "
                             "+ restart drill)")
    loadtest.add_argument("--route", choices=("predict", "batch"),
                          default="predict",
                          help="traffic shape: per-request /v1/predict, or "
                               "bulk /v1/batch (throughput counts cells/s)")
    loadtest.add_argument("--batch-cells", type=int, default=64, metavar="N",
                          help="cells per /v1/batch request (default 64)")
    loadtest.add_argument("--store", default=None, metavar="DIR",
                          help="persistent result store for spawned servers "
                               "(sharded runs default to an ephemeral one)")
    loadtest.add_argument("--warm", choices=("none", "load", "presets"),
                          default="load",
                          help="warm-up mode of spawned servers (default load)")
    loadtest.add_argument("--mode", choices=("closed", "open"),
                          default="closed",
                          help="closed: back-to-back per connection (capacity);"
                               " open: fixed-rate arrivals (latency under "
                               "offered load)")
    loadtest.add_argument("--concurrency", type=int, default=8, metavar="N",
                          help="client connections (default 8)")
    loadtest.add_argument("--duration", type=float, default=3.0, metavar="SEC",
                          help="measured window length (default 3 s)")
    loadtest.add_argument("--rate", type=float, default=None, metavar="RPS",
                          help="offered request rate for --mode open")
    loadtest.add_argument("--app", choices=FIGURE_APPS, default=None,
                          help="application to query (default: XSBench for "
                               "predict, every proxy app for batch)")
    loadtest.add_argument("--model", default=None,
                          help="restrict to one programming model "
                               "(default: rotate OpenCL/C++ AMP/OpenACC)")
    loadtest.add_argument("--platform", choices=PLATFORMS, default=None,
                          help="restrict to one platform (default: apu+dgpu)")
    loadtest.add_argument("--precision", choices=("single", "double"),
                          default=None,
                          help="restrict to one precision (default: both)")
    loadtest.add_argument("--scale", choices=("bench", "paper", "sweep"),
                          default="bench",
                          help="problem-size preset in the query bodies")
    loadtest.add_argument("--cold", action="store_true",
                          help="skip the warmup pass (measure cold-cache "
                               "behaviour)")
    loadtest.add_argument("--max-queue", type=int, default=64, metavar="N",
                          help="admission bound of the spawned server")
    loadtest.add_argument("--breakdown", action="store_true",
                          help="scrape /metrics before and after the run and "
                               "report per-segment latency percentiles (queue "
                               "wait vs batch wait vs engine vs serialize) "
                               "from the server's trace-segment histograms; "
                               "with --shards also prints the /v1/shards "
                               "health table (supervision + breaker state)")
    loadtest.add_argument("--chaos", action="store_true",
                          help="run the self-healing chaos drill instead of a "
                               "plain measurement: arm a seeded fault plan in "
                               "a --shards tier (default 2), drive load with "
                               "a bit-identity checker, then assert recovery "
                               "(zero wrong answers, bounded errors, "
                               "convergence, zero cold misses)")
    loadtest.add_argument("--chaos-plan", default=None, metavar="SPEC",
                          help="fault plan for --chaos, e.g. "
                               "'crash:0.004,reset:0.01,slow_s:0.02' "
                               "(default: the standard drill storm)")
    loadtest.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                          help="deterministic seed of the --chaos fault "
                               "schedule (default: the standard drill seed)")
    loadtest.add_argument("--settle-timeout", type=float, default=60.0,
                          metavar="SEC",
                          help="max seconds to wait for all-shards-healthy "
                               "after the --chaos storm (default 60)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ExecutionInterrupted as exc:
        print("\ninterrupted; partial progress:", file=sys.stderr)
        print(exc.stats.summary(), file=sys.stderr)
        resume = getattr(args, "resume", None)
        if resume:
            print(f"{exc.completed} completed runs journaled; rerun with "
                  f"--resume {resume} to continue", file=sys.stderr)
        else:
            print("no checkpoint journal (use --resume FILE to make "
                  "interrupted studies resumable)", file=sys.stderr)
        return 130
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
