"""The two offline workloads, shared by the program child and the
reference writer: inputs from a seed, the call into ``repro``, and the
digest that the committed reference is compared against.

Only this module and ``study_child.py`` import ``repro``; both run in
the program's own process.
"""

from __future__ import annotations

import hashlib
import time

#: Dense DVFS grid over Figure 7's range: 25 MHz core x 35 MHz memory
#: steps, 33 x 23 = 759 cells per app.  The seed picks one of
#: ``SWEEP_VARIANTS`` phase offsets, so seeds move the grid points.
CORE_START_MHZ, CORE_STEP_MHZ, CORE_POINTS = 200.0, 25.0, 33
MEMORY_START_MHZ, MEMORY_STEP_MHZ, MEMORY_POINTS = 480.0, 35.0, 23
SWEEP_VARIANTS = 4
CORE_PHASE_MHZ, MEMORY_PHASE_MHZ = 5.0, 7.0

HC_MODEL = "Heterogeneous Compute"


def sweep_variant(seed: int) -> int:
    return seed % SWEEP_VARIANTS


def dense_grid(variant: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    core0 = CORE_START_MHZ + variant * CORE_PHASE_MHZ
    memory0 = MEMORY_START_MHZ + variant * MEMORY_PHASE_MHZ
    return (
        tuple(core0 + i * CORE_STEP_MHZ for i in range(CORE_POINTS)),
        tuple(memory0 + i * MEMORY_STEP_MHZ for i in range(MEMORY_POINTS)),
    )


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def study_paper(seed: int, engine: str) -> dict:
    """Figures 8/9 at paper scale: 5 apps x {APU, dGPU} x {SP, DP} x
    {OpenMP, OpenCL, C++ AMP, OpenACC} = 80 runs, one worker, in the
    paper's order.  The matrix is the paper's, so the seed changes
    nothing: the app order alone moves peak RSS by 40%."""
    from repro.apps import ALL_APPS
    from repro.core.study import run_study

    started = time.perf_counter()
    result = run_study(ALL_APPS, paper_scale=True, engine=engine, max_workers=1)
    latency = time.perf_counter() - started
    lines = [
        "|".join((
            e.app, e.model, e.platform_key, e.precision.value,
            e.seconds.hex(), e.kernel_seconds.hex(),
            e.baseline_seconds.hex(), e.joules.hex(),
        ))
        for e in result.entries
    ]
    return {
        "cells": result.stats.requested_runs,
        "failures": len(result.failures),
        "latencies_s": [latency],
        "digest": _digest(lines),
    }


def sweep_dense(seed: int, engine: str) -> dict:
    """The dense OpenCL/dGPU grid for every app through the columnar
    engine, then the paper's 72-point grid of Heterogeneous Compute
    (scalar engine: the columnar fold cannot express its makespan)."""
    from repro.apps import ALL_APPS
    from repro.core.configs import sweep_configs
    from repro.core.sweep import run_sweep

    configs = sweep_configs()
    core_grid, memory_grid = dense_grid(sweep_variant(seed))
    lines: list[str] = []
    latencies: list[float] = []
    cells = failures = 0
    for kind in ("dense", "hc"):
        for app in ALL_APPS:
            started = time.perf_counter()
            if kind == "dense":
                result = run_sweep(
                    app, configs[app.name], core_grid=core_grid,
                    memory_grid=memory_grid, engine=engine,
                )
            else:
                result = run_sweep(app, configs[app.name], model=HC_MODEL, engine=engine)
            latencies.append(time.perf_counter() - started)
            cells += result.stats.requested_runs
            failures += len(result.failures)
            lines.extend(
                f"{app.name}|{kind}|{p.core_mhz!r}|{p.memory_mhz!r}|"
                f"{p.seconds.hex()}|{p.normalized_performance.hex()}"
                for p in result.points
            )
    return {
        "cells": cells,
        "failures": failures,
        "latencies_s": latencies,
        "digest": _digest(lines),
    }


WORKLOADS = {"study-paper": study_paper, "sweep-dense": sweep_dense}
