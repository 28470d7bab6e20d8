"""Application characterization (Table I).

Reproduces the measurement methodology behind Table I:

* **LLC miss rate** — each application's dominant kernel generates a
  synthetic address trace from its access pattern *at the paper's
  problem size* (miss rates are working-set dependent), replayed
  through the discrete GPU's L2 cache model (``repro.hardware.cache``).
* **IPC** — per-core retired instructions per cycle of the 4-thread
  OpenMP run on the host CPU (Table I's profile is a CPU-counter
  characterization: its 0.14-0.88 range matches a 4-wide x86 core, not
  a 2048-lane GPU).
* **Number of kernels** — from the application descriptor.
* **Boundedness** — classified from the Figure 7 frequency sweep.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

from ..apps.base import ProxyApp
from ..engine.kernel import KernelSpec
from ..engine.trace import replay_pattern
from ..exec.executor import ExecStats
from ..exec.faults import FaultPlan, RunError
from ..exec.retry import RetryPolicy
from ..hardware.device import make_dgpu_platform
from ..hardware.specs import R9_280X, Precision
from ..models.base import ExecutionContext
from ..obs.export import Timeline
from .sweep import SweepResult, run_sweep

#: Table I of the paper, verbatim, for side-by-side reporting.
PAPER_TABLE1 = {
    "LULESH": {"miss_rate": 0.11, "ipc": 0.65, "kernels": 28, "boundedness": "Balanced"},
    "CoMD": {"miss_rate": 0.26, "ipc": 0.69, "kernels": 3, "boundedness": "Compute"},
    "XSBench": {"miss_rate": 0.53, "ipc": 0.14, "kernels": 1, "boundedness": "Compute"},
    "miniFE": {"miss_rate": 0.39, "ipc": 0.88, "kernels": 3, "boundedness": "Memory"},
}

#: The kernel whose access pattern dominates each app's LLC behaviour.
DOMINANT_KERNEL = {
    "read-benchmark": "readmem.block_sum",
    "LULESH": "lulesh.calc_face_normals",
    "CoMD": "comd.lj_force",
    "XSBench": "xsbench.lookup",
    "miniFE": "minife.spmv",
}


@dataclass(frozen=True)
class AppCharacterization:
    """One row of Table I."""

    app: str
    llc_miss_rate: float
    ipc: float
    n_kernels: int
    boundedness: str


def measure_miss_rate(spec: KernelSpec) -> float:
    """Replay the kernel's access pattern through the R9 280X L2."""
    return replay_pattern(spec.access, R9_280X.l2_cache).miss_rate


def measure_ipc(app: ProxyApp, config: object, precision: Precision = Precision.SINGLE, threads: int = 4) -> float:
    """Per-core IPC of the 4-thread OpenMP run on the host CPU."""
    from ..engine.study_vec import priced_run  # loaded on first use, like the executor's
    ctx = ExecutionContext(
        platform=make_dgpu_platform(), precision=precision, execute_kernels=False
    )
    counters = priced_run(app.ports["OpenMP"], ctx, config).counters
    if counters.cycles == 0:
        raise RuntimeError(f"{app.name}: no CPU cycles recorded")
    return counters.instructions / (counters.cycles * threads)


def dominant_spec(app: ProxyApp, config: object, precision: Precision = Precision.SINGLE) -> KernelSpec:
    """The characterization spec of the app's dominant kernel."""
    kernel_name = DOMINANT_KERNEL[app.name]
    if app.name == "read-benchmark":
        from ..apps.readmem import read_kernel_spec

        return read_kernel_spec(config, precision)
    if app.name == "LULESH":
        from ..apps.lulesh import kernel_specs

        return kernel_specs(config, precision)[kernel_name]
    if app.name == "CoMD":
        from ..apps.comd import kernel_specs

        return kernel_specs(config, precision)[kernel_name]
    if app.name == "XSBench":
        from ..apps.xsbench import lookup_kernel_spec

        return lookup_kernel_spec(config, precision)
    if app.name == "miniFE":
        from ..apps.minife import kernel_specs

        return kernel_specs(config, precision)[kernel_name]
    raise KeyError(f"unknown application {app.name!r}")


def characterize(
    app: ProxyApp,
    config: object,
    sweep_config: object | None = None,
    sweep: SweepResult | None = None,
    max_workers: int = 1,
    use_cache: bool = True,
) -> AppCharacterization:
    """Produce one Table I row for ``app``.

    The miss rate is always measured at the paper's problem size (it
    depends on the working set); IPC and boundedness use the supplied
    configs.  ``max_workers``/``use_cache`` configure the executor for
    the boundedness sweep.
    """
    spec = dominant_spec(app, app.paper_config())
    if sweep is None:
        sweep = run_sweep(
            app,
            sweep_config if sweep_config is not None else config,
            core_grid=(200.0, 1000.0),
            memory_grid=(480.0, 1250.0),
            max_workers=max_workers,
            use_cache=use_cache,
        )
    return AppCharacterization(
        app=app.name,
        llc_miss_rate=measure_miss_rate(spec),
        ipc=measure_ipc(app, config),
        n_kernels=app.n_kernels,
        boundedness=sweep.classify(),
    )


@dataclass(frozen=True)
class CharacterizationResult:
    """A full Table I regeneration with its executor observability."""

    rows: tuple[AppCharacterization, ...]
    stats: ExecStats
    telemetry: Timeline | None = None
    #: Quarantined sweep runs.  An app whose boundedness sweep lost
    #: points it needs has no row; the failures say why.
    failures: tuple[RunError, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every requested app produced a row."""
        return not self.failures


def characterize_apps(
    apps: Sequence[ProxyApp],
    configs: dict[str, object] | None = None,
    sweep_configs: dict[str, object] | None = None,
    max_workers: int = 1,
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> CharacterizationResult:
    """Characterize several apps, with executor stats aggregated.

    Each app's boundedness sweep fans through the parallel executor
    (``max_workers``); miss-rate replays go through the trace memo
    cache, whose hit/miss delta for the whole batch is folded into the
    returned stats.  Results are bit-identical for every worker count
    and cache setting.

    ``policy``/``faults`` configure the fault-tolerance layer of each
    boundedness sweep.  An app whose sweep lost the grid points its
    classification needs is dropped from ``rows``; the quarantined
    runs are aggregated in ``.failures``.
    """
    from ..engine.memo import TRACE_CACHE, cache_disabled
    from .configs import bench_configs as _bench_configs
    from .configs import sweep_configs as _sweep_configs

    if configs is None:
        configs = _bench_configs()
    if sweep_configs is None:
        sweep_configs = _sweep_configs()

    trace_before = TRACE_CACHE.snapshot()
    rows: list[AppCharacterization] = []
    failures: list[RunError] = []
    stats: ExecStats | None = None
    with cache_disabled() if not use_cache else nullcontext():
        for app in apps:
            sweep = run_sweep(
                app,
                sweep_configs[app.name],
                core_grid=(200.0, 1000.0),
                memory_grid=(480.0, 1250.0),
                max_workers=max_workers,
                use_cache=use_cache,
                telemetry=telemetry,
                policy=policy,
                faults=faults,
            )
            failures.extend(sweep.failures)
            stats = sweep.stats if stats is None else stats.merge(sweep.stats)
            if not sweep.complete:
                # The 2x2 sweep grid has no redundancy: any lost point
                # makes the boundedness slopes unmeasurable, so skip
                # the row rather than classify from a partial grid.
                continue
            rows.append(characterize(app, configs[app.name], sweep=sweep))
    if stats is None:
        stats = ExecStats()
    # The miss-rate replays run in this process, outside the executor:
    # fold their memo delta into the batch stats.
    stats = stats.merge(ExecStats(caches={"trace": TRACE_CACHE.snapshot().since(trace_before)}))
    return CharacterizationResult(
        rows=tuple(rows), stats=stats, telemetry=stats.timeline, failures=tuple(failures),
    )
