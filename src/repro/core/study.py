"""The comparison study: apps x models x platforms x precisions.

This is the paper's primary experiment (Figures 8 and 9): run every
port of every proxy application on both platforms in both precisions
and report speedups over the 4-core OpenMP baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pathlib import Path

from ..apps.base import ProxyApp, RunResult
from ..exec.checkpoint import CheckpointJournal
from ..exec.executor import ExecStats, execute
from ..exec.faults import FaultPlan, RunError
from ..exec.plan import APU, DGPU, study_runs
from ..exec.retry import RetryPolicy
from ..hardware.device import make_platform
from ..hardware.specs import Precision
from ..models.base import ExecutionContext
from ..obs.export import Timeline
from .metrics import speedup

#: The three GPU models of the comparison, in the paper's order.
GPU_MODELS = ("OpenCL", "C++ AMP", "OpenACC")
BASELINE_MODEL = "OpenMP"


@dataclass(frozen=True)
class StudyEntry:
    """One measured point of the study."""

    app: str
    model: str
    platform: str
    apu: bool
    precision: Precision
    seconds: float
    kernel_seconds: float
    baseline_seconds: float
    #: Plan selector of the platform ("apu"/"dgpu"/"v100"); "" only in
    #: hand-built legacy entries.
    platform_key: str = ""
    #: Whole-run energy in joules (``repro.engine.energy``).
    joules: float = 0.0

    @property
    def speedup(self) -> float:
        """Speedup over the 4-core OpenMP baseline (the figures' y-axis)."""
        return speedup(self.baseline_seconds, self.seconds)

    @property
    def kernel_speedup(self) -> float:
        """Kernel-time-only speedup (used for read-benchmark, which the
        paper reports with "data-transfer times ... left out")."""
        return speedup(self.baseline_seconds, self.kernel_seconds)

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.joules * self.seconds


@dataclass
class StudyResult:
    """All entries of one study, with lookup helpers."""

    entries: list[StudyEntry] = field(default_factory=list)
    #: Executor observability (wall time, dedup, cache hits) for the
    #: run that produced the entries; ``None`` for hand-built results.
    stats: ExecStats | None = None
    #: Merged span/metric timeline of the run that produced the
    #: entries; ``None`` unless telemetry was requested.  Purely
    #: observational — goldens and speedup tables never read it, and
    #: entries are bit-identical with or without it.
    telemetry: Timeline | None = None
    #: Runs that exhausted their retry budget.  A cell whose baseline
    #: or model run failed is simply absent from ``entries``; the
    #: failures say which and why.
    failures: list[RunError] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every requested run produced an entry."""
        return not self.failures

    def get(
        self,
        app: str,
        model: str,
        apu: bool | None = None,
        precision: Precision | None = None,
        platform: str | None = None,
    ) -> StudyEntry:
        """Look one entry up by platform selector or legacy ``apu`` bool.

        ``platform`` (a plan selector: "apu"/"dgpu"/"v100") is the
        general form; ``apu`` remains for two-platform callers.
        """
        for entry in self.entries:
            if entry.app != app or entry.model != model:
                continue
            if precision is not None and entry.precision != precision:
                continue
            if platform is not None:
                if entry.platform_key != platform:
                    continue
            elif apu is not None and entry.apu != apu:
                continue
            return entry
        where = platform if platform is not None else ("APU" if apu else "dGPU")
        raise KeyError(f"no entry for {app}/{model}/{where}/{precision and precision.value}")

    def speedups(self, app: str, apu: bool, precision: Precision) -> dict[str, float]:
        """Model -> speedup for one app/platform/precision (one subplot
        of Figure 8 or 9)."""
        return {
            model: self.get(app, model, apu, precision).speedup for model in GPU_MODELS
        }


def run_port(
    app: ProxyApp,
    model: str,
    apu: bool,
    precision: Precision,
    config: object,
    projection: bool,
) -> RunResult:
    """Run one port on a fresh platform/context, priced from its charge log."""
    from ..engine.study_vec import priced_run  # loaded on first use, like the executor's
    ctx = ExecutionContext(
        platform=make_platform(apu=apu),
        precision=precision,
        execute_kernels=not projection,
    )
    return priced_run(app.ports[model], ctx, config)


def check_engine(engine: str) -> None:
    """Validate the ``engine=`` keyword of :func:`run_study` and
    :func:`~repro.core.sweep.run_sweep`, which selects nothing: every
    call runs :func:`~repro.exec.executor.execute`.  The benchmark
    harness (``perfbench/``) is its only caller and passes ``"vector"``
    or ``"scalar"``; the keyword goes with the harness change that
    stops passing it, and an unknown name fails meanwhile."""
    if engine not in ("vector", "scalar"):
        raise ValueError(f"unknown engine {engine!r}: expected 'vector' or 'scalar'")


def run_study(
    apps: tuple[ProxyApp, ...],
    apu_values: tuple[bool, ...] = (True, False),
    precisions: tuple[Precision, ...] = (Precision.SINGLE, Precision.DOUBLE),
    models: tuple[str, ...] = GPU_MODELS,
    platforms: tuple[str, ...] | None = None,
    paper_scale: bool = True,
    configs: dict[str, object] | None = None,
    max_workers: int = 1,
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
    engine: str = "vector",
) -> StudyResult:
    """Run the full comparison.

    ``paper_scale=True`` uses each app's paper-sized configuration in
    projection mode (launch/transfer schedules priced, numerics
    skipped); ``paper_scale=False`` runs the CI-sized configurations
    functionally.  ``configs`` overrides the configuration per app name.

    The matrix is flattened into independent run descriptors and
    executed in this process by :mod:`repro.exec`; ``use_cache`` backs
    kernel pricing with the content-addressed memo cache.
    ``telemetry`` records spans/metrics on the side (``.telemetry``)
    without perturbing the entries.

    ``policy``/``faults``/``checkpoint`` configure the fault-tolerance
    layer (retries and watchdogs, deterministic fault injection, and
    the resume journal); see :func:`repro.exec.execute`.  Runs that
    exhaust their retries are quarantined: the study returns its
    surviving entries with the losses in ``.failures`` instead of
    raising.

    ``engine`` selects nothing (see :func:`check_engine`), and
    ``max_workers`` accepts only 1: every study runs in this process.
    Both keywords remain for the benchmark harness, which passes them.

    ``platforms`` names plan selectors directly ("apu"/"dgpu"/"v100") —
    the general, cross-vendor form; when given it supersedes the legacy
    ``apu_values`` pair.
    """
    check_engine(engine)
    if max_workers != 1:
        raise ValueError(f"max_workers must be 1 (one process per study), got {max_workers}")
    if platforms is None:
        platforms = tuple(APU if apu else DGPU for apu in apu_values)
    resolved: dict[str, object] = {}
    for app in apps:
        if configs and app.name in configs:
            resolved[app.name] = configs[app.name]
        else:
            resolved[app.name] = app.paper_config() if paper_scale else app.default_config()

    runs = study_runs(
        app_names=[app.name for app in apps],
        configs=resolved,
        apu_values=None,
        precisions=precisions,
        models=models,
        baseline=BASELINE_MODEL,
        projection=paper_scale,
        platforms=platforms,
    )
    outcomes, stats = execute(
        runs,
        use_cache=use_cache,
        telemetry=telemetry,
        policy=policy,
        faults=faults,
        checkpoint=checkpoint,
    )

    # Reassemble in the plan's canonical order: baseline first, then
    # one outcome per model for each (app, platform, precision) cell.
    # Quarantined runs come back as ``None``: a lost model run drops
    # that one entry, a lost baseline drops its whole cell (there is
    # nothing to normalize against).
    result = StudyResult(stats=stats, telemetry=stats.timeline, failures=list(stats.failures))
    cursor = iter(outcomes)
    for app in apps:
        for platform in platforms:
            for precision in precisions:
                baseline_outcome = next(cursor)
                model_outcomes = [next(cursor) for _ in models]
                if baseline_outcome is None:
                    continue
                baseline = baseline_outcome.result
                for model, outcome in zip(models, model_outcomes):
                    if outcome is None:
                        continue
                    run = outcome.result
                    result.entries.append(
                        StudyEntry(
                            app=app.name,
                            model=model,
                            platform=run.platform,
                            apu=platform == APU,
                            precision=precision,
                            seconds=run.seconds,
                            kernel_seconds=run.kernel_seconds,
                            baseline_seconds=baseline.seconds,
                            platform_key=platform,
                            joules=getattr(run, "joules", 0.0),
                        )
                    )
    return result
