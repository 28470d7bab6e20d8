"""Frequency-scaling characterization (Figure 7).

"Figure 7 demonstrates how their performance scales with memory and
core frequencies on a GPU, thereby providing an insight into the
application's compute and bandwidth requirements."

The sweep runs each application's OpenCL port on the discrete GPU at
every (core, memory) frequency pair of the paper's grid and reports
performance normalized to the slowest point (core=200 MHz at the
lowest memory clock).  The slopes classify boundedness: compute-bound
apps scale with the core clock, memory-bound apps with the memory
clock, balanced apps with both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import NamedTuple

from ..apps.base import ProxyApp
from ..exec.checkpoint import CheckpointJournal
from ..exec.executor import ExecStats, execute
from ..exec.faults import FaultPlan, RunError
from ..exec.plan import sweep_runs
from ..exec.retry import RetryPolicy
from ..hardware.frequency import PAPER_CORE_SWEEP_MHZ, PAPER_MEMORY_SWEEP_MHZ
from ..hardware.specs import Precision
from ..obs.export import Timeline
from .study import check_engine


class SweepPoint(NamedTuple):
    """One measured grid point (a named tuple: a dense grid builds
    thousands, and a tuple is the cheapest immutable record)."""

    core_mhz: float
    memory_mhz: float
    seconds: float
    normalized_performance: float


@dataclass
class SweepResult:
    """The full grid for one application (one subplot of Figure 7)."""

    app: str
    points: list[SweepPoint]
    #: Executor observability for the grid run; ``None`` when built by hand.
    stats: ExecStats | None = None
    #: Merged telemetry timeline; ``None`` unless requested.
    telemetry: Timeline | None = None
    #: Grid points lost to quarantined runs (absent from ``points``).
    failures: list[RunError] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every requested grid point was measured."""
        return not self.failures

    def series(self, memory_mhz: float) -> list[SweepPoint]:
        """One memory-frequency curve, ordered by core frequency."""
        line = [p for p in self.points if p.memory_mhz == memory_mhz]
        return sorted(line, key=lambda p: p.core_mhz)

    def get(self, core_mhz: float, memory_mhz: float) -> SweepPoint:
        for p in self.points:
            if p.core_mhz == core_mhz and p.memory_mhz == memory_mhz:
                return p
        raise KeyError(f"no sweep point at core={core_mhz}, mem={memory_mhz}")

    def core_sensitivity(self) -> float:
        """Relative speedup from the core-clock sweep at max memory clock."""
        line = self.series(max(p.memory_mhz for p in self.points))
        return line[0].seconds / line[-1].seconds

    def memory_sensitivity(self) -> float:
        """Relative speedup from the memory-clock sweep at max core clock."""
        core_max = max(p.core_mhz for p in self.points)
        column = sorted(
            (p for p in self.points if p.core_mhz == core_max),
            key=lambda p: p.memory_mhz,
        )
        return column[0].seconds / column[-1].seconds

    def classify(self) -> str:
        """Boundedness classification from the sweep slopes (Table I)."""
        core = self.core_sensitivity()
        memory = self.memory_sensitivity()
        if core > 1.5 * memory:
            return "Compute"
        if memory > 1.5 * core:
            return "Memory"
        return "Balanced"


def run_sweep(
    app: ProxyApp,
    config: object,
    precision: Precision = Precision.SINGLE,
    core_grid: tuple[float, ...] = PAPER_CORE_SWEEP_MHZ,
    memory_grid: tuple[float, ...] = PAPER_MEMORY_SWEEP_MHZ,
    model: str = "OpenCL",
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
    engine: str = "vector",
) -> SweepResult:
    """Sweep one application over the (core, memory) frequency grid.

    Grid points are independent simulations, flattened into run
    descriptors and executed by :mod:`repro.exec`: a projection grid is
    one schedule group, priced from one captured schedule (clock
    overrides never change which kernels launch), and a functional
    grid runs point by point.  ``policy``/``faults``/``checkpoint``
    configure the fault-tolerance layer (see
    :func:`repro.exec.execute`): quarantined
    grid points are dropped from ``points`` and reported in
    ``.failures`` instead of aborting the sweep.  ``engine`` selects
    nothing (see :func:`~repro.core.study.check_engine`).
    """
    check_engine(engine)
    # A repeated grid value would only repeat grid points: take each once.
    core_grid = tuple(dict.fromkeys(core_grid))
    memory_grid = tuple(dict.fromkeys(memory_grid))
    runs = sweep_runs(app.name, config, precision, core_grid, memory_grid, model)
    outcomes, stats = execute(
        runs,
        use_cache=use_cache,
        telemetry=telemetry,
        policy=policy,
        faults=faults,
        checkpoint=checkpoint,
    )

    # Normalize to the paper's anchor (slowest corner); if that exact
    # point was quarantined (its outcome is ``None``, reported via
    # failures), fall back to the slowest surviving point so the rest
    # of the grid still normalizes meaningfully.  The runs are
    # memory-major: point (core i, memory j) is run j * cores + i.
    # Kernel time only: Figure 7 characterizes device execution, and
    # PCIe transfer time is frequency-invariant noise here.
    anchor = outcomes[
        memory_grid.index(min(memory_grid)) * len(core_grid) + core_grid.index(min(core_grid))
    ] if outcomes else None
    slowest = anchor.result.kernel_seconds if anchor is not None else max(
        (o.result.kernel_seconds for o in outcomes if o is not None), default=0.0
    )
    # ``tuple.__new__`` skips the named tuple's Python-level ``__new__``:
    # a third of the cost on dense grids.
    new = tuple.__new__
    points = [
        new(SweepPoint, (core, memory, seconds, slowest / seconds))
        for (memory, core), outcome in zip(product(memory_grid, core_grid), outcomes)
        if outcome is not None
        for seconds in (outcome.result.kernel_seconds,)
    ]
    return SweepResult(
        app=app.name,
        points=points,
        stats=stats,
        telemetry=stats.timeline,
        failures=list(stats.failures),
    )
