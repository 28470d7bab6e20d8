"""Columnar whole-study pricing engine.

The scalar engine (:mod:`repro.exec.executor`) prices a study cell by
*running* its port: the port re-executes its host logic, re-builds (or
deep-copies) its problem setup, and issues tens of thousands of
``charge_*`` calls, each a Python-level price-and-record round trip.
At paper scale that costs minutes for a matrix whose actual pricing
content is a few hundred unique kernels.

This engine lowers the matrix instead of looping it:

1. **Capture** — each distinct schedule signature
   (:meth:`~repro.exec.plan.RunSpec.schedule_key`) runs its port once
   in capture mode: a :class:`~repro.models.base.ChargeLog` on the
   context turns every ``charge_*`` call into an event append over a
   deduplicated atom table.  Problem setups are served by registered
   projection stubs (shape-faithful, no data, no deep copies).  The
   captured :class:`ChargeProgram` is clock-independent and memoized in
   :data:`~repro.engine.memo.PLAN_CACHE`, so an entire frequency sweep
   shares one capture.
2. **Batch pricing** — per cell, the atoms missing from
   :data:`~repro.engine.memo.KERNEL_CACHE` are priced in one columnar
   call (:mod:`repro.engine.timing_vec`), under exactly the keys the
   scalar path uses, so either engine serves the other's cache.
3. **Fold** — simulated seconds and every counter are reassembled with
   ``np.add.accumulate`` over the event stream: a strictly
   left-associated IEEE fold, the same addition sequence the port's
   accumulator and :class:`~repro.engine.counters.PerfCounters`
   performed — bit-identical, not merely close.  (``np.sum`` would use
   pairwise summation and drift in the last ulps.)

Cells the fold cannot express run through the scalar engine unchanged:
functional (non-projection) runs, the Heterogeneous Compute model
(a two-queue makespan, not a single accumulator), telemetry recordings
(spans are per-charge by construction), and fault-injection campaigns
(the chaos harness drives the scalar retry ladder).  The scalar path
is also the per-cell fallback if anything in the columnar path raises.

Deliberately *not* imported from ``repro.engine.__init__``:
``repro.models`` imports ``repro.engine.memo`` at import time, so
re-exporting this module (which imports ``repro.models.base``) from
the package root would create an import cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..apps.base import RunResult
from ..engine import energy, memo
from ..engine.counters import PerfCounters
from ..engine.timing import KernelTiming
from ..engine.timing_vec import time_cpu_kernel_batch, time_gpu_kernel_batch
from ..exec.checkpoint import CheckpointJournal
from ..exec.executor import (
    ExecStats,
    ExecutionInterrupted,
    RunOutcome,
    _cache_setting,
    _limited_by_tallies,
    execute,
)
from ..exec.faults import FaultPlan, RunError, fault_plan_from_env
from ..exec.plan import RunSpec, SpecLattice
from ..exec.retry import RetryPolicy, run_with_retry, validate_result
from ..models.base import ChargeLog, ExecutionContext

#: Models whose simulated clock is a single left-fold of ``charge_*``
#: returns.  Heterogeneous Compute is excluded: its CPU and GPU queues
#: accumulate separately and the run time is their makespan.
VECTOR_MODELS = frozenset(
    {"OpenMP", "Serial", "OpenCL", "C++ AMP", "OpenACC", "OpenMP Offload"}
)


def vector_eligible(spec: RunSpec) -> bool:
    """Whether the columnar engine can price this cell.

    Projection mode only (functional runs execute kernel bodies, which
    capture skips by construction), and single-accumulator models only.
    """
    return spec.projection and spec.model in VECTOR_MODELS


@dataclass(frozen=True)
class ChargeProgram:
    """One port's captured schedule, lowered to arrays.

    Immutable and clock-independent: every cell sharing a schedule key
    prices this same program against its own device state.  Event
    arrays are parallel over the capture's charge order; ``-1`` marks
    the unused index column of an event.
    """

    app: str
    model: str
    checksum: float
    #: Unique priceable units: ``("gpu", LoweredKernel)`` or
    #: ``("cpu", KernelSpec, threads)``.
    atoms: tuple[tuple, ...]
    #: Unique ``(nbytes, direction)`` copies.
    transfers: tuple[tuple[int, str], ...]
    ev_atom: np.ndarray  #: (E,) int64 atom index, -1 for transfers
    ev_overhead: np.ndarray  #: (E,) float64 launch/region overhead
    ev_xfer: np.ndarray  #: (E,) int64 transfer index, -1 for kernels
    ev_counted: np.ndarray  #: (E,) bool: charge return reached the port's clock
    #: Kernel-event subsequence (atom index per kernel event, in order)
    #: and its overheads — the counters fold only sees these.
    kernel_atoms: np.ndarray
    kernel_overheads: np.ndarray
    #: Transfer-event subsequence (transfer index per transfer event).
    transfer_events: np.ndarray
    #: Exact byte totals by direction (Python ints, like the counters).
    bytes_to_device: int
    bytes_to_host: int


def capture_program(spec: RunSpec) -> ChargeProgram:
    """Run ``spec``'s port once in capture mode and lift its schedule.

    The capture platform uses default clocks — legitimate because the
    schedule is clock-independent — and projection stubs serve the
    problem setups, so capture cost is the port's host logic only.
    """
    from ..apps import APPS_BY_NAME
    from ..hardware.device import platform_for

    app = APPS_BY_NAME[spec.app]
    log = ChargeLog()
    ctx = ExecutionContext(
        platform=platform_for(spec.platform),
        precision=spec.precision,
        execute_kernels=False,
        charge_log=log,
    )
    with memo.projection_stubs():
        result = app.ports[spec.model](ctx, spec.config)

    # Lift by gathering the unique events' columns along the id stream.
    table = log.event_table
    ids = np.array(log.event_ids, dtype=np.int64)
    ev_atom = np.array([e[0] for e in table], dtype=np.int64)[ids]
    ev_overhead = np.array([e[1] for e in table], dtype=np.float64)[ids]
    ev_xfer = np.array([e[2] for e in table], dtype=np.int64)[ids]
    ev_counted = np.array([e[3] for e in table], dtype=bool)[ids]

    kernel_mask = ev_atom >= 0
    transfer_events = ev_xfer[ev_xfer >= 0]
    # Exact Python-int totals: each unique copy's bytes times its count.
    uses = np.bincount(transfer_events, minlength=len(log.transfers))
    bytes_to_device = 0
    bytes_to_host = 0
    for (nbytes, direction), count in zip(log.transfers, uses.tolist()):
        if direction == "h2d":
            bytes_to_device += nbytes * count
        else:
            bytes_to_host += nbytes * count

    return ChargeProgram(
        app=spec.app,
        model=spec.model,
        checksum=result.checksum,
        atoms=tuple(log.atoms),
        transfers=tuple(log.transfers),
        ev_atom=ev_atom,
        ev_overhead=ev_overhead,
        ev_xfer=ev_xfer,
        ev_counted=ev_counted,
        kernel_atoms=ev_atom[kernel_mask],
        kernel_overheads=ev_overhead[kernel_mask],
        transfer_events=transfer_events,
        bytes_to_device=bytes_to_device,
        bytes_to_host=bytes_to_host,
    )


def cached_program(spec: RunSpec) -> ChargeProgram:
    """The memoized capture for ``spec``'s schedule signature."""
    return memo.PLAN_CACHE.lookup(
        ("plan", *spec.schedule_key()), lambda: capture_program(spec)
    )


def _accumulate(values: np.ndarray) -> float:
    """Strict left-fold sum — the exact addition order of a scalar
    ``+=`` accumulator (``np.sum`` is pairwise and differs in ulps)."""
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def price_cell(program: ChargeProgram, spec: RunSpec) -> RunResult:
    """Price one captured program on one cell's device state.

    Atoms absent from :data:`~repro.engine.memo.KERNEL_CACHE` are
    priced in one columnar batch per device kind; every atom then goes
    through the same ``KERNEL_CACHE.lookup`` keys the scalar engine
    uses, so hits, misses and stored values are interchangeable with
    scalar runs.
    """
    from ..hardware.device import platform_for

    platform = platform_for(spec.platform)
    if spec.core_mhz is not None:
        platform.gpu.core_clock.set(spec.core_mhz)
    if spec.memory_mhz is not None:
        platform.gpu.memory_clock.set(spec.memory_mhz)
    gpu, host = platform.gpu, platform.host
    gpu_key = memo.gpu_state_key(gpu)
    cpu_key = memo.cpu_state_key(host)

    keys: list[tuple] = []
    for atom in program.atoms:
        if atom[0] == "gpu":
            keys.append(("gpu-timing", atom[1].cache_key(), gpu_key, spec.precision))
        else:
            keys.append(("cpu-timing", atom[1], cpu_key, spec.precision, atom[2]))

    # One columnar pricing call per device kind over the cache misses.
    batched: dict[int, KernelTiming] = {}
    gpu_pending = [
        i
        for i, atom in enumerate(program.atoms)
        if atom[0] == "gpu" and not memo.KERNEL_CACHE.contains(keys[i])
    ]
    if gpu_pending:
        batch = time_gpu_kernel_batch(
            [program.atoms[i][1] for i in gpu_pending], gpu, spec.precision
        )
        batched.update(zip(gpu_pending, batch))
    cpu_pending: dict[int, list[int]] = {}
    for i, atom in enumerate(program.atoms):
        if atom[0] == "cpu" and not memo.KERNEL_CACHE.contains(keys[i]):
            cpu_pending.setdefault(atom[2], []).append(i)
    for threads, indices in cpu_pending.items():
        batch = time_cpu_kernel_batch(
            [program.atoms[i][1] for i in indices], host, spec.precision, threads=threads
        )
        batched.update(zip(indices, batch))

    timings = [
        memo.KERNEL_CACHE.lookup(keys[i], lambda i=i: batched[i])
        for i in range(len(program.atoms))
    ]

    # --- folds (bit-identical reconstruction) -------------------------
    atom_seconds = np.array([t.seconds for t in timings] + [0.0])
    xfer_seconds = [
        platform.interconnect.transfer(nbytes, direction)
        for nbytes, direction in program.transfers
    ]
    transfer_seconds = np.array(xfer_seconds + [0.0])
    # Per-transfer energy through the same scalar helper, on the same
    # Python floats, as ``Toolchain.charge_transfer``.
    link_w = platform.interconnect.spec.active_w
    xfer_joules = np.array(
        [energy.transfer_joules(link_w, s) for s in xfer_seconds] + [0.0]
    )
    # The port's clock: each counted charge contributes its return
    # value (kernel seconds + overhead as one add, then the fold add —
    # the same two-IEEE-add sequence the scalar accumulator performs).
    kernel_contrib = atom_seconds[program.ev_atom] + program.ev_overhead
    transfer_contrib = np.where(
        program.ev_counted, transfer_seconds[program.ev_xfer], 0.0
    )
    seconds = _accumulate(
        np.where(program.ev_atom >= 0, kernel_contrib, transfer_contrib)
    )

    katoms = program.kernel_atoms
    kernel_seconds = _accumulate(atom_seconds[katoms])
    cycles = _accumulate(np.array([t.cycles for t in timings] + [0.0])[katoms])
    instructions = _accumulate(
        np.array([t.instructions for t in timings] + [0.0])[katoms]
    )
    dram_bytes = _accumulate(np.array([t.dram_bytes for t in timings] + [0.0])[katoms])
    atom_flops = np.array(
        [
            atom[1].spec.ops.flops if atom[0] == "gpu" else atom[1].ops.flops
            for atom in program.atoms
        ]
        + [0.0]
    )
    flops = _accumulate(atom_flops[katoms])
    launch_overhead = _accumulate(program.kernel_overheads)
    transfer_total = _accumulate(transfer_seconds[program.transfer_events])
    kernel_joules = _accumulate(np.array([t.joules for t in timings] + [0.0])[katoms])
    transfer_joules = _accumulate(xfer_joules[program.transfer_events])

    records = [
        timing.record(gpu.name if atom[0] == "gpu" else host.name)
        for atom, timing in zip(program.atoms, timings)
    ]
    counters = PerfCounters(
        kernel_seconds=kernel_seconds,
        transfer_seconds=transfer_total,
        host_seconds=0.0,
        launch_overhead_seconds=launch_overhead,
        instructions=instructions,
        cycles=cycles,
        flops=flops,
        dram_bytes=dram_bytes,
        bytes_to_device=program.bytes_to_device,
        bytes_to_host=program.bytes_to_host,
        kernel_launches=len(katoms),
        transfers=len(program.transfer_events),
        kernel_joules=kernel_joules,
        transfer_joules=transfer_joules,
        kernels=[records[i] for i in katoms],
    )
    # Same three-term addition sequence as ``apps.base.make_result``.
    joules = (
        energy.static_joules(platform.idle_watts, seconds)
        + counters.kernel_joules
        + counters.transfer_joules
    )
    return RunResult(
        app=program.app,
        model=program.model,
        platform=platform.name,
        precision=spec.precision,
        seconds=seconds,
        kernel_seconds=kernel_seconds,
        checksum=program.checksum,
        counters=counters,
        joules=joules,
    )


def price_specs(specs: Sequence[RunSpec]) -> list[RunResult]:
    """Price a batch of eligible cells columnar, preserving order.

    The serve batcher's cold-miss path: one capture per schedule
    signature, then per-cell pricing — no retry/journal machinery.
    Every spec must satisfy :func:`vector_eligible`.
    """
    for spec in specs:
        if not vector_eligible(spec):
            raise ValueError(f"{spec.label}: not priceable by the columnar engine")
    lattice = SpecLattice.from_specs(list(specs))
    results: list[RunResult | None] = [None] * len(lattice.rows)
    for _key, rows in lattice.groups:
        program = cached_program(lattice.rows[rows[0]])
        for index in rows:
            results[index] = price_cell(program, lattice.rows[index])
    return results  # type: ignore[return-value]


def _price_outcome(spec: RunSpec, program: ChargeProgram) -> RunOutcome:
    """One cell priced with the scalar path's observability envelope."""
    before = memo.KERNEL_CACHE.snapshot()
    started = time.perf_counter()
    result = price_cell(program, spec)
    validate_result(result)
    wall = time.perf_counter() - started
    delta = memo.KERNEL_CACHE.snapshot().since(before)
    return RunOutcome(
        spec=spec,
        result=result,
        wall_seconds=wall,
        cache_hits=delta.hits,
        cache_misses=delta.misses,
    )


def execute_vector(
    runs: Sequence[RunSpec],
    max_workers: int = 1,
    use_cache: bool = True,
    telemetry: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | Path | CheckpointJournal | None = None,
) -> tuple[list[RunOutcome | None], ExecStats]:
    """Drop-in columnar counterpart of :func:`repro.exec.executor.execute`.

    Same contract: outcomes in submission order, content-equal specs
    share one outcome, failures come back as ``None`` slots plus
    :class:`~repro.exec.faults.RunError` rows, checkpoint journals are
    honoured.  Eligible cells are priced columnar in-process (the whole
    point is that this is fast); ineligible cells are delegated to the
    scalar executor, which may fan them out over ``max_workers``.

    Telemetry and active fault plans delegate the entire call: spans
    are recorded per charge and the chaos harness drives the scalar
    retry ladder, so both are scalar-engine semantics by definition.
    """
    policy = policy if policy is not None else RetryPolicy()
    if faults is None:
        faults = fault_plan_from_env()
    if telemetry or (faults is not None and faults.active):
        return execute(
            runs,
            max_workers=max_workers,
            use_cache=use_cache,
            telemetry=telemetry,
            policy=policy,
            faults=faults,
            checkpoint=checkpoint,
        )

    started = time.perf_counter()
    journal: CheckpointJournal | None = None
    if checkpoint is not None:
        journal = (
            checkpoint
            if isinstance(checkpoint, CheckpointJournal)
            else CheckpointJournal.open(checkpoint)
        )

    # Content-address the descriptors: first occurrence wins the slot.
    unique: list[RunSpec] = []
    slot_of: dict[str, int] = {}
    placement: list[int] = []
    for spec in runs:
        key = spec.content_key()
        if key not in slot_of:
            slot_of[key] = len(unique)
            unique.append(spec)
        placement.append(slot_of[key])

    executed: list[RunOutcome | None] = [None] * len(unique)
    errors: dict[int, RunError] = {}
    resumed = 0
    pending: dict[int, RunSpec] = {}
    for index, spec in enumerate(unique):
        restored = journal.restore(spec.content_key()) if journal is not None else None
        if restored is not None:
            executed[index] = restored
            resumed += 1
        else:
            pending[index] = spec

    vector_cells = {i: s for i, s in pending.items() if vector_eligible(s)}
    tail_cells = {i: s for i, s in pending.items() if i not in vector_cells}

    interrupted = False
    try:
        with _cache_setting(use_cache):
            indices = sorted(vector_cells)
            lattice = SpecLattice.from_specs([vector_cells[i] for i in indices])
            for _key, rows in lattice.groups:
                program: ChargeProgram | None
                try:
                    program = cached_program(lattice.rows[rows[0]])
                except Exception:
                    program = None  # every cell of the group falls back
                for row in rows:
                    index, spec = indices[row], lattice.rows[row]
                    payload: RunOutcome | RunError
                    if program is not None:
                        try:
                            payload = _price_outcome(spec, program)
                        except Exception:
                            payload = run_with_retry(spec, policy, faults=faults)
                    else:
                        payload = run_with_retry(spec, policy, faults=faults)
                    if isinstance(payload, RunError):
                        errors[index] = payload
                    else:
                        executed[index] = payload
                        if journal is not None:
                            journal.record(payload)
    except KeyboardInterrupt:
        interrupted = True

    vector_stats = ExecStats(
        requested_runs=len(runs) - len(tail_cells),
        unique_runs=len(unique) - len(tail_cells),
        workers=1,
        wall_seconds=time.perf_counter() - started,
        run_seconds=sum(o.wall_seconds for o in executed if o is not None),
        cache_hits=sum(o.cache_hits for o in executed if o is not None),
        cache_misses=sum(o.cache_misses for o in executed if o is not None),
        per_run=[
            (o.spec.label, o.wall_seconds, o.cache_hits, o.cache_misses, 0, 0, 0, 0)
            for o in executed
            if o is not None
        ],
        limited_by=_limited_by_tallies(executed),
        failures=[errors[index] for index in sorted(errors)],
        resumed_runs=resumed,
    )
    if interrupted:
        if journal is not None:
            journal.close()
        raise ExecutionInterrupted(
            stats=vector_stats,
            completed=sum(1 for o in executed if o is not None),
            checkpoint=journal.path if journal is not None else None,
        )

    if tail_cells:
        tail_indices = sorted(tail_cells)
        try:
            tail_outcomes, tail_stats = execute(
                [tail_cells[i] for i in tail_indices],
                max_workers=max_workers,
                use_cache=use_cache,
                telemetry=False,
                policy=policy,
                faults=faults,
                checkpoint=journal,  # execute() closes it
            )
        except ExecutionInterrupted as exc:
            merged = vector_stats.merge(exc.stats)
            raise ExecutionInterrupted(
                stats=merged,
                completed=sum(1 for o in executed if o is not None) + exc.completed,
                checkpoint=exc.checkpoint,
            ) from None
        for index, outcome in zip(tail_indices, tail_outcomes):
            executed[index] = outcome
        stats = vector_stats.merge(tail_stats)
    else:
        if journal is not None:
            journal.close()
        stats = vector_stats

    outcomes = [executed[slot] for slot in placement]
    return outcomes, stats
