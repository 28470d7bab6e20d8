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
2. **Broadcast pricing** — per schedule group (the cells of a
   :class:`~repro.exec.plan.SpecLattice` group differ only in clocks),
   the GPU atoms are priced in one call over the (clock points x
   atoms) grid (:func:`~repro.engine.timing_vec.time_gpu_kernel_grid`):
   per-atom coefficients once, per-clock scalars as columns, and
   elementwise roofline arithmetic with no reduction, so every cell is
   the scalar formula's exact IEEE sequence.  CPU atoms never see the
   GPU clocks and are priced once per group.  Every (cell, atom) price
   then goes through :data:`~repro.engine.memo.KERNEL_CACHE` under
   exactly the key the scalar path uses, so either engine serves the
   other's cache.
3. **Fold** — simulated seconds and every counter are reassembled with
   ``np.add.accumulate`` along each cell's event stream: a strictly
   left-associated IEEE fold, the same addition sequence the port's
   accumulator and :class:`~repro.engine.counters.PerfCounters`
   performed — bit-identical, not merely close.  (``np.sum`` would use
   pairwise summation and drift in the last ulps.)  A group folds all
   its cells in one ``(cells x events)`` accumulate; the adds of each
   row are still that row's left fold.  Heterogeneous Compute's clock
   is not one accumulator but the makespan of a copy and a compute
   stream: its capture also records the runtime's stream steps, and
   the group replays them once over ``(cells,)`` columns of the same
   per-event charge returns (``np.maximum`` and adds in the runtime's
   order, no reduction), so each row is again the scalar sequence.

Cells the columnar engine cannot express run through the scalar engine
unchanged: functional (non-projection) runs, telemetry recordings
(spans are per-charge by construction), and fault-injection campaigns
(the chaos harness drives the scalar retry ladder).  The scalar path
is also the per-cell fallback if anything in the columnar path raises:
a group whose broadcast call raises is re-priced one cell at a time,
and only a cell that still raises falls back.

Deliberately *not* imported from ``repro.engine.__init__``:
``repro.models`` imports ``repro.engine.memo`` at import time, so
re-exporting this module (which imports ``repro.models.base``) from
the package root would create an import cycle.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..apps.base import RunResult
from ..engine import energy, memo
from ..engine.counters import PerfCounters
from ..engine.timing import KernelTiming
from ..engine.timing_vec import time_cpu_kernel_batch, time_gpu_kernel_grid
from ..exec.checkpoint import CheckpointJournal
from ..exec.executor import (
    ExecStats,
    ExecutionInterrupted,
    RunOutcome,
    _limited_by_tallies,
    execute,
)
from ..exec.faults import FaultPlan, ResultValidationError, RunError, fault_plan_from_env
from ..exec.plan import RunSpec, SpecLattice
from ..exec.retry import RetryPolicy, run_with_retry, validate_result
from ..models.base import ChargeLog, ExecutionContext

#: Models whose captured schedule the columnar engine prices: the
#: simulated clock is a single left fold of ``charge_*`` returns, or,
#: for Heterogeneous Compute, the makespan of its copy and compute
#: streams, replayed from the captured stream program.
VECTOR_MODELS = frozenset({
    "OpenMP", "Serial", "OpenCL", "C++ AMP", "OpenACC", "OpenMP Offload",
    "Heterogeneous Compute",
})


def vector_eligible(spec: RunSpec) -> bool:
    """Whether the columnar engine can price this cell.

    Projection mode only (functional runs execute kernel bodies, which
    capture skips by construction), for the models of
    :data:`VECTOR_MODELS`.
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
    #: The two-stream program of a Heterogeneous Compute capture
    #: (:attr:`~repro.models.base.ChargeLog.streams`), whose makespan is
    #: the run's clock; ``None`` for the single-accumulator models,
    #: whose clock is the left fold of every counted charge.
    streams: tuple[tuple[str, int, tuple[int, ...]], ...] | None = None


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
        streams=tuple(log.streams) if log.streams else None,
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


def _accumulate_rows(values: np.ndarray) -> np.ndarray:
    """:func:`_accumulate` of every row of a ``(rows, events)`` matrix.

    ``np.add.accumulate`` along the event axis is the same left fold
    per row: each output element is one IEEE add of the previous
    partial sum and the next event, whatever order the rows are swept
    in.
    """
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    return np.add.accumulate(values, axis=1)[:, -1]


def _makespan_rows(
    streams: Sequence[tuple[str, int, tuple[int, ...]]], contrib: np.ndarray
) -> np.ndarray:
    """:class:`~repro.models.hc.HCRuntime`'s makespan for every row of
    a ``(rows, events)`` matrix of charge returns.

    Replays the captured stream program once over ``(rows,)`` vectors
    in the runtime's own operation order: ``np.maximum`` is exact and
    each add is the runtime's add, with no reduction anywhere, so every
    row is the scalar run's IEEE sequence.  A ready slot never written
    reads 0.0, like the runtime's ``_ready.get(id(a), 0.0)``.
    """
    zero = np.zeros(contrib.shape[0])
    columns = contrib.T
    copy = compute = zero
    ready: dict[int, np.ndarray] = {}
    for kind, event, slots in streams:
        if kind == "launch":
            start = compute
            for slot in slots:
                start = np.maximum(start, ready.get(slot, zero))
            compute = start + columns[event]
        elif kind == "sync":
            copy = compute = np.maximum(copy, compute) + columns[event]
            for slot in slots:
                ready[slot] = copy
        elif kind == "async":
            copy = copy + columns[event]
            ready[slots[0]] = copy
        else:  # "ready0"
            ready[slots[0]] = zero
    return np.maximum(copy, compute)


#: The :class:`KernelTiming` fields the counters fold, in fold order.
_FOLDED = operator.attrgetter("seconds", "cycles", "instructions", "dram_bytes", "joules")


def price_cell(
    program: ChargeProgram, specs: Sequence[RunSpec]
) -> list[tuple[RunResult, memo.MemoStats]]:
    """Price one schedule group: every cell of ``specs`` from ``program``.

    The rows share ``program``'s schedule and differ at most in clock
    overrides (one :class:`~repro.exec.plan.SpecLattice` group); a
    single cell is a one-row group.  GPU atoms are priced in one
    broadcast call over (rows x atoms)
    (:func:`~repro.engine.timing_vec.time_gpu_kernel_grid`); CPU atoms
    are clock-independent and priced once for the group.  Every
    ``(row, atom)`` price then goes through one
    ``KERNEL_CACHE.lookup`` under the key the scalar engine uses, so
    hits, misses and stored values are interchangeable with scalar
    runs.  The folds run over the served prices, one strict left fold
    per row.

    Returns one ``(result, cache delta)`` pair per row, in order; the
    delta counts the ``KERNEL_CACHE`` lookups made for that row alone.
    """
    platforms = [spec.make_platform() for spec in specs]
    precision = specs[0].precision
    platform = platforms[0]
    host = platform.host
    atoms = program.atoms

    gpu_atoms = [i for i, atom in enumerate(atoms) if atom[0] == "gpu"]
    gpu_grid = time_gpu_kernel_grid(
        [atoms[i][1] for i in gpu_atoms], [p.gpu for p in platforms], precision
    )
    # One cache key part per atom, hashed once for the whole group:
    # the lowering's content for a GPU atom (the clock state joins per
    # row), the whole key for a CPU one.
    cpu_key = memo.cpu_state_key(host)
    atom_keys = [
        memo.HashedKey(
            atom[1].cache_key() if atom[0] == "gpu"
            else ("cpu-timing", atom[1], cpu_key, precision, atom[2])
        )
        for atom in atoms
    ]
    # CPU atoms do not see the GPU clocks: one batch per thread count.
    cpu_timings: dict[int, KernelTiming] = {}
    by_threads: dict[int, list[int]] = {}
    for i, atom in enumerate(atoms):
        if atom[0] == "cpu":
            by_threads.setdefault(atom[2], []).append(i)
    for threads, indices in by_threads.items():
        batch = time_cpu_kernel_batch(
            [atoms[i][1] for i in indices], host, precision, threads=threads
        )
        cpu_timings.update(zip(indices, batch))

    # Serve every (row, atom) price through the cache, row by row.
    column = {i: j for j, i in enumerate(gpu_atoms)}
    lookup = memo.KERNEL_CACHE.lookup
    served: list[list[KernelTiming]] = []
    deltas: list[memo.MemoStats] = []
    for p, grid_row in zip(platforms, gpu_grid):
        before = memo.KERNEL_CACHE.snapshot()
        gpu_key = memo.HashedKey(memo.gpu_state_key(p.gpu))
        served.append([
            lookup(key, lambda t=cpu_timings[i]: t) if i in cpu_timings
            else lookup(
                ("gpu-timing", key, gpu_key, precision), lambda t=grid_row[column[i]]: t
            )
            for i, key in enumerate(atom_keys)
        ])
        deltas.append(memo.KERNEL_CACHE.snapshot().since(before))

    # --- clock-independent terms, once per group ----------------------
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
    transfer_contrib = np.where(
        program.ev_counted, transfer_seconds[program.ev_xfer], 0.0
    )
    katoms = program.kernel_atoms
    atom_flops = np.array(
        [
            atom[1].spec.ops.flops if atom[0] == "gpu" else atom[1].ops.flops
            for atom in atoms
        ]
        + [0.0]
    )
    flops = _accumulate(atom_flops[katoms])
    launch_overhead = _accumulate(program.kernel_overheads)
    transfer_total = _accumulate(transfer_seconds[program.transfer_events])
    transfer_joules = _accumulate(xfer_joules[program.transfer_events])

    # --- per-row folds over the served prices (bit-identical) ---------
    # (rows, atoms + 1, field) with a zero trailing atom, so the -1
    # atom index of a transfer event gathers 0.0.
    fields = np.zeros((len(served), len(atoms) + 1, 5))
    fields[:, :-1, :] = np.array(
        [value for row in served for timing in row for value in _FOLDED(timing)]
    ).reshape(len(served), len(atoms), 5)
    # The port's clock: each counted charge contributes its return
    # value (kernel seconds + overhead as one add, then the fold add —
    # the same two-IEEE-add sequence the scalar accumulator performs),
    # or, for a two-stream program, the replayed makespan over the same
    # returns.
    kernel_contrib = fields[:, program.ev_atom, 0] + program.ev_overhead
    contrib = np.where(program.ev_atom >= 0, kernel_contrib, transfer_contrib)
    folds = np.stack(
        [
            _accumulate_rows(contrib) if program.streams is None
            else _makespan_rows(program.streams, contrib),
            *(_accumulate_rows(fields[:, katoms, k]) for k in range(5)),
        ],
        axis=1,
    )
    priced: list[tuple[RunResult, memo.MemoStats]] = []
    for spec, p, row, delta, (
        seconds, kernel_seconds, cycles, instructions, dram_bytes, kernel_joules,
    ) in zip(specs, platforms, served, deltas, folds.tolist()):
        gpu_name, host_name = p.gpu.name, p.host.name
        records = [
            timing.record(gpu_name if atom[0] == "gpu" else host_name)
            for atom, timing in zip(atoms, row)
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
            energy.static_joules(p.idle_watts, seconds)
            + counters.kernel_joules
            + counters.transfer_joules
        )
        priced.append((
            RunResult(
                app=program.app,
                model=program.model,
                platform=p.name,
                precision=spec.precision,
                seconds=seconds,
                kernel_seconds=kernel_seconds,
                checksum=program.checksum,
                counters=counters,
                joules=joules,
            ),
            delta,
        ))
    return priced


def price_specs(specs: Sequence[RunSpec]) -> list[RunResult | None]:
    """Price a batch of eligible cells columnar, preserving order.

    The serve batcher's cold-miss path: one capture and one
    :func:`price_cell` call per schedule group — no retry/journal
    machinery.  Every spec must satisfy :func:`vector_eligible`.

    Failures are isolated per group: a group whose broadcast call
    raises is re-priced one row at a time, and only a row that still
    raises, or whose group's capture failed, comes back as ``None``
    (the caller's scalar fallback prices it).
    """
    for spec in specs:
        if not vector_eligible(spec):
            raise ValueError(f"{spec.label}: not priceable by the columnar engine")
    lattice = SpecLattice.from_specs(list(specs))
    results: list[RunResult | None] = [None] * len(lattice.rows)
    for _key, rows in lattice.groups:
        for index, priced in _price_group(lattice, rows):
            if priced is not None:
                results[index] = priced[0]
    return results


def _price_group(
    lattice: SpecLattice, rows: Sequence[int]
) -> list[tuple[int, tuple[RunResult, memo.MemoStats] | None]]:
    """``(row, priced)`` for one lattice group, ``None`` where it failed.

    The group is priced in one broadcast call; if that raises, each row
    is re-priced as a one-row group, so one bad cell (an out-of-range
    clock, say) costs its group the fast path but no other row its
    columnar price.  A failed capture fails every row.
    """
    specs = [lattice.rows[row] for row in rows]
    try:
        program = cached_program(specs[0])
    except Exception:
        return [(row, None) for row in rows]
    try:
        return list(zip(rows, price_cell(program, specs)))
    except Exception:
        if len(rows) == 1:
            return [(rows[0], None)]
    isolated: list[tuple[int, tuple[RunResult, memo.MemoStats] | None]] = []
    for row, spec in zip(rows, specs):
        try:
            (priced,) = price_cell(program, [spec])
        except Exception:
            priced = None
        isolated.append((row, priced))
    return isolated


def _price_outcome(
    lattice: SpecLattice, rows: Sequence[int]
) -> list[tuple[int, RunOutcome | None]]:
    """One lattice group priced with the scalar path's observability
    envelope: ``(row, outcome)``, ``None`` where pricing or result
    validation failed.

    Each outcome's cache counters are the lookups made for its own
    row, so the per-row counts sum to the cache delta over the group.
    ``wall_seconds`` is the group's wall time (its capture included)
    divided by its row count: the rows are priced together, so that
    even share is the only per-row wall time there is.
    """
    started = time.perf_counter()
    priced = _price_group(lattice, rows)
    wall = (time.perf_counter() - started) / len(rows)
    outcomes: list[tuple[int, RunOutcome | None]] = []
    for row, pair in priced:
        outcome = None
        if pair is not None:
            result, delta = pair
            try:
                validate_result(result)
                outcome = RunOutcome(
                    spec=lattice.rows[row],
                    result=result,
                    wall_seconds=wall,
                    cache_hits=delta.hits,
                    cache_misses=delta.misses,
                )
            except ResultValidationError:
                pass  # left to the scalar retry ladder
        outcomes.append((row, outcome))
    return outcomes


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
        with memo.cache_setting(use_cache):
            indices = sorted(vector_cells)
            lattice = SpecLattice.from_specs([vector_cells[i] for i in indices])
            for _key, rows in lattice.groups:
                for row, outcome in _price_outcome(lattice, rows):
                    index, spec = indices[row], lattice.rows[row]
                    payload = (
                        outcome if outcome is not None
                        else run_with_retry(spec, policy, faults=faults)
                    )
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
            (o.spec, o.wall_seconds, o.cache_hits, o.cache_misses, 0, 0, 0, 0)
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
