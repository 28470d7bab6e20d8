"""Columnar whole-study pricing engine, and the one pricer of every run.

A port run never prices as it goes: every ``charge_*`` call appends an
event to the :class:`~repro.models.base.ChargeLog` its context carries
and returns 0.0.  Pricing happens afterwards, from the log, here.  A
paper-scale study's ports issue tens of thousands of charges, but the
matrix's actual pricing content is a few hundred unique kernels, so
this engine lowers the matrix instead of looping it:

1. **Capture** — each distinct schedule signature
   (:meth:`~repro.exec.plan.RunSpec.schedule_key`) runs its port once
   in projection mode, and :func:`lift` turns its log into a flat
   event stream over a deduplicated atom table.  Problem setups are
   served by registered projection stubs (shape-faithful, no data, no
   deep copies).  The captured :class:`ChargeProgram` is
   clock-independent and memoized in
   :data:`~repro.engine.memo.PLAN_CACHE`, so an entire frequency sweep
   shares one capture.
2. **Broadcast pricing** — per schedule group (the cells of a
   :class:`~repro.exec.plan.SpecLattice` group differ only in clocks),
   the GPU atoms are priced in one call over the (clock points x
   atoms) grid (:func:`~repro.engine.timing_vec.time_gpu_kernel_grid`):
   per-atom coefficients once, per-clock scalars as columns, and
   elementwise roofline arithmetic with no reduction, so every cell is
   the one-kernel formula's exact IEEE sequence.  CPU atoms never see
   the GPU clocks and are priced once per group.  The priced arrays are
   scattered straight into the fold's ``(field, cells, atoms)`` tensor,
   with each cell's launches counted by limiter from the atoms' limiter
   codes and use counts: no per-launch object, and no
   :data:`~repro.engine.memo.KERNEL_CACHE` traffic (that cache serves
   the one-kernel calls of validation and the ablations only).
3. **Fold** — simulated seconds and every counter are reassembled with
   ``np.add.accumulate`` along each cell's event stream: a strictly
   left-associated IEEE fold, the addition sequence of a ``+=``
   accumulator over the charges.  (``np.sum`` would use pairwise
   summation and drift in the last ulps.)  A group folds all its cells
   in one ``(cells x events)`` accumulate; the adds of each row are
   still that row's left fold, so a row priced in a group is
   bit-identical to the same row priced alone.  Heterogeneous
   Compute's clock is not one accumulator but the makespan of a copy
   and a compute stream: the runtime records its stream steps into the
   log, and the group replays them once over ``(cells,)`` columns of
   the per-event charge prices (``np.maximum`` and adds in the
   runtime's order, no reduction).

Every priced run goes through :func:`price_cell`.  The executor
(:func:`repro.exec.executor.execute`) prices each schedule group of
projection cells through :func:`_price_outcome`; its one-run path
(:func:`repro.exec.executor.execute_run`) prices a projection cell as
the same :func:`cached_program` plus a one-row :func:`price_cell`, and
every other port call — functional runs, ``ProxyApp.run``,
``core.study.run_port`` — goes through :func:`priced_run`: run the
port, :func:`lift` the charge log its context holds, price it as one
row.  A cell priced in its group and the same cell priced alone are
therefore equal by construction.  The one-run path is the envelope of
per-run telemetry (with a recorder active, :func:`price_cell` replays
each row's charges into it in charge order), fault injection and the
retry ladder.  Functional cells, runs with telemetry and
fault-injection campaigns take that envelope; within a group, a
broadcast call that raises is re-priced one cell at a time, and only a
cell that still raises falls back to it.

Deliberately *not* imported from ``repro.engine.__init__``:
``repro.models`` imports ``repro.engine.memo`` at import time, so
re-exporting this module (which imports ``repro.models.base``) from
the package root would create an import cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..apps.base import Port, RunResult
from ..engine import energy, memo
from ..engine.counters import LIMITERS, PerfCounters
from ..engine.timing_vec import KernelPrices, time_cpu_kernel_batch, time_gpu_kernel_grid
from ..exec.executor import RunOutcome
from ..exec.faults import ResultValidationError
from ..exec.plan import RunSpec, SpecLattice
from ..exec.retry import validate_result
from ..hardware.device import Platform
from ..hardware.specs import Precision
from ..models.base import ChargeLog, ExecutionContext
from ..obs import spans as obs_spans


def vector_eligible(spec: RunSpec) -> bool:
    """Whether the columnar engine can price this cell: projection mode
    only (functional runs execute kernel bodies, which capture skips by
    construction)."""
    return spec.projection


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
    #: (E,) event-table index of every charge, and the table's
    #: :attr:`~repro.models.base.ChargeLog.event_meta`: what the
    #: telemetry replay names each charge.
    event_ids: np.ndarray
    event_meta: tuple[tuple, ...]
    #: The two-stream program of a Heterogeneous Compute capture
    #: (:attr:`~repro.models.base.ChargeLog.streams`), whose makespan is
    #: the run's clock; ``None`` for the single-accumulator models,
    #: whose clock is the left fold of every counted charge.
    streams: tuple[tuple[str, int, tuple[int, ...]], ...] | None = None


def capture_program(spec: RunSpec) -> ChargeProgram:
    """Run ``spec``'s port once in projection mode and lift its log.

    The capture platform uses default clocks — legitimate because the
    schedule is clock-independent — and projection stubs serve the
    problem setups, so capture cost is the port's host logic only.
    """
    from ..apps import APPS_BY_NAME
    from ..hardware.device import platform_for

    ctx = ExecutionContext(
        platform=platform_for(spec.platform),
        precision=spec.precision,
        execute_kernels=False,
    )
    with memo.projection_stubs():
        result = APPS_BY_NAME[spec.app].ports[spec.model](ctx, spec.config)
    return lift(ctx.charge_log, spec.app, spec.model, result.checksum)


def lift(log: ChargeLog, app: str, model: str, checksum: float) -> ChargeProgram:
    """Lower a finished charge log to its :class:`ChargeProgram`."""
    # Gather the unique events' columns along the id stream.
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
        app=app,
        model=model,
        checksum=checksum,
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
        event_ids=ids,
        event_meta=tuple(log.event_meta),
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


#: The priced-kernel arrays the counters fold, in fold order.
_FOLDED = ("seconds", "cycles", "instructions", "dram_bytes", "joules")


def price_cell(
    program: ChargeProgram, platforms: Sequence[Platform], precision: Precision
) -> list[RunResult]:
    """Price one schedule group: ``program`` on every platform of
    ``platforms``, at ``precision``.

    The rows share ``program``'s schedule and differ at most in clock
    overrides (one :class:`~repro.exec.plan.SpecLattice` group); a
    single run is a one-row group.  GPU atoms are priced in one
    broadcast call over (rows x atoms)
    (:func:`~repro.engine.timing_vec.time_gpu_kernel_grid`); CPU atoms
    are clock-independent and priced once for the group.  Their arrays
    are scattered into one ``(field, rows, atoms)`` tensor and folded,
    one strict left fold per row: no per-launch object is built and no
    memo cache is consulted.  With a span recorder active, each row's
    charges are replayed into it (:func:`_replay`).  Returns one result
    per row, in order.
    """
    platform = platforms[0]
    atoms = program.atoms

    # (field, rows, atoms + 1) with a zero trailing atom, so the -1
    # atom index of a transfer event gathers 0.0; the limiter code of
    # every (row, atom); and every atom's occupancy.
    fields = np.zeros((len(_FOLDED), len(platforms), len(atoms) + 1))
    limiter = np.empty((len(platforms), len(atoms)), dtype=np.int64)
    waves = [0] * len(atoms)

    def scatter(indices: list[int], prices: KernelPrices) -> None:
        for plane, name in zip(fields, _FOLDED):
            plane[:, indices] = getattr(prices, name)
        limiter[:, indices] = prices.limiter
        for index, occupancy in zip(indices, prices.waves):
            waves[index] = occupancy

    gpu_atoms = [i for i, atom in enumerate(atoms) if atom[0] == "gpu"]
    if gpu_atoms:
        scatter(gpu_atoms, time_gpu_kernel_grid(
            [atoms[i][1] for i in gpu_atoms], [p.gpu for p in platforms], precision
        ))
    # CPU atoms do not see the GPU clocks: one batch per thread count,
    # broadcast over the rows.
    by_threads: dict[int, list[int]] = {}
    for i, atom in enumerate(atoms):
        if atom[0] == "cpu":
            by_threads.setdefault(atom[2], []).append(i)
    for threads, indices in by_threads.items():
        scatter(indices, time_cpu_kernel_batch(
            [atoms[i][1] for i in indices], platform.host, precision, threads=threads
        ))

    # --- clock-independent terms, once per group ----------------------
    xfer_seconds = [
        platform.interconnect.transfer(nbytes, direction)
        for nbytes, direction in program.transfers
    ]
    transfer_seconds = np.array(xfer_seconds + [0.0])
    # Per-transfer energy through the scalar helper, per unique copy.
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
    # Launches by limiter: each atom's code against its launch count,
    # in exact integer arithmetic.
    uses = np.bincount(katoms, minlength=len(atoms))
    launches = [
        np.where(limiter == code, uses, 0).sum(axis=1).tolist()
        for code in range(len(LIMITERS))
    ]

    # --- per-row folds over the priced arrays (bit-identical) ---------
    # The port's clock: each counted charge contributes its return
    # value (kernel seconds + overhead as one add, then the fold add —
    # the same two-IEEE-add sequence the scalar accumulator performs),
    # or, for a two-stream program, the replayed makespan over the same
    # returns.
    kernel_contrib = fields[0][:, program.ev_atom] + program.ev_overhead
    contrib = np.where(program.ev_atom >= 0, kernel_contrib, transfer_contrib)
    folds = np.stack(
        [
            _accumulate_rows(contrib) if program.streams is None
            else _makespan_rows(program.streams, contrib),
            *(_accumulate_rows(plane[:, katoms]) for plane in fields),
        ],
        axis=1,
    )
    results: list[RunResult] = []
    for p, floor, compute, memory, (
        seconds, kernel_seconds, cycles, instructions, dram_bytes, kernel_joules,
    ) in zip(platforms, *launches, folds.tolist()):
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
            floor_launches=floor,
            compute_launches=compute,
            memory_launches=memory,
        )
        # Static draw over the run's duration, then dynamic energy.
        joules = (
            energy.static_joules(p.idle_watts, seconds)
            + counters.kernel_joules
            + counters.transfer_joules
        )
        results.append(RunResult(
            app=program.app,
            model=program.model,
            platform=p.name,
            precision=precision,
            seconds=seconds,
            kernel_seconds=kernel_seconds,
            checksum=program.checksum,
            counters=counters,
            joules=joules,
        ))
    rec = obs_spans.active()
    if rec is not None:
        for row, p in enumerate(platforms):
            _replay(
                rec, program, p, fields[:, row].tolist(), limiter[row].tolist(), waves,
                xfer_seconds,
            )
    return results


def _replay(
    rec: obs_spans.SpanRecorder,
    program: ChargeProgram,
    platform: Platform,
    prices: list[list[float]],
    limiter: list[int],
    waves: list[int],
    xfer_seconds: list[float],
) -> None:
    """Record one priced row's charges into ``rec``, in charge order.

    ``prices`` are the row's :data:`_FOLDED` planes by atom, ``limiter``
    and ``waves`` its limiter codes and occupancies by atom.  Each
    kernel becomes a kernel span plus its launch (GPU) or region (CPU,
    when it has an overhead) span; each copy, counted or not, a
    transfer span.  Kernel time, limiter and copied-byte metrics are
    labelled by app, model and device.
    """
    seconds, _cycles, instructions, dram_bytes, _joules = prices
    device = platform.key or ("apu" if platform.is_apu else "dgpu")
    app = rec.meta.get("app", "")
    for atom, overhead, xfer, event in zip(
        program.ev_atom.tolist(), program.ev_overhead.tolist(),
        program.ev_xfer.tolist(), program.event_ids.tolist(),
    ):
        meta = program.event_meta[event]
        model = meta[0]
        if atom < 0:
            nbytes, direction = program.transfers[xfer]
            rec.add(
                f"{device}/interconnect", direction, "transfer", xfer_seconds[xfer],
                bytes=nbytes, model=model,
            )
            rec.metrics.counter(
                "repro_transfer_bytes_total",
                help="Host<->device bytes moved.",
                app=app, model=model, device=device, direction=direction,
            ).inc(nbytes)
            continue
        name = meta[1]
        limited_by = LIMITERS[limiter[atom]]
        if program.atoms[atom][0] == "gpu":
            n_buffers, mapped_bytes, overheads = meta[2:]
            track = f"{device}/gpu"
            rec.add(
                track, name, "kernel", seconds[atom],
                limited_by=limited_by,
                instructions=instructions[atom],
                dram_bytes=dram_bytes[atom],
                occupancy_waves=waves[atom],
                model=model,
            )
            rec.add(
                track, f"launch:{name}", "launch", overhead,
                n_buffers=n_buffers, mapped_bytes=mapped_bytes,
                **overheads.cost_components(n_buffers, mapped_bytes),
            )
        else:
            track = f"{device}/host"
            rec.add(
                track, name, "kernel", seconds[atom],
                limited_by=limited_by, threads=program.atoms[atom][2], model=model,
            )
            if overhead:
                rec.add(track, f"region:{name}", "launch", overhead)
        rec.metrics.histogram(
            "repro_kernel_seconds",
            help="Simulated per-launch kernel time.",
            app=app, model=model, device=device,
        ).observe(seconds[atom])
        rec.metrics.counter(
            "repro_kernel_limited_by_total",
            help="Kernel launches by dominant limiter.",
            app=app, model=model, device=device, limited_by=limited_by,
        ).inc()


def price_context(
    ctx: ExecutionContext, app: str = "", model: str = "", checksum: float = 0.0
) -> RunResult:
    """Price the charge log ``ctx`` holds, as a one-row
    :func:`price_cell` on the context's own platform."""
    program = lift(ctx.charge_log, app, model, checksum)
    (result,) = price_cell(program, [ctx.platform], ctx.precision)
    return result


def priced_run(port: Port, ctx: ExecutionContext, config: object) -> RunResult:
    """Run ``port`` on ``ctx`` and price the charge log it leaves.

    The pricing entry point of every port call outside the columnar
    engine; the port's own result contributes its identity and its
    checksum.
    """
    ran = port(ctx, config)
    return price_context(ctx, ran.app, ran.model, ran.checksum)


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
        for index, result in zip(rows, _price_group(lattice, rows)):
            results[index] = result
    return results


def _price_group(lattice: SpecLattice, rows: Sequence[int]) -> list[RunResult | None]:
    """One result per row of a lattice group, ``None`` where it failed.

    The group is priced in one broadcast call; if that raises, each row
    is re-priced as a one-row group, so one bad cell (an out-of-range
    clock, say) costs its group the fast path but no other row its
    columnar price.  A failed capture fails every row.
    """
    specs = [lattice.rows[row] for row in rows]
    try:
        program = cached_program(specs[0])
    except Exception:
        return [None] * len(specs)
    try:
        return price_cell(program, [spec.make_platform() for spec in specs], specs[0].precision)
    except Exception:
        if len(specs) == 1:
            return [None]
    isolated: list[RunResult | None] = []
    for spec in specs:
        try:
            (result,) = price_cell(program, [spec.make_platform()], spec.precision)
        except Exception:
            result = None
        isolated.append(result)
    return isolated


#: The memo counts every columnar outcome carries: no row makes a
#: lookup of its own (shared, never mutated).
_NO_LOOKUPS: dict[str, memo.MemoStats] = {}


def _price_outcome(lattice: SpecLattice, rows: Sequence[int]) -> list[RunOutcome | None]:
    """One lattice group priced with the one-run path's observability
    envelope: one outcome per row, ``None`` where pricing or result
    validation failed.

    ``wall_seconds`` is the group's wall time (its capture included)
    divided by its row count: the rows are priced together, so that
    even share is the only per-row wall time there is.  The caller
    reports the call's memo delta as a whole.
    """
    started = time.perf_counter()
    priced = _price_group(lattice, rows)
    wall = (time.perf_counter() - started) / len(rows)
    outcomes: list[RunOutcome | None] = []
    for row, result in zip(rows, priced):
        outcome = None
        if result is not None:
            try:
                validate_result(result)
                outcome = RunOutcome(
                    spec=lattice.rows[row], result=result, wall_seconds=wall,
                    caches=_NO_LOOKUPS,
                )
            except ResultValidationError:
                pass  # left to the executor's retry ladder
        outcomes.append(outcome)
    return outcomes

