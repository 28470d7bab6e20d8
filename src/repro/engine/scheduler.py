"""Event-driven wavefront scheduler.

A discrete-event execution of one kernel launch: workgroups are
dispatched to compute units as slots free up, each workgroup overlaps
its compute phase with its DRAM traffic, and all CUs contend for the
one shared memory interface.  This is the detailed counterpart of the
closed-form roofline (:mod:`repro.engine.timing_vec`, reached one
kernel at a time through :func:`repro.engine.timing.time_gpu_kernel`)
and its independent check: the roofline is written only once, so
``tests/engine/test_differential.py`` fuzzes it against this event
loop.  The scheduler additionally exposes utilization and tail effects
(partial last batches, uneven workgroup distribution) that the
analytic model smooths over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..hardware.compute_unit import occupancy
from ..hardware.device import GPUDevice
from ..hardware.specs import Precision
from ..obs import spans as obs_spans
from .kernel import LoweredKernel
from .timing import GPU_KERNEL_FLOOR_S


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduled kernel launch."""

    seconds: float
    cycles: float
    workgroups: int
    concurrent_groups_per_cu: int
    cu_busy_fraction: float  # mean CU busy time / makespan
    memory_busy_fraction: float  # DRAM busy time / makespan


def simulate_kernel(
    lowered: LoweredKernel,
    gpu: GPUDevice,
    precision: Precision,
) -> ScheduleResult:
    """Run one kernel launch through the event-driven scheduler."""
    spec = lowered.spec
    wg_size = min(spec.workgroup_size, spec.work_items)
    n_groups = math.ceil(spec.work_items / spec.workgroup_size)

    occ = occupancy(
        gpu.spec,
        registers_per_thread=spec.registers_per_thread,
        lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup if lowered.uses_lds else 0,
        workgroup_size=spec.workgroup_size,
        total_work_items=spec.work_items,
    )
    waves_per_group = max(1, math.ceil(wg_size / gpu.spec.wavefront_size))
    concurrent = max(1, occ.wavefronts_per_cu // waves_per_group)

    # Per-workgroup service demands, derived from the launch totals.
    useful_lanes = lowered.vector_efficiency * (1.0 - lowered.divergence)
    lanes_per_cu = gpu.spec.simd_per_cu * gpu.spec.lanes_per_simd
    instr_per_group = lowered.instructions / n_groups
    compute_cycles = instr_per_group / (lanes_per_cu * useful_lanes)
    flops_per_group = spec.ops.flops / n_groups
    peak_flops_per_cu = gpu.peak_flops(precision) / gpu.spec.compute_units
    if flops_per_group > 0:
        flop_cycles = (
            flops_per_group / (peak_flops_per_cu * useful_lanes) * gpu.core_clock.hz
        )
        compute_cycles = max(compute_cycles, flop_cycles)

    dram_bytes_total = lowered.dram_traffic_bytes(gpu.spec.l2_cache.size_bytes)
    pattern_eff = spec.access.row_buffer_efficiency * lowered.memory_efficiency
    bw_bytes_per_cycle = (
        gpu.memory.effective_bandwidth(pattern_eff) * 1e9 / gpu.core_clock.hz
    )
    mem_cycles_per_group = (dram_bytes_total / n_groups) / bw_bytes_per_cycle

    # Event loop: (free_time, cu_index) heap; one slot entry per
    # concurrently resident workgroup on each CU.  Resident groups
    # overlap their *memory* phases, but the CU's issue pipelines are a
    # serial resource: each group's compute phase occupies them in
    # turn (this is what makes extra occupancy hide latency without
    # multiplying ALU throughput).
    slots: list[tuple[float, int]] = []
    for cu in range(gpu.spec.compute_units):
        for _ in range(concurrent):
            heapq.heappush(slots, (0.0, cu))

    memory_free = 0.0
    memory_busy = 0.0
    compute_free = [0.0] * gpu.spec.compute_units
    cu_busy = [0.0] * gpu.spec.compute_units
    makespan = 0.0

    for _ in range(n_groups):
        start, cu = heapq.heappop(slots)
        # Memory phase contends on the shared DRAM interface.
        mem_start = max(start, memory_free)
        mem_done = mem_start + mem_cycles_per_group
        memory_free = mem_done
        memory_busy += mem_cycles_per_group
        # Compute phase contends on the CU's issue pipelines.
        comp_start = max(start, compute_free[cu])
        comp_done = comp_start + compute_cycles
        compute_free[cu] = comp_done
        done = max(comp_done, mem_done)
        cu_busy[cu] += done - start
        makespan = max(makespan, done)
        heapq.heappush(slots, (done, cu))

    # The same pipeline ramp/drain floor the analytic model applies.
    seconds = max(makespan / gpu.core_clock.hz, GPU_KERNEL_FLOOR_S)
    mean_busy = sum(cu_busy) / len(cu_busy) / makespan if makespan else 0.0
    rec = obs_spans.active()
    if rec is not None:
        # Fires only when the memo layer actually re-simulates (cache
        # misses), which is itself worth seeing on the timeline.
        rec.instant(
            "scheduler", f"simulate:{spec.name}", "sim",
            workgroups=n_groups,
            concurrent_groups_per_cu=concurrent,
            cu_busy_fraction=round(min(1.0, mean_busy), 4),
            memory_busy_fraction=round(min(1.0, memory_busy / makespan), 4) if makespan else 0.0,
        )
    return ScheduleResult(
        seconds=seconds,
        cycles=makespan,
        workgroups=n_groups,
        concurrent_groups_per_cu=concurrent,
        cu_busy_fraction=min(1.0, mean_busy),
        memory_busy_fraction=min(1.0, memory_busy / makespan) if makespan else 0.0,
    )
