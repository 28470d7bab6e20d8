"""The kernel roofline, written once, over arrays.

Every kernel price in the reproduction comes from here.
:func:`time_gpu_kernel_grid` broadcasts the GPU roofline over
(clock points x kernels) and :func:`time_cpu_kernel_batch` prices a
batch of CPU loops.  The columnar study engine
(:mod:`repro.engine.study_vec`) calls them once per schedule group; the
one-kernel entry points :func:`repro.engine.timing.time_gpu_kernel`
and :func:`~repro.engine.timing.time_cpu_kernel` are their one-cell
calls.

Three kinds of quantities appear:

* **per-kernel coefficients** computed by scalar helpers
  (:func:`~repro.hardware.compute_unit.occupancy`, traffic prediction,
  :func:`~repro.engine.timing.cpu_vector_rate`) and gathered in Python;
* **per-clock scalars** (peak FLOP/s, issue rate, pin bandwidth,
  scatter latency, clock, power scale) computed by the device's own
  Python helpers once per clock point, as ``(rows, 1)`` columns;
* **the roofline arithmetic** over those coefficient arrays, done as
  elementwise NumPy float64 ops broadcast over the grid.  Elementwise
  ops give each cell the same bits whatever else shares its call, so a
  grid cell equals the one-cell call of the same kernel on the same
  device state.  No formula may use a reduction: ``np.sum`` and
  friends reassociate (``tests/engine/test_timing_vec.py`` checks).

Both return a :class:`KernelPrices` of parallel arrays, no per-cell
objects: the columnar engine scatters them straight into its folds.
The one-kernel entry points wrap their single cell in a
:class:`~repro.engine.timing.KernelTiming`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..hardware.compute_unit import latency_hiding_factor, occupancy
from ..hardware.device import CPUDevice, GPUDevice
from ..hardware.specs import Precision
from .energy import clock_power_scale, kernel_joules
from .kernel import AccessKind, KernelSpec, LoweredKernel
from .timing import (
    CPU_LOOP_FLOOR_S,
    CPU_MISS_LATENCY_S,
    GPU_KERNEL_FLOOR_S,
    SCATTER_DRAM_LATENCY_S,
    SCATTER_MLP,
    SCATTER_PIPELINE_CYCLES,
    cpu_stream_efficiency,
    cpu_vector_rate,
)


#: Limiter codes of :attr:`KernelPrices.limiter`, indexing
#: :data:`~repro.engine.timing.LIMITERS`.
FLOOR, COMPUTE, MEMORY = range(3)


class KernelPrices(NamedTuple):
    """Priced kernel launches as parallel arrays.

    Every array has one shape: ``(rows, kernels)`` from
    :func:`time_gpu_kernel_grid`, ``(kernels,)`` from
    :func:`time_cpu_kernel_batch`.  All are float64 but ``limiter``.
    """

    seconds: np.ndarray
    cycles: np.ndarray
    instructions: np.ndarray
    dram_bytes: np.ndarray
    #: Dynamic switching energy (:func:`repro.engine.energy.kernel_joules`).
    joules: np.ndarray
    compute_seconds: np.ndarray
    memory_seconds: np.ndarray
    #: What bounds each launch: :data:`FLOOR`, :data:`COMPUTE` or
    #: :data:`MEMORY` (int64).
    limiter: np.ndarray
    #: Occupancy per kernel: resident wavefronts per CU on a GPU,
    #: threads on a CPU.
    waves: tuple[int, ...]


def _limiter(
    seconds: np.ndarray, floor: float, compute: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """The launch floor where it binds, else the slower of the compute
    and memory sides (compute on a tie)."""
    return np.where(seconds == floor, FLOOR, np.where(compute >= memory, COMPUTE, MEMORY))


def time_gpu_kernel_grid(
    lowereds: Sequence[LoweredKernel],
    gpus: Sequence[GPUDevice],
    precision: Precision,
) -> KernelPrices:
    """Price a batch of lowered kernels on several clock states of one GPU.

    ``gpus`` are the rows (one device per clock point, all of one
    spec), ``lowereds`` the columns.  Every clock-independent
    coefficient is derived once per kernel; every clock-dependent
    scalar once per row, by the device's own helpers, as a ``(rows, 1)``
    column.  The roofline is then elementwise over the
    ``(rows, kernels)`` grid, with no reduction anywhere, so each cell
    is bit-identical to the one-cell call ``time_gpu_kernel(lowered,
    gpus[row], precision)``.  Every array of the result is
    ``(rows, kernels)``.
    """
    spec0 = gpus[0].spec
    if any(gpu.spec != spec0 for gpu in gpus):
        raise ValueError("time_gpu_kernel_grid prices clock states of one GPU spec")
    specs = [lowered.spec for lowered in lowereds]

    # --- per-kernel coefficients (clock-independent) ------------------
    occs = [
        occupancy(
            spec0,
            registers_per_thread=spec.registers_per_thread,
            lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup if lowered.uses_lds else 0,
            workgroup_size=spec.workgroup_size,
            total_work_items=spec.work_items,
        )
        for lowered, spec in zip(lowereds, specs)
    ]
    hiding = np.array([latency_hiding_factor(occ) for occ in occs])
    useful = np.array([lowered.vector_efficiency for lowered in lowereds]) * (
        1.0 - np.array([lowered.divergence for lowered in lowereds])
    )
    flops = np.array([spec.ops.flops for spec in specs])
    instructions = np.array([lowered.instructions for lowered in lowereds])
    if precision is Precision.DOUBLE:
        # GCN issues DP VALU ops at the device's DP rate (1/4 Tahiti,
        # 1/16 Kaveri), so the FP share of the instruction stream
        # occupies proportionally more issue slots.
        fp_fraction = np.minimum(0.9, flops / np.maximum(instructions, 1.0))
        instructions = instructions * (
            (1.0 - fp_fraction) + fp_fraction / spec0.dp_rate_ratio
        )
    l2_bytes = spec0.l2_cache.size_bytes
    dram = np.array([lowered.dram_traffic_bytes(l2_bytes) for lowered in lowereds])
    memory_efficiency = np.array([lowered.memory_efficiency for lowered in lowereds])
    pattern_eff = np.array([spec.access.row_buffer_efficiency for spec in specs]) * (
        memory_efficiency
    )
    # ``MemorySystem.effective_bandwidth``'s range check, once per kernel.
    valid = (pattern_eff > 0.0) & (pattern_eff <= 1.0)
    if not valid.all():
        raise ValueError(
            f"pattern_efficiency must be in (0, 1], got {pattern_eff[~valid][0]}"
        )

    # --- per-clock scalars, one (rows, 1) column each -----------------
    def column(values: list[float]) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(-1, 1)

    lanes_per_cu = spec0.simd_per_cu * spec0.lanes_per_simd
    hz = column([gpu.core_clock.hz for gpu in gpus])
    peak_flops = column([gpu.peak_flops(precision) for gpu in gpus])
    issue_rate = column(
        [spec0.compute_units * lanes_per_cu * gpu.core_clock.hz for gpu in gpus]
    )
    peak_bandwidth = column([gpu.memory.peak_bandwidth_at_clock() for gpu in gpus])

    # --- compute side -------------------------------------------------
    flop_seconds = np.where(flops > 0, flops / (peak_flops * useful), 0.0)
    issue_seconds = instructions / (issue_rate * useful)
    compute_seconds = np.maximum(flop_seconds, issue_seconds) / hiding

    # --- memory side ----------------------------------------------------
    bandwidth = (peak_bandwidth * pattern_eff) * 1e9
    memory_seconds = np.where(dram != 0.0, dram / bandwidth / hiding, 0.0)

    # Scattered patterns are additionally latency-bound: requests per
    # line, against the in-flight capacity the resident wavefronts
    # sustain.  Poorly generated code (low memory efficiency) issues
    # proportionally more requests.
    mlp_values = [SCATTER_MLP.get(spec.access.kind) for spec in specs]
    scatter = np.array([value is not None for value in mlp_values], dtype=bool) & (dram != 0.0)
    if scatter.any():
        mlp = np.array([value if value is not None else 1.0 for value in mlp_values])
        requests = dram / spec0.l2_cache.line_bytes
        waves = np.array([occ.wavefronts_per_cu for occ in occs], dtype=np.int64)
        outstanding = (spec0.compute_units * waves) * mlp
        latency = column(
            [
                SCATTER_PIPELINE_CYCLES / gpu.core_clock.hz
                + SCATTER_DRAM_LATENCY_S
                * (gpu.memory.clock.default_mhz / gpu.memory.clock.current_mhz)
                for gpu in gpus
            ]
        )
        latency_seconds = requests * latency / outstanding / memory_efficiency
        memory_seconds = np.where(
            scatter, np.maximum(memory_seconds, latency_seconds), memory_seconds
        )

    seconds = np.maximum(np.maximum(compute_seconds, memory_seconds), GPU_KERNEL_FLOOR_S)
    cycles = seconds * hz

    # Energy is elementwise arithmetic on the *final* per-cell values.
    power_scale = column([
        clock_power_scale(gpu.core_clock.current_mhz, gpu.core_clock.default_mhz)
        for gpu in gpus
    ])
    shape = seconds.shape
    return KernelPrices(
        seconds=seconds,
        cycles=cycles,
        instructions=np.broadcast_to(
            np.array([lowered.instructions for lowered in lowereds], dtype=np.float64), shape
        ),
        dram_bytes=np.broadcast_to(dram, shape),
        joules=kernel_joules(spec0.power, seconds, compute_seconds, power_scale),
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        limiter=_limiter(seconds, GPU_KERNEL_FLOOR_S, compute_seconds, memory_seconds),
        waves=tuple(occ.wavefronts_per_cu for occ in occs),
    )


#: Access kinds whose predictable streams CPU prefetchers cover.  They
#: blunt the row-buffer penalty of streams, stencils and banded SpMV
#: gathers far more than the GPU's uncached path does; random descents
#: (binary search) and neighbour-list gathers stay exposed.
_PREFETCHABLE = (AccessKind.STREAMING, AccessKind.STENCIL, AccessKind.CSR_SPMV)


def time_cpu_kernel_batch(
    specs: Sequence[KernelSpec],
    cpu: CPUDevice,
    precision: Precision,
    threads: int = 1,
) -> KernelPrices:
    """Price a batch of parallel loops on the host CPU.

    Every array of the result is ``(kernels,)``; each cell is
    bit-identical to the one-spec call ``time_cpu_kernel(spec, cpu,
    precision, threads=threads)``.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    threads = min(threads, cpu.spec.cores)

    flops = np.array([spec.ops.flops for spec in specs])
    rates = np.array([cpu_vector_rate(cpu, spec, precision, threads) for spec in specs])
    flop_seconds = np.where(flops > 0, flops / rates, 0.0)
    # Non-FP instruction issue (address arithmetic, branches).
    scalar_rate = threads * cpu.spec.clock_mhz * 1e6 * 2.0  # ~2 IPC scalar issue
    int_ops = np.array([spec.ops.int_ops for spec in specs])
    issue_seconds = np.where(int_ops != 0.0, int_ops / scalar_rate, 0.0)
    compute_seconds = flop_seconds + issue_seconds

    host_memory = cpu.memory_system()
    llc_bytes = cpu.spec.llc.size_bytes
    traffic = np.array(
        [
            spec.ops.total_bytes * max(spec.access.traffic_multiplier(llc_bytes), 0.05)
            for spec in specs
        ]
    )
    stream_efficiency = cpu_stream_efficiency(threads)
    peak_bandwidth = host_memory.peak_bandwidth_at_clock()

    def _bandwidth(spec: KernelSpec) -> float:
        row_buffer = spec.access.row_buffer_efficiency
        if spec.access.kind in _PREFETCHABLE:
            row_buffer = max(row_buffer, 0.8)
        return peak_bandwidth * (row_buffer * stream_efficiency) * 1e9

    bandwidth = np.array([_bandwidth(spec) for spec in specs])
    memory_seconds = np.where(traffic != 0.0, traffic / bandwidth, 0.0)

    # Scattered patterns are latency-bound on the CPU as well: the
    # out-of-order window sustains only a few misses per core, and a
    # dependent descent (binary search) keeps barely one in flight.
    mlp_values = [SCATTER_MLP.get(spec.access.kind) for spec in specs]
    scatter = np.array([value is not None for value in mlp_values], dtype=bool) & (
        traffic != 0.0
    )
    if scatter.any():
        requests = traffic / cpu.spec.llc.line_bytes
        per_core_mlp = np.array(
            [
                1.5 if spec.access.kind is AccessKind.BINARY_SEARCH else 6.0
                for spec in specs
            ]
        )
        outstanding = threads * per_core_mlp
        latency_seconds = requests * CPU_MISS_LATENCY_S / outstanding
        memory_seconds = np.where(
            scatter, np.maximum(memory_seconds, latency_seconds), memory_seconds
        )

    seconds = np.maximum(np.maximum(compute_seconds, memory_seconds), CPU_LOOP_FLOOR_S)
    cycles = (seconds * cpu.spec.clock_mhz) * 1e6
    thread_share = threads / cpu.spec.cores

    return KernelPrices(
        seconds=seconds,
        cycles=cycles,
        instructions=np.array([spec.instructions for spec in specs], dtype=np.float64),
        dram_bytes=traffic,
        joules=kernel_joules(cpu.spec.power, seconds, compute_seconds, share=thread_share),
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        limiter=_limiter(seconds, CPU_LOOP_FLOOR_S, compute_seconds, memory_seconds),
        waves=(threads,) * len(specs),
    )
