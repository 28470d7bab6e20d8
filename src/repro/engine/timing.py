"""Analytic kernel timing model.

Prices a :class:`~repro.engine.kernel.LoweredKernel` on a device using
a roofline with occupancy-based latency hiding:

* **compute side** — the larger of FMA-throughput time (FLOPs against
  the device's peak at the run's precision) and instruction-issue time
  (dynamic instructions against the SIMD issue rate), both de-rated by
  the lowering's vector efficiency and residual divergence;
* **memory side** — DRAM traffic after cache/LDS filtering against the
  memory system's effective bandwidth (memory clock x row-buffer
  efficiency x the lowering's coalescing quality);
* the slower side wins; low occupancy exposes latency on both sides.

The same machinery prices the CPU baseline (OpenMP / serial), with CPU
autovectorization taking the role vector efficiency plays on the GPU.

The formulas are written once, over arrays, in
:mod:`repro.engine.timing_vec`.  This module holds the model's
constants, :class:`KernelTiming`, the CPU rate helpers and the
one-kernel entry points :func:`time_gpu_kernel` and
:func:`time_cpu_kernel`, which are one-cell calls into the array
formulas and the only places a :class:`KernelTiming` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hardware.device import CPUDevice, GPUDevice
from ..hardware.specs import Precision
from .counters import LIMITERS
from .kernel import AccessKind, KernelSpec, LoweredKernel

if TYPE_CHECKING:
    from .timing_vec import KernelPrices

#: Floor on any kernel execution: pipeline ramp, drain and bookkeeping.
GPU_KERNEL_FLOOR_S = 3e-6
CPU_LOOP_FLOOR_S = 1e-7

#: Fraction of peak a well-written CPU loop typically sustains (issue
#: limits, AGU pressure); matches measured FP efficiency of Steamroller.
CPU_ISSUE_EFFICIENCY = 0.7

#: Scattered-access latency model: a GPU memory request spends most of
#: its latency in *core-clocked* on-chip pipelines (L1/L2/interconnect)
#: plus a DRAM-clocked portion.  This is why latency-bound workloads
#: like XSBench scale with the core clock in Figure 7d while being
#: insensitive to memory bandwidth.
SCATTER_PIPELINE_CYCLES = 300.0  # on-chip cycles at the core clock
SCATTER_DRAM_LATENCY_S = 200e-9  # DRAM-side latency at the default clock

#: Memory-level parallelism per resident wavefront: a dependent binary
#: search keeps ~1 request in flight; independent neighbour gathers
#: keep several.
SCATTER_MLP = {
    AccessKind.BINARY_SEARCH: 1.0,
    AccessKind.NEIGHBOR_LIST: 4.0,
}

#: DDR3 miss latency seen by a Steamroller core.
CPU_MISS_LATENCY_S = 90e-9


@dataclass(frozen=True)
class KernelTiming:
    """Outcome of pricing one kernel launch on one device."""

    name: str
    seconds: float
    cycles: float
    instructions: float
    dram_bytes: float
    limited_by: str  # one of LIMITERS
    compute_seconds: float
    memory_seconds: float
    occupancy_waves: int
    #: Dynamic switching energy of the launch (``repro.engine.energy``).
    joules: float = 0.0

    @classmethod
    def from_prices(
        cls, prices: "KernelPrices", cell: tuple[int, ...], name: str
    ) -> "KernelTiming":
        """Cell ``cell`` of a priced batch, every number a Python scalar."""
        return cls(
            name=name,
            seconds=float(prices.seconds[cell]),
            cycles=float(prices.cycles[cell]),
            instructions=float(prices.instructions[cell]),
            dram_bytes=float(prices.dram_bytes[cell]),
            limited_by=LIMITERS[prices.limiter[cell]],
            compute_seconds=float(prices.compute_seconds[cell]),
            memory_seconds=float(prices.memory_seconds[cell]),
            occupancy_waves=prices.waves[cell[-1]],
            joules=float(prices.joules[cell]),
        )


def time_gpu_kernel(
    lowered: LoweredKernel,
    gpu: GPUDevice,
    precision: Precision,
) -> KernelTiming:
    """Price one lowered kernel launch on a GPU at its current clocks:
    the one-cell case of :func:`~repro.engine.timing_vec.time_gpu_kernel_grid`."""
    from .timing_vec import time_gpu_kernel_grid

    prices = time_gpu_kernel_grid([lowered], [gpu], precision)
    return KernelTiming.from_prices(prices, (0, 0), lowered.spec.name)


def cpu_vector_rate(cpu: CPUDevice, spec: KernelSpec, precision: Precision, threads: int) -> float:
    """Effective CPU FLOP/s for ``spec`` given its vectorizable fraction.

    Amdahl over SIMD lanes: the vectorizable fraction ``f`` of the work
    runs at peak, the rest runs one lane wide.
    """
    peak = cpu.peak_flops(precision, threads=threads) * CPU_ISSUE_EFFICIENCY
    width = cpu.spec.simd_width_sp if precision is Precision.SINGLE else cpu.spec.simd_width_sp // 2
    width = max(1, width)
    f = spec.cpu_simd_fraction
    return peak / (f + (1.0 - f) * width)


def cpu_stream_efficiency(threads: int) -> float:
    """Fraction of pin bandwidth ``threads`` CPU cores can draw.

    One core cannot fill the DDR3 bus, and even four Steamroller cores
    sustain only about a third of it: Kaveri's CPU cores reach DRAM
    through the coherent Onion path, which measures far below the
    GPU-side Garlic path in STREAM-type tests.
    """
    return min(0.32, 0.11 * threads)


def time_cpu_kernel(
    spec: KernelSpec,
    cpu: CPUDevice,
    precision: Precision,
    threads: int = 1,
) -> KernelTiming:
    """Price one parallel loop on the host CPU with ``threads`` cores:
    the one-spec case of :func:`~repro.engine.timing_vec.time_cpu_kernel_batch`."""
    from .timing_vec import time_cpu_kernel_batch

    prices = time_cpu_kernel_batch([spec], cpu, precision, threads=threads)
    return KernelTiming.from_prices(prices, (0,), spec.name)
