"""Execution engine: kernel IR, timing model, traces and scheduling.

The engine prices *lowered kernels* (what a programming model's
compiler actually generated) on *devices* (the simulated hardware of
``repro.hardware``), producing the simulated times and performance
counters from which every figure of the paper is regenerated.
"""

from .counters import PerfCounters
from .kernel import (
    AccessKind,
    AccessPattern,
    KernelSpec,
    LoweredKernel,
    OpCount,
    hand_tuned,
    with_spec,
)
from .launch import (
    CPPAMP_APU,
    CPPAMP_DGPU,
    HC_APU,
    HC_DGPU,
    OPENACC_APU,
    OPENACC_DGPU,
    OPENCL_APU,
    OPENCL_DGPU,
    OPENMP_REGION_S,
    RuntimeOverheads,
)
from .memo import (
    KERNEL_CACHE,
    SETUP_CACHE,
    TRACE_CACHE,
    MemoCache,
    MemoStats,
    SetupMemoCache,
    cache_disabled,
    cached_simulate_kernel,
    cached_time_gpu_kernel,
    clear_caches,
    memoized_setup,
    set_cache_enabled,
)
from .scheduler import ScheduleResult, simulate_kernel
from .timing import (
    KernelTiming,
    cpu_stream_efficiency,
    cpu_vector_rate,
    time_cpu_kernel,
    time_gpu_kernel,
)
from .trace import (
    TraceResult,
    generate_trace,
    replay_pattern,
    scaled_cache_spec,
)
from .validate import ValidationPoint, disagreements, validate_kernel, validate_specs

__all__ = [
    "AccessKind",
    "AccessPattern",
    "CPPAMP_APU",
    "CPPAMP_DGPU",
    "HC_APU",
    "HC_DGPU",
    "KERNEL_CACHE",
    "MemoCache",
    "KernelSpec",
    "KernelTiming",
    "LoweredKernel",
    "MemoStats",
    "OPENACC_APU",
    "OPENACC_DGPU",
    "OPENCL_APU",
    "OPENCL_DGPU",
    "OPENMP_REGION_S",
    "OpCount",
    "PerfCounters",
    "RuntimeOverheads",
    "SETUP_CACHE",
    "ScheduleResult",
    "SetupMemoCache",
    "TRACE_CACHE",
    "TraceResult",
    "ValidationPoint",
    "cache_disabled",
    "cached_simulate_kernel",
    "cached_time_gpu_kernel",
    "clear_caches",
    "cpu_stream_efficiency",
    "disagreements",
    "cpu_vector_rate",
    "generate_trace",
    "hand_tuned",
    "memoized_setup",
    "replay_pattern",
    "scaled_cache_spec",
    "set_cache_enabled",
    "simulate_kernel",
    "time_cpu_kernel",
    "time_gpu_kernel",
    "validate_kernel",
    "validate_specs",
    "with_spec",
]
