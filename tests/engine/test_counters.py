"""Performance-counter accounting tests.

Counters are folded from a run's charge log by the pricer, so the
accumulation cases log charges on a context and price it
(``price_context``), checking the sums against one-kernel prices.
"""

import pytest

from repro.apps.readmem import ReadMemConfig
from repro.apps.readmem.kernels import read_kernel_spec
from repro.engine.counters import LIMITERS, PerfCounters
from repro.engine.launch import OPENCL_DGPU
from repro.engine.study_vec import price_context
from repro.engine.timing import time_gpu_kernel
from repro.hardware.device import make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext, Toolchain
from repro.models.opencl.compiler import OPENCL_PROFILE


def launches(counters):
    return {name: getattr(counters, f"{name}_launches") for name in LIMITERS}


def charged(*sizes):
    """A dGPU context with one OpenCL read-kernel launch per size, and
    the one-kernel timing of each launch."""
    ctx = ExecutionContext(platform=make_dgpu_platform(), precision=Precision.SINGLE)
    toolchain = Toolchain(OPENCL_PROFILE, OPENCL_DGPU)
    timings = []
    for size in sizes:
        spec = read_kernel_spec(ReadMemConfig(size=size), Precision.SINGLE)
        toolchain.charge_gpu_kernel(ctx, spec, n_buffers=2)
        lowered = OPENCL_PROFILE.lower(spec)
        timings.append(time_gpu_kernel(lowered, ctx.platform.gpu, Precision.SINGLE))
    return ctx, timings


class TestRecording:
    def test_kernel_accumulation(self):
        ctx, (first, second) = charged(1 << 20, 1 << 22)
        counters = price_context(ctx).counters
        assert counters.kernel_launches == 2
        assert counters.kernel_seconds == first.seconds + second.seconds
        assert counters.kernel_joules == first.joules + second.joules
        assert counters.launch_overhead_seconds == 2 * OPENCL_DGPU.launch_cost(2)

    def test_each_limiter_counts_its_own_launches(self):
        ctx, timings = charged(64, 1 << 22, 64, 1 << 20, 1 << 22)
        counters = price_context(ctx).counters
        expected = {name: 0 for name in LIMITERS}
        for timing in timings:
            expected[timing.limited_by] += 1
        assert launches(counters) == expected
        assert len([n for n in expected.values() if n]) > 1
        assert sum(launches(counters).values()) == counters.kernel_launches

    def test_transfer_accumulation(self):
        ctx = ExecutionContext(platform=make_dgpu_platform(), precision=Precision.SINGLE)
        toolchain = Toolchain(OPENCL_PROFILE, OPENCL_DGPU)
        toolchain.charge_transfer(ctx, 1000, "h2d")
        toolchain.charge_transfer(ctx, 500, "d2h")
        counters = price_context(ctx).counters
        link = ctx.platform.interconnect
        assert counters.bytes_to_device == 1000
        assert counters.bytes_to_host == 500
        assert counters.transfers == 2
        assert counters.transfer_seconds == (
            link.transfer(1000, "h2d") + link.transfer(500, "d2h")
        )

    def test_total_seconds_sums_components(self):
        counters = PerfCounters(
            kernel_seconds=1e-3, transfer_seconds=1e-4, host_seconds=2e-4,
            launch_overhead_seconds=1e-5,
        )
        assert counters.total_seconds == pytest.approx(1e-3 + 1e-4 + 2e-4 + 1e-5)

    def test_ipc(self):
        counters = PerfCounters(cycles=1e6, instructions=5e5)
        assert counters.ipc == pytest.approx(0.5)

    def test_ipc_empty_is_zero(self):
        assert PerfCounters().ipc == 0.0


class TestMerge:
    def test_merge_sums_everything(self):
        a = PerfCounters(kernel_seconds=1e-3, kernel_launches=1, compute_launches=1)
        b = PerfCounters(transfer_seconds=1e-5, transfers=1, bytes_to_device=100)
        merged = a.merge(b)
        assert merged.kernel_launches == 1
        assert merged.transfers == 1
        assert merged.total_seconds == pytest.approx(a.total_seconds + b.total_seconds)

    def test_merge_sums_launch_counters(self):
        a = PerfCounters(kernel_launches=2, memory_launches=1, floor_launches=1)
        b = PerfCounters(kernel_launches=2, memory_launches=1, compute_launches=1)
        merged = a.merge(b)
        assert launches(merged) == {"floor": 1, "compute": 1, "memory": 2}
        assert merged.kernel_launches == 4
