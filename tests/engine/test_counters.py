"""Performance-counter accounting tests."""

import pytest

from repro.engine.counters import LIMITERS, PerfCounters
from repro.engine.timing import KernelTiming


def timing(seconds=1e-3, cycles=1e6, instructions=5e5, dram=1e6, limited_by="compute",
           joules=0.25):
    return KernelTiming(
        name="k", seconds=seconds, cycles=cycles, instructions=instructions,
        dram_bytes=dram, limited_by=limited_by, compute_seconds=seconds,
        memory_seconds=seconds / 2, occupancy_waves=4, joules=joules,
    )


def launches(counters):
    return {name: getattr(counters, f"{name}_launches") for name in LIMITERS}


class TestRecording:
    def test_kernel_accumulation(self):
        counters = PerfCounters()
        counters.record_kernel(timing())
        counters.record_kernel(timing(seconds=2e-3))
        assert counters.kernel_launches == 2
        assert counters.kernel_seconds == pytest.approx(3e-3)
        assert counters.kernel_joules == 0.5
        assert launches(counters) == {"floor": 0, "compute": 2, "memory": 0}

    def test_each_limiter_counts_its_own_launches(self):
        counters = PerfCounters()
        for limited_by in ("memory", "floor", "memory", "compute", "memory"):
            counters.record_kernel(timing(limited_by=limited_by))
        assert launches(counters) == {"floor": 1, "compute": 1, "memory": 3}
        assert sum(launches(counters).values()) == counters.kernel_launches

    def test_transfer_accumulation(self):
        counters = PerfCounters()
        counters.record_transfer(1000, 1e-4, "h2d")
        counters.record_transfer(500, 5e-5, "d2h")
        assert counters.bytes_to_device == 1000
        assert counters.bytes_to_host == 500
        assert counters.transfers == 2
        assert counters.transfer_seconds == pytest.approx(1.5e-4)

    def test_total_seconds_sums_components(self):
        counters = PerfCounters()
        counters.record_kernel(timing())
        counters.record_transfer(1000, 1e-4, "h2d")
        counters.host_seconds = 2e-4
        counters.launch_overhead_seconds = 1e-5
        assert counters.total_seconds == pytest.approx(1e-3 + 1e-4 + 2e-4 + 1e-5)

    def test_ipc(self):
        counters = PerfCounters()
        counters.record_kernel(timing(cycles=1e6, instructions=5e5))
        assert counters.ipc == pytest.approx(0.5)

    def test_ipc_empty_is_zero(self):
        assert PerfCounters().ipc == 0.0


class TestMerge:
    def test_merge_sums_everything(self):
        a = PerfCounters()
        a.record_kernel(timing())
        b = PerfCounters()
        b.record_transfer(100, 1e-5, "h2d")
        merged = a.merge(b)
        assert merged.kernel_launches == 1
        assert merged.transfers == 1
        assert merged.total_seconds == pytest.approx(a.total_seconds + b.total_seconds)

    def test_merge_sums_launch_counters(self):
        a = PerfCounters()
        a.record_kernel(timing(limited_by="memory"))
        a.record_kernel(timing(limited_by="floor"))
        b = PerfCounters()
        b.record_kernel(timing(limited_by="memory"))
        b.record_kernel(timing(limited_by="compute"))
        merged = a.merge(b)
        assert launches(merged) == {"floor": 1, "compute": 1, "memory": 2}
        assert merged.kernel_launches == 4
