"""Heterogeneous Compute asynchronous-transfer model tests (Sec. VII).

"HC ... allows the programmer to explicitly manage data-transfers
including asynchronous kernel launches which help in overlapping
kernel execution with data-transfers, resulting in further speedup."

The runtime only logs its charges and stream steps; these tests read
the makespan the pricer replays from the log (``price_context``).
"""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from repro.models.hc import HCRuntime


def make_ctx(apu=False):
    platform = make_apu_platform() if apu else make_dgpu_platform()
    return ExecutionContext(platform=platform, precision=Precision.SINGLE)


def chunk_spec(n):
    # Sized so one chunk's kernel time roughly matches its PCIe copy:
    # the regime where double buffering pays.
    return KernelSpec(
        name="hc.chunk", work_items=n,
        ops=OpCount(flops=900.0 * n, bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
        instructions_per_item=900.0,
    )


def noop(*args):
    pass


class TestTimelines:
    def test_sync_copy_serializes(self):
        ctx = make_ctx()
        hc = HCRuntime(ctx)
        a = np.ones(1 << 20, dtype=np.float32)
        b = np.ones(1 << 20, dtype=np.float32)
        hc.copy_to_device(a)
        after_one = price_context(ctx).seconds
        hc.copy_to_device(b)
        assert price_context(ctx).seconds == pytest.approx(2 * after_one, rel=0.01)

    def test_async_copy_overlaps_compute(self):
        """Prefetch the next chunk while the current one computes: the
        makespan is close to max(copies, kernels), not their sum."""
        n = 1 << 20
        chunks = [np.ones(n, dtype=np.float32) for _ in range(8)]

        # Synchronous pipeline.
        sync = HCRuntime(make_ctx())
        for chunk in chunks:
            sync.copy_to_device(chunk)
            sync.launch(noop, chunk_spec(n), arrays=[chunk])
        sync_total = price_context(sync.ctx).seconds

        # Double-buffered: prefetch chunk i+1 during chunk i's kernel.
        overlap = HCRuntime(make_ctx())
        overlap.async_copy_to_device(chunks[0])
        for i, chunk in enumerate(chunks):
            if i + 1 < len(chunks):
                overlap.async_copy_to_device(chunks[i + 1])
            overlap.launch(noop, chunk_spec(n), arrays=[chunk])
        overlap_total = price_context(overlap.ctx).seconds

        assert overlap_total < 0.75 * sync_total

    def test_overlap_bounded_by_slower_stream(self):
        n = 1 << 20
        chunks = [np.ones(n, dtype=np.float32) for _ in range(8)]
        ctx = make_ctx()
        hc = HCRuntime(ctx)
        for chunk in chunks:
            hc.async_copy_to_device(chunk)
        copy_seconds = price_context(ctx).seconds
        for chunk in chunks:
            hc.launch(noop, chunk_spec(n), arrays=[chunk])
        assert price_context(ctx).seconds >= copy_seconds

    def test_launch_waits_for_its_input(self):
        """A kernel cannot start before its own array lands: the
        makespan is the copy plus the whole launch, not their overlap."""
        n = 1 << 22
        ctx = make_ctx()
        hc = HCRuntime(ctx)
        data = np.ones(n, dtype=np.float32)
        hc.async_copy_to_device(data)
        copy_done = price_context(ctx).seconds
        hc.launch(noop, chunk_spec(n), arrays=[data])
        priced = price_context(ctx)
        launch = priced.kernel_seconds + priced.counters.launch_overhead_seconds
        assert priced.seconds == copy_done + launch

    def test_launch_requires_residency(self):
        hc = HCRuntime(make_ctx())
        with pytest.raises(RuntimeError):
            hc.launch(noop, chunk_spec(64), arrays=[np.ones(64, dtype=np.float32)])

    def test_finish_joins_streams(self):
        """A copy no launch waits for still ends the run: the priced
        makespan joins both streams."""
        ctx = make_ctx()
        hc = HCRuntime(ctx)
        data = np.ones(1 << 20, dtype=np.float32)
        hc.async_copy_to_device(data)
        priced = price_context(ctx)
        assert priced.seconds == priced.counters.transfer_seconds > 0
        assert hc.finish() == hc.simulated_seconds == 0.0  # priced from the log


class TestAPU:
    def test_async_free_on_unified_memory(self):
        ctx = make_ctx(apu=True)
        hc = HCRuntime(ctx)
        data = np.ones(1 << 20, dtype=np.float32)
        hc.async_copy_to_device(data)
        assert price_context(ctx).seconds == 0.0
        hc.launch(noop, chunk_spec(1 << 20), arrays=[data])
        assert price_context(ctx).seconds > 0

    def test_functional_results_still_correct(self):
        ctx = make_ctx(apu=False)
        hc = HCRuntime(ctx)
        data = np.ones(1 << 10, dtype=np.float32)

        def double(a):
            a *= 2

        hc.copy_to_device(data)
        hc.launch(double, chunk_spec(1 << 10), arrays=[data])
        hc.copy_to_host(data)
        assert (data == 2.0).all()
