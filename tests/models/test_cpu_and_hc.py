"""OpenMP, serial and Heterogeneous Compute runtime tests."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from repro.models.hc import HCRuntime
from repro.models.openmp import OpenMP
from repro.models.serial import SerialCPU


def make_ctx(apu=False, execute=True):
    platform = make_apu_platform() if apu else make_dgpu_platform()
    return ExecutionContext(platform=platform, precision=Precision.SINGLE, execute_kernels=execute)


def make_spec(n=1 << 18):
    return KernelSpec(
        name="cpu.test", work_items=n,
        ops=OpCount(flops=50.0 * n, bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
        instructions_per_item=50.0,
    )


def double_kernel(a):
    a *= 2


class TestOpenMP:
    def test_functional(self):
        ctx = make_ctx()
        omp = OpenMP(ctx, num_threads=4)
        data = np.ones(1 << 18, dtype=np.float32)
        omp.parallel_for(double_kernel, make_spec(), arrays=[data])
        assert (data == 2.0).all()
        assert price_context(ctx).seconds > 0

    def test_more_threads_is_faster(self):
        results = {}
        for threads in (1, 4):
            ctx = make_ctx()
            omp = OpenMP(ctx, num_threads=threads)
            omp.parallel_for(double_kernel, make_spec(), arrays=[np.ones(1 << 18, dtype=np.float32)])
            results[threads] = price_context(ctx).seconds
        assert results[4] < results[1]

    def test_region_overhead_charged(self):
        ctx = make_ctx()
        omp = OpenMP(ctx, num_threads=4)
        omp.parallel_for(double_kernel, make_spec(), arrays=[np.ones(16, dtype=np.float32)])
        assert price_context(ctx).counters.launch_overhead_seconds > 0

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OpenMP(make_ctx(), num_threads=0)

    def test_threads_clamped_to_cores(self):
        omp = OpenMP(make_ctx(), num_threads=64)
        assert omp.num_threads == 4


class TestSerial:
    def test_serial_slower_than_openmp(self):
        spec = make_spec()
        ctx1 = make_ctx()
        serial = SerialCPU(ctx1)
        serial.run_loop(double_kernel, spec, arrays=[np.ones(1 << 18, dtype=np.float32)])
        ctx2 = make_ctx()
        omp = OpenMP(ctx2, num_threads=4)
        omp.parallel_for(double_kernel, spec, arrays=[np.ones(1 << 18, dtype=np.float32)])
        assert price_context(ctx1).seconds > 2 * price_context(ctx2).seconds


class TestHC:
    def test_explicit_staging_round_trip(self):
        ctx = make_ctx(apu=False)
        hc = HCRuntime(ctx)
        data = np.ones(1 << 18, dtype=np.float32)
        hc.copy_to_device(data)
        hc.launch(double_kernel, make_spec(), arrays=[data])
        hc.copy_to_host(data)
        assert (data == 2.0).all()
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
        assert price_context(ctx).counters.bytes_to_host == data.nbytes

    def test_launch_requires_residency(self):
        hc = HCRuntime(make_ctx(apu=False))
        with pytest.raises(RuntimeError):
            hc.launch(double_kernel, make_spec(), arrays=[np.ones(16, dtype=np.float32)])

    def test_copy_to_host_requires_staging(self):
        hc = HCRuntime(make_ctx(apu=False))
        with pytest.raises(RuntimeError):
            hc.copy_to_host(np.ones(16, dtype=np.float32))

    def test_apu_raw_pointers(self):
        ctx = make_ctx(apu=True)
        hc = HCRuntime(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        hc.copy_to_device(data)
        hc.launch(double_kernel, make_spec(1 << 16), arrays=[data])
        assert (data == 2.0).all()
        assert price_context(ctx).counters.transfer_seconds == 0.0

    def test_hc_beats_cppamp_on_dgpu_transfers(self):
        """Sec. VII: HC's explicit transfers fix the emerging models'
        biggest dGPU weakness."""
        from repro.models import cppamp as amp

        spec = make_spec()
        data = np.ones(1 << 18, dtype=np.float32)

        ctx_hc = make_ctx(apu=False)
        hc = HCRuntime(ctx_hc)
        hc.copy_to_device(data)
        for _ in range(10):
            hc.launch(double_kernel, spec, arrays=[data])
        hc.copy_to_host(data)

        data2 = np.ones(1 << 18, dtype=np.float32)
        ctx_amp = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx_amp)
        view = amp.array_view(rt, data2)
        for _ in range(10):
            rt.parallel_for_each(amp.extent(1 << 18), double_kernel, spec, views=[view], writes=[view])
        assert price_context(ctx_hc).seconds < price_context(ctx_amp).seconds
