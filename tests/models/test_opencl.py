"""OpenCL host-API semantics tests."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models import opencl as cl
from repro.models.base import ExecutionContext


def make_ctx(apu=False, precision=Precision.SINGLE, execute=True):
    platform = make_apu_platform() if apu else make_dgpu_platform()
    return ExecutionContext(platform=platform, precision=precision, execute_kernels=execute)


def make_spec(n=4096):
    return KernelSpec(
        name="cl.test", work_items=n,
        ops=OpCount(flops=float(n), bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
    )


def setup_queue(ctx):
    platform = cl.get_platforms(ctx)[0]
    gpu = next(d for d in platform.get_devices() if d.is_gpu)
    context = cl.Context(ctx, [gpu])
    return context, cl.CommandQueue(context, gpu), cl.Program(context).build()


class TestDiscovery:
    def test_platform_lists_gpu_and_cpu(self):
        devices = cl.get_platforms(make_ctx())[0].get_devices()
        assert any(d.is_gpu for d in devices)
        assert any(not d.is_gpu for d in devices)

    def test_context_requires_devices(self):
        with pytest.raises(cl.CLError):
            cl.Context(make_ctx(), [])

    def test_cpu_queue_rejected(self):
        ctx = make_ctx()
        devices = cl.get_platforms(ctx)[0].get_devices()
        cpu = next(d for d in devices if not d.is_gpu)
        context = cl.Context(ctx, [cpu])
        with pytest.raises(cl.CLError):
            cl.CommandQueue(context, cpu)

    def test_released_context_rejected(self):
        ctx = make_ctx()
        context, _, _ = setup_queue(ctx)
        context.release()
        with pytest.raises(cl.CLError):
            cl.Buffer(context, cl.MemFlags.READ_ONLY, size=16)


class TestBuffers:
    def test_needs_size_or_hostbuf(self):
        ctx = make_ctx()
        context, _, _ = setup_queue(ctx)
        with pytest.raises(cl.CLError):
            cl.Buffer(context, cl.MemFlags.READ_ONLY)

    def test_oversized_allocation_rejected(self):
        ctx = make_ctx()
        context, _, _ = setup_queue(ctx)
        with pytest.raises(MemoryError):
            cl.Buffer(context, cl.MemFlags.READ_ONLY, size=5 * 1024**3)

    def test_copy_host_ptr_charges_transfer(self):
        ctx = make_ctx()
        context, _, _ = setup_queue(ctx)
        data = np.ones(1024, dtype=np.float32)
        cl.Buffer(context, cl.MemFlags.READ_ONLY | cl.MemFlags.COPY_HOST_PTR, hostbuf=data)
        assert price_context(ctx).counters.bytes_to_device == data.nbytes

    def test_unstaged_buffer_use_rejected(self):
        ctx = make_ctx()
        context, queue, program = setup_queue(ctx)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=1024)
        kernel = program.create_kernel("k", lambda a: None, make_spec())
        kernel.set_args(buffer)
        with pytest.raises(cl.CLError):
            queue.enqueue_nd_range_kernel(kernel, 256, 64)

    def test_device_copy_isolated_from_host(self):
        """dGPU buffers are copies: mutating the host after staging must
        not affect the device image."""
        ctx = make_ctx(apu=False)
        context, queue, program = setup_queue(ctx)
        data = np.ones(1024, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        data[:] = 7.0
        out = np.zeros(1024, dtype=np.float32)

        def copy_kernel(src, dst):
            dst[:] = src

        dst = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=out)
        kernel = program.create_kernel("copy", copy_kernel, make_spec(1024))
        kernel.set_args(buffer, dst)
        queue.enqueue_nd_range_kernel(kernel, 1024, 64)
        queue.enqueue_read_buffer(dst, out)
        assert (out == 1.0).all()


class TestTransfersAndTiming:
    def test_dgpu_write_charges_pcie(self):
        ctx = make_ctx(apu=False)
        context, queue, _ = setup_queue(ctx)
        data = np.ones(1 << 20, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        assert price_context(ctx).counters.transfer_seconds > 0

    def test_apu_write_is_free(self):
        ctx = make_ctx(apu=True)
        context, queue, _ = setup_queue(ctx)
        data = np.ones(1 << 20, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        assert price_context(ctx).counters.transfer_seconds == 0.0

    def test_apu_launch_pays_mapping_toll(self):
        """The cl_mem mapping cost on the APU is what C++ AMP's HSA
        pointers avoid (Sec. VI-A)."""
        ctx = make_ctx(apu=True)
        context, queue, program = setup_queue(ctx)
        data = np.ones(1 << 20, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        kernel = program.create_kernel("k", lambda a: None, make_spec())
        kernel.set_args(buffer)
        queue.enqueue_nd_range_kernel(kernel, 4096, 256)
        assert price_context(ctx).counters.launch_overhead_seconds > 10e-6

    def test_kernel_charges_simulated_time(self):
        ctx = make_ctx()
        context, queue, program = setup_queue(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        kernel = program.create_kernel("k", lambda a: None, make_spec(1 << 16))
        kernel.set_args(buffer)
        queue.enqueue_nd_range_kernel(kernel, 1 << 16, 256)
        assert price_context(ctx).counters.kernel_launches == 1
        assert price_context(ctx).seconds > 0


class TestKernelValidation:
    def test_unset_args_rejected(self):
        ctx = make_ctx()
        _, queue, program = setup_queue(ctx)
        kernel = program.create_kernel("k", lambda: None, make_spec())
        with pytest.raises(cl.CLError):
            queue.enqueue_nd_range_kernel(kernel, 256, 64)

    def test_bad_global_size(self):
        ctx = make_ctx()
        _, queue, program = setup_queue(ctx)
        kernel = program.create_kernel("k", lambda: None, make_spec())
        kernel.set_args()
        with pytest.raises(cl.CLError):
            queue.enqueue_nd_range_kernel(kernel, 0, 64)

    def test_global_not_multiple_of_local(self):
        ctx = make_ctx()
        _, queue, program = setup_queue(ctx)
        kernel = program.create_kernel("k", lambda: None, make_spec())
        kernel.set_args()
        with pytest.raises(cl.CLError):
            queue.enqueue_nd_range_kernel(kernel, 100, 64)

    def test_kernel_before_build_rejected(self):
        ctx = make_ctx()
        context, _, _ = setup_queue(ctx)
        program = cl.Program(context)
        with pytest.raises(cl.CLError):
            program.create_kernel("k", lambda: None, make_spec())


class TestProjectionMode:
    def test_skips_execution_but_charges(self):
        calls = []
        ctx = make_ctx(execute=False)
        context, queue, program = setup_queue(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        buffer = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        kernel = program.create_kernel("k", lambda a: calls.append(1), make_spec(1 << 16))
        kernel.set_args(buffer)
        queue.enqueue_nd_range_kernel(kernel, 1 << 16, 256)
        assert not calls
        assert price_context(ctx).counters.kernel_launches == 1
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
