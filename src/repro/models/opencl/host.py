"""OpenCL host API (simulated).

A deliberately faithful miniature of the OpenCL 1.2 host interface:
platform/device discovery, contexts, command queues, ``cl_mem``
buffers, explicit ``enqueueWriteBuffer``/``enqueueReadBuffer`` copies
and NDRange kernel launches.  Application ports written against this
API read like real OpenCL host code — which is exactly the point:
Table IV's productivity gap comes from this boilerplate.

Functional semantics: buffers hold real NumPy arrays; kernels are
Python callables executed on the buffers' device arrays.  Simulated
costs (transfers, launches, kernel time) are charged to the
:class:`~repro.models.base.ExecutionContext` through the OpenCL
toolchain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import OPENCL_APU, OPENCL_DGPU
from ..base import ExecutionContext, Toolchain
from .compiler import OPENCL_PROFILE


class CLError(RuntimeError):
    """An OpenCL runtime error (invalid handle, out of resources...)."""


class MemFlags(enum.Flag):
    """Subset of ``cl_mem_flags`` the proxy applications use."""

    READ_ONLY = enum.auto()
    WRITE_ONLY = enum.auto()
    READ_WRITE = enum.auto()
    COPY_HOST_PTR = enum.auto()
    USE_HOST_PTR = enum.auto()


@dataclass(frozen=True)
class CLDevice:
    """One OpenCL device as reported by discovery."""

    name: str
    is_gpu: bool


class CLPlatform:
    """An OpenCL platform (one per simulated hardware platform)."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx
        self.name = f"AMD Accelerated Parallel Processing ({ctx.platform.name})"

    def get_devices(self) -> list[CLDevice]:
        return [
            CLDevice(name=self._ctx.platform.gpu.name, is_gpu=True),
            CLDevice(name=self._ctx.platform.host.name, is_gpu=False),
        ]


def get_platforms(ctx: ExecutionContext) -> list[CLPlatform]:
    """``clGetPlatformIDs``: enumerate platforms on the system."""
    return [CLPlatform(ctx)]


class Context:
    """``cl_context``: owns devices, buffers and programs."""

    def __init__(self, ctx: ExecutionContext, devices: Sequence[CLDevice]) -> None:
        if not devices:
            raise CLError("clCreateContext: no devices given")
        self.execution = ctx
        self.devices = list(devices)
        self.toolchain = Toolchain(
            OPENCL_PROFILE,
            OPENCL_APU if ctx.platform.is_apu else OPENCL_DGPU,
        )
        self._released = False

    def release(self) -> None:
        self._released = True

    def _check(self) -> None:
        if self._released:
            raise CLError("use of released cl_context")


class Buffer:
    """``cl_mem``: a device-resident allocation.

    On the discrete GPU the buffer lives in GDDR5 and must be staged
    explicitly.  On the APU the allocation aliases host memory
    (zero-copy), but kernels still reach it through the Catalyst
    ``cl_mem`` mapping path, which is what C++ AMP's HSA pointers
    avoid (Sec. VI-A, XSBench on the APU).
    """

    def __init__(self, context: Context, flags: MemFlags, size: int = 0, hostbuf: np.ndarray | None = None) -> None:
        context._check()
        self.context = context
        self.flags = flags
        if hostbuf is None and size <= 0:
            raise CLError("clCreateBuffer: need a size or a host pointer")
        if hostbuf is not None:
            size = hostbuf.nbytes
        self.size = int(size)
        gpu_memory = context.execution.platform.gpu.memory
        gpu_memory.check_allocation(self.size)
        unified = context.execution.platform.is_apu
        if hostbuf is not None and (MemFlags.USE_HOST_PTR in flags and unified):
            self._device_array = hostbuf  # zero-copy alias
        elif hostbuf is not None and MemFlags.COPY_HOST_PTR in flags:
            self._device_array = hostbuf.copy()
            # The copy is synchronous host-side work: its cost lands in
            # the counters but not on any command queue's clock, hence
            # counted=False (the return value is deliberately dropped).
            context.toolchain.charge_transfer(
                context.execution, self.size, "h2d", counted=False
            )
        else:
            self._device_array = (
                context.execution.output(hostbuf.shape, hostbuf.dtype)
                if hostbuf is not None else None
            )
        self._shape = None if self._device_array is None else self._device_array.shape
        self._dtype = None if self._device_array is None else self._device_array.dtype

    @property
    def device_array(self) -> np.ndarray:
        if self._device_array is None:
            raise CLError("buffer used before any host data was staged")
        return self._device_array


class Kernel:
    """``cl_kernel``: a compiled entry point plus its argument slots.

    ``func`` is the device code — a NumPy callable over the resolved
    arguments — and ``spec`` is its performance characterization.
    """

    def __init__(self, program: "Program", name: str, func: Callable[..., None], spec: KernelSpec) -> None:
        self.program = program
        self.name = name
        self.func = func
        self.spec = spec
        self._args: list[object] | None = None

    def set_args(self, *args: object) -> None:
        """``clSetKernelArg`` for every argument at once."""
        self._args = list(args)

    def _resolved_args(self) -> list[object]:
        if self._args is None:
            raise CLError(f"kernel {self.name!r}: arguments not set")
        return [a.device_array if isinstance(a, Buffer) else a for a in self._args]

    def _buffer_args(self) -> list[Buffer]:
        return [a for a in (self._args or []) if isinstance(a, Buffer)]


class Program:
    """``cl_program``: a collection of kernels built for a context."""

    def __init__(self, context: Context) -> None:
        context._check()
        self.context = context
        self._kernels: dict[str, Kernel] = {}
        self._built = False

    def build(self) -> "Program":
        """``clBuildProgram``: no-op compile step (kernels are Python)."""
        self._built = True
        return self

    def create_kernel(self, name: str, func: Callable[..., None], spec: KernelSpec) -> Kernel:
        if not self._built:
            raise CLError("clCreateKernel before clBuildProgram")
        kernel = Kernel(self, name, func, spec)
        self._kernels[name] = kernel
        return kernel


class CommandQueue:
    """``cl_command_queue``: in-order execution with simulated timing."""

    def __init__(self, context: Context, device: CLDevice) -> None:
        context._check()
        if not device.is_gpu:
            raise CLError("this study enqueues kernels on the GPU device only")
        self.context = context
        self.device = device
        self.simulated_seconds = 0.0
        # Fixed for the queue's lifetime: copies are free on unified
        # memory, and cl_mem arguments pay the mapping toll there.
        self._unified = context.execution.platform.is_apu

    def enqueue_write_buffer(self, buffer: Buffer, hostbuf: np.ndarray) -> None:
        """Explicit host->device copy (free on the APU)."""
        execution = self.context.execution
        if not execution.execute_kernels:
            buffer._device_array = hostbuf  # projection mode: no data motion
        elif buffer._device_array is None or buffer._device_array.shape != hostbuf.shape:
            buffer._device_array = hostbuf.copy()
        elif buffer._device_array is not hostbuf:
            np.copyto(buffer._device_array, hostbuf)
        if not self._unified:
            self.simulated_seconds += self.context.toolchain.charge_transfer(
                execution, hostbuf.nbytes, "h2d"
            )

    def enqueue_read_buffer(self, buffer: Buffer, hostbuf: np.ndarray) -> None:
        """Explicit device->host copy (free on the APU)."""
        execution = self.context.execution
        if execution.execute_kernels and buffer._device_array is not hostbuf:
            np.copyto(hostbuf, buffer.device_array)
        if not self._unified:
            self.simulated_seconds += self.context.toolchain.charge_transfer(
                execution, hostbuf.nbytes, "d2h"
            )

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: int,
        local_size: int | None = None,
    ) -> None:
        """Launch ``kernel`` over ``global_size`` work-items."""
        if global_size <= 0:
            raise CLError("global work size must be positive")
        if local_size is not None and global_size % local_size != 0:
            raise CLError("global size must be a multiple of local size")
        execution = self.context.execution
        buffers = kernel._buffer_args()
        # On the APU, cl_mem arguments pay the Catalyst mapping toll.
        mapped = sum(b.size for b in buffers) if self._unified else 0
        if execution.execute_kernels:
            kernel.func(*kernel._resolved_args())
        self.simulated_seconds += self.context.toolchain.charge_gpu_kernel(
            execution, kernel.spec, n_buffers=len(buffers), mapped_bytes=mapped
        )

    def finish(self) -> float:
        """``clFinish``: drain the queue; returns simulated seconds."""
        return self.simulated_seconds
