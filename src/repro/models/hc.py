"""Heterogeneous Compute (HC) — Section VII's "best of both worlds".

The paper closes by introducing AMD's Heterogeneous Compute: a
single-source C++ model with C++ AMP's productivity and OpenCL's
control — explicit, asynchronous data transfers, raw pointers in
kernel code, platform atomics and offline compilation.

We model HC as: full optimization capability (it inherits OpenCL's
tuning surface), near-hand-tuned code generation, explicit transfers,
and HSA-grade dispatch overheads.  The ablation benchmark
(``benchmarks/test_ablation_hc.py``) uses it to quantify the paper's
claim that explicit transfers were the single biggest performance gap
of the emerging models.

**Asynchronous transfers** (the Sec. VII feature that "help[s] in
overlapping kernel execution with data-transfers, resulting in further
speedup") are modeled with two timelines: a copy stream and a compute
stream.  ``async_copy_to_device`` advances only the copy stream; a
``launch`` whose inputs are still in flight waits for them, otherwise
it overlaps with outstanding copies.  The run's clock is the makespan
of the two streams.

Like every charge, the streams are priced after the run: the runtime
records each stream step into the context's
:class:`~repro.models.base.ChargeLog`, and the pricer
(:func:`repro.engine.study_vec._makespan_rows`) replays those steps
over the priced charges to recover the makespan.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine.kernel import KernelSpec
from ..engine.launch import HC_APU, HC_DGPU
from .base import Capability, CompilerProfile, ExecutionContext, Toolchain, TransferPolicy

HC_PROFILE = CompilerProfile(
    name="Heterogeneous Compute",
    version="HC (pre-release, Sec. VII)",
    capabilities=Capability.all(),
    transfer_policy=TransferPolicy.EXPLICIT,
    vector_efficiency_regular=0.95,
    vector_efficiency_irregular=0.88,
    memory_efficiency=0.95,
    divergence_reduction=0.4,
)


class HCRuntime:
    """Single-source kernels over raw pointers with explicit staging.

    Two simulated hardware queues: the DMA (copy) stream and the
    compute stream.  Synchronous calls join the streams; asynchronous
    copies run ahead on the copy stream, and launches synchronize only
    with the readiness of the arrays they actually touch.
    """

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(HC_PROFILE, HC_APU if self.unified else HC_DGPU)
        self._device: dict[int, np.ndarray] = {}
        #: The log that records the stream steps.
        self._log = ctx.charge_log

    @property
    def simulated_seconds(self) -> float:
        """0.0: the makespan is priced from the charge log after the run."""
        return 0.0

    def finish(self) -> float:
        """Drain both streams; returns 0.0, like every charge (the
        makespan is priced from the charge log after the run)."""
        return 0.0

    # -- staging -------------------------------------------------------

    def _stage(self, host: np.ndarray) -> np.ndarray:
        if not self.ctx.execute_kernels:
            self._device[id(host)] = host
            return host
        device = self._device.get(id(host))
        if device is None:
            device = host.copy()
            self._device[id(host)] = device
        else:
            np.copyto(device, host)
        return device

    def copy_to_device(self, host: np.ndarray) -> np.ndarray:
        """Synchronous host->device copy; raw pointer on the APU."""
        if self.unified:
            return self._ready_at_zero(host, host)
        device = self._stage(host)
        self.toolchain.charge_transfer(self.ctx, host.nbytes, "h2d")
        self._log.stream_step("sync", (host,))
        return device

    def async_copy_to_device(self, host: np.ndarray) -> np.ndarray:
        """Asynchronous host->device copy on the DMA stream.

        Returns immediately in simulated time; kernels that read the
        array wait for it, everything else overlaps.
        """
        if self.unified:
            return self._ready_at_zero(host, host)
        device = self._stage(host)
        self.toolchain.charge_transfer(self.ctx, host.nbytes, "h2d")
        self._log.stream_step("async", (host,))
        return device

    def device_alloc(self, host: np.ndarray) -> np.ndarray:
        """Allocate device storage for an output array without copying
        (the ``CL_MEM_WRITE_ONLY`` idiom: results only ever come back)."""
        if self.unified:
            return self._ready_at_zero(host, host)
        if not self.ctx.execute_kernels:
            self._device[id(host)] = host
            return self._ready_at_zero(host, host)
        device = self._device.get(id(host))
        if device is None:
            device = np.empty_like(host)
            self._device[id(host)] = device
        return self._ready_at_zero(host, device)

    def _ready_at_zero(self, host: np.ndarray, device: np.ndarray) -> np.ndarray:
        """Mark ``host``'s device copy usable from time 0; returns ``device``."""
        self._log.stream_step("ready0", (host,))
        return device

    def copy_to_host(self, host: np.ndarray) -> None:
        """Synchronous device->host copy of a previously staged array."""
        if self.unified:
            return
        device = self._device.get(id(host))
        if device is None:
            raise RuntimeError("copy_to_host of an array never staged to the device")
        if self.ctx.execute_kernels and device is not host:
            np.copyto(host, device)
        self.toolchain.charge_transfer(self.ctx, host.nbytes, "d2h")
        self._log.stream_step("sync")

    def device_view(self, host: np.ndarray) -> np.ndarray:
        """The device-side array for a staged host array."""
        if self.unified:
            return host
        device = self._device.get(id(host))
        if device is None:
            raise RuntimeError("array not resident; call copy_to_device first")
        return device

    # -- execution -------------------------------------------------------

    def launch(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
    ) -> None:
        """Launch a kernel over raw device pointers.

        Starts as soon as the compute stream is free *and* every input
        array's copy has landed — outstanding async copies of other
        arrays keep flowing underneath.
        """
        for a in arrays:
            if not self.unified and id(a) not in self._device:
                raise RuntimeError("array not resident; call copy_to_device first")
        if self.ctx.execute_kernels:
            device_arrays = [self.device_view(a) for a in arrays]
            func(*device_arrays, *scalars)
        self.toolchain.charge_gpu_kernel(self.ctx, spec, n_buffers=len(arrays))
        self._log.stream_step("launch", tuple(arrays))
