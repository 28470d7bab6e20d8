"""C++ AMP runtime (simulated CLAMP).

A Python rendering of the C++ AMP programming surface described in
Section III-C: ``extent`` / ``tiled_extent`` thread shapes,
``array_view`` wrappers whose synchronization the *runtime* manages,
``tile_static`` LDS declarations, and ``parallel_for_each`` lambda
launches.

Transfer semantics follow CLAMP v0.6.0 on each platform:

* **discrete GPU** — the runtime conservatively re-synchronizes every
  captured ``array_view`` around each launch: inputs are uploaded
  before, outputs downloaded after.  This is the per-launch transfer
  behaviour the paper blames for C++ AMP's dGPU losses.
* **APU (HSA v1.0 stack)** — ``array_view`` wraps the host pointer
  directly; no copies, no mapping toll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import CPPAMP_APU, CPPAMP_DGPU, OPENMP_REGION_S
from ..base import CPUToolchain, ExecutionContext, Toolchain
from .compiler import CLAMP_BROKEN_KERNELS_DGPU, CPPAMP_PROFILE


class CompilerBug(RuntimeError):
    """Raised when CLAMP cannot compile a kernel for the target
    (the LULESH 27-of-28 situation)."""


@dataclass(frozen=True)
class extent:
    """``concurrency::extent<1>``: the shape of a compute domain."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("extent must be positive")

    def tile(self, tile_size: int) -> "tiled_extent":
        """``extent::tile<N>()``: divide the domain into tiles."""
        return tiled_extent(size=self.size, tile_size=tile_size)


@dataclass(frozen=True)
class tiled_extent:
    """``concurrency::tiled_extent<N>``: a tiled compute domain."""

    size: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.tile_size <= 0 or self.size % self.tile_size != 0:
            raise ValueError(
                f"domain of {self.size} does not divide into tiles of {self.tile_size}"
            )


class array_view:
    """``concurrency::array_view``: host data the runtime keeps in sync.

    The host constructs it over an existing NumPy array and keeps using
    that array; on the discrete GPU the runtime shadows it with a
    device copy and decides when to move data.
    """

    def __init__(self, runtime: "AmpRuntime", host: np.ndarray) -> None:
        self._runtime = runtime
        self.host = host
        self._device: np.ndarray | None = None
        self._device_fresh = False
        #: Whether a device image exists at all (drives synchronize()
        #: cost accounting identically in functional and projection
        #: modes).
        self._resident = False

    @property
    def nbytes(self) -> int:
        return self.host.nbytes

    def device_array(self) -> np.ndarray:
        """The array kernels operate on (the host array when unified)."""
        if self._runtime.unified or not self._runtime.ctx.execute_kernels:
            return self.host
        if self._device is None:
            self._device = self.host.copy()
        return self._device

    def discard_data(self) -> None:
        """``array_view::discard_data``: skip the next upload."""
        self._device_fresh = True
        self._resident = True
        if (
            not self._runtime.unified
            and self._runtime.ctx.execute_kernels
            and self._device is None
        ):
            self._device = np.empty_like(self.host)

    def synchronize(self) -> None:
        """``array_view::synchronize``: make the host copy current."""
        if self._runtime.unified or not self._resident:
            return
        if self._runtime.ctx.execute_kernels and self._device is not None:
            np.copyto(self.host, self._device)
        self._runtime._charge_transfer(self.nbytes, "d2h")


class AmpRuntime:
    """The C++ AMP accelerator + runtime for one execution context."""

    #: 0.0, like every charge: the run is priced from its charge log.
    simulated_seconds = 0.0

    def __init__(self, ctx: ExecutionContext, workaround_known_bugs: bool = False) -> None:
        self.ctx = ctx
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(
            CPPAMP_PROFILE, CPPAMP_APU if self.unified else CPPAMP_DGPU
        )
        #: CLAMP v0.6.0 cannot compile these kernels for the dGPU.
        self.broken_kernels = frozenset() if (self.unified or workaround_known_bugs) else CLAMP_BROKEN_KERNELS_DGPU
        self._cpu_fallback = CPUToolchain("C++ AMP (CPU fallback)", threads=4, region_overhead_s=OPENMP_REGION_S)

    def _charge_transfer(self, nbytes: int, direction: str) -> None:
        self.toolchain.charge_transfer(self.ctx, nbytes, direction)

    def compiles(self, kernel_name: str) -> bool:
        """Whether CLAMP can generate device code for this kernel."""
        return kernel_name not in self.broken_kernels

    def parallel_for_each(
        self,
        compute_domain: extent | tiled_extent,
        func: Callable[..., None],
        spec: KernelSpec,
        views: Sequence[array_view],
        scalars: Sequence[object] = (),
        writes: Sequence[array_view] = (),
    ) -> None:
        """``parallel_for_each``: run the lambda over the domain.

        ``views`` are every ``array_view`` the lambda captures;
        ``writes`` are the subset it modifies.  Raises
        :class:`CompilerBug` for kernels CLAMP cannot build.
        """
        if not self.compiles(spec.name):
            raise CompilerBug(
                f"CLAMP v0.6.0: internal error compiling {spec.name!r} for "
                f"{self.ctx.platform.gpu.name}"
            )
        if isinstance(compute_domain, tiled_extent):
            if spec.lds_bytes_per_workgroup == 0:
                raise ValueError(
                    f"kernel {spec.name!r} launched on a tiled extent but "
                    "declares no tile_static storage"
                )
        # Conservative runtime-managed synchronization (dGPU only):
        # upload every captured view that is not already fresh.
        if not self.unified:
            for view in views:
                if not view._device_fresh:
                    if self.ctx.execute_kernels:
                        if view._device is None or view._device.shape != view.host.shape:
                            view._device = view.host.copy()
                        else:
                            np.copyto(view._device, view.host)
                    self._charge_transfer(view.nbytes, "h2d")
                    view._device_fresh = True
                    view._resident = True
        if self.ctx.execute_kernels:
            arrays = [view.device_array() for view in views]
            func(*arrays, *scalars)
        self.toolchain.charge_gpu_kernel(self.ctx, spec, n_buffers=len(views))
        if not self.unified:
            # CLAMP eagerly writes results back to the host after every
            # launch instead of leaving them device-resident until the
            # host asks — the per-launch transfer behaviour the paper
            # blames for C++ AMP's dGPU losses.  The device copy stays
            # authoritative, so unchanged views need not re-upload.
            for view in writes:
                if self.ctx.execute_kernels:
                    np.copyto(view.host, view.device_array())
                self._charge_transfer(view.nbytes, "d2h")

    def cpu_fallback_loop(self, func: Callable[..., None], spec: KernelSpec, views: Sequence[array_view], scalars: Sequence[object] = ()) -> None:
        """Run a kernel on the host CPU because CLAMP could not build it.

        The paper's LULESH port did this for 1 of 28 kernels on the
        dGPU; every sibling view must round-trip so the CPU sees fresh
        data and the GPU sees the CPU's results.
        """
        for view in views:
            view.synchronize()
        if self.ctx.execute_kernels:
            func(*[view.host for view in views], *scalars)
        self._cpu_fallback.charge_loop(self.ctx, spec)
        for view in views:
            view._device_fresh = False
