"""The device data environment of the offload runtimes.

Sec. VI-A puts the emerging models' dGPU losses down to their transfer
policies: which host arrays a runtime copies, and when.  This module
is the one present table and the one set of host<->device copies:

* :class:`DeviceData` — device shadows keyed by ``id(host)``, with
  copy-in, alloc and update.  A functional run copies real NumPy
  shadows; a projection run only charges the copies, and the host
  array stands in for its shadow.  HC's explicit staging
  (:class:`~repro.models.hc.HCRuntime`) is this class plus its streams.
* :class:`DirectiveRuntime` — data regions and the per-launch round
  trip of arrays outside every region.  OpenACC and OpenMP offload are
  this class under their own clause spelling: ``copyin``/``copyout``/
  ``copy``/``create`` are ``map(to/from/tofrom/alloc:)``.

On unified memory (the APU) nothing is copied or charged, and every
array is present.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..engine.kernel import KernelSpec
from ..engine.launch import RuntimeOverheads
from .base import CompilerProfile, ExecutionContext, Toolchain


class DeviceData:
    """Device shadows of host arrays, for one execution context."""

    #: Raised for an update of an array without a device shadow.
    error: type[Exception] = RuntimeError

    #: 0.0, like every charge: the run is priced from its charge log.
    simulated_seconds = 0.0

    def __init__(
        self,
        ctx: ExecutionContext,
        profile: CompilerProfile,
        apu: RuntimeOverheads,
        dgpu: RuntimeOverheads,
    ) -> None:
        self.ctx = ctx
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(profile, apu if self.unified else dgpu)
        # Device shadows of host arrays, keyed by id(host_array).
        self._present: dict[int, np.ndarray] = {}

    def is_present(self, host: np.ndarray) -> bool:
        """Whether ``host`` has a device shadow (always, on unified memory)."""
        return self.unified or id(host) in self._present

    def _copy_in(self, host: np.ndarray) -> np.ndarray:
        """Copy ``host`` into its shadow (a new one if it has none) and
        charge the h2d copy.  The caller records the shadow."""
        device = host
        if self.ctx.execute_kernels:
            device = self._present.get(id(host))
            if device is None:
                device = host.copy()
            else:
                np.copyto(device, host)
        self.toolchain.charge_transfer(self.ctx, host.nbytes, "h2d")
        return device

    def _alloc(self, host: np.ndarray) -> np.ndarray:
        """``host``'s shadow, allocated without a copy if it has none."""
        if not self.ctx.execute_kernels:
            return host
        device = self._present.get(id(host))
        return np.empty_like(host) if device is None else device

    def _copy_out(self, host: np.ndarray, device: np.ndarray) -> None:
        """Copy ``device`` back into ``host`` and charge the d2h copy."""
        if self.ctx.execute_kernels and device is not host:
            np.copyto(host, device)
        self.toolchain.charge_transfer(self.ctx, host.nbytes, "d2h")

    def _update(self, host: np.ndarray, direction: str, message: str) -> None:
        """Refresh the host copy (``"d2h"``) or the shadow (``"h2d"``)
        of a present array; ``message`` names the misuse otherwise."""
        if self.unified:
            return
        device = self._present.get(id(host))
        if device is None:
            raise self.error(message)
        if direction == "h2d":
            self._copy_in(host)
        else:
            self._copy_out(host, device)


class DirectiveRuntime(DeviceData):
    """Data regions and offloaded loops over the present table."""

    @contextmanager
    def _region(
        self,
        to: Sequence[np.ndarray],
        from_: Sequence[np.ndarray],
        tofrom: Sequence[np.ndarray],
        alloc: Sequence[np.ndarray],
    ) -> Iterator[None]:
        """A data region: the named arrays are present from entry to
        exit, and ``from_``/``tofrom`` ones are copied back at exit.
        An array already present is left alone on entry and exit
        (OpenACC's present-or clauses, OpenMP's map reference counts)."""
        write_back = {id(a) for a in from_} | {id(a) for a in tofrom}
        entered: list[np.ndarray] = []
        if not self.unified:
            for host in [*to, *tofrom]:
                if id(host) not in self._present:
                    self._present[id(host)] = self._copy_in(host)
                    entered.append(host)
            for host in [*from_, *alloc]:
                if id(host) not in self._present:
                    self._present[id(host)] = self._alloc(host)
                    entered.append(host)
        try:
            yield
        finally:
            for host in entered:
                device = self._present.pop(id(host))
                if id(host) in write_back:
                    self._copy_out(host, device)

    def _launch(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object],
        writes: Sequence[np.ndarray],
    ) -> None:
        """Offload one loop nest.  Arrays outside every region are
        copied in for the launch and, if written (all of them when
        ``writes`` is empty), back after it; writes to present arrays
        stay on the device until their region exits."""
        transient: list[tuple[np.ndarray, np.ndarray]] = []
        device_arrays = arrays
        if not self.unified:
            device_arrays = []
            for host in arrays:
                device = self._present.get(id(host))
                if device is None:
                    device = self._copy_in(host)
                    transient.append((host, device))
                device_arrays.append(device)
        if self.ctx.execute_kernels:
            func(*device_arrays, *scalars)
        self.toolchain.charge_gpu_kernel(self.ctx, spec, n_buffers=len(arrays))
        if transient:
            written = {id(w) for w in writes}
            for host, device in transient:
                if not writes or id(host) in written:
                    self._copy_out(host, device)
