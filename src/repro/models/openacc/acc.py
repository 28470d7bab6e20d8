"""OpenACC runtime (simulated PGI).

Section III-B: the programmer annotates loops with ``#pragma acc
kernels loop gang(...) vector(...)`` and optionally wraps phases in
``#pragma acc data`` regions that hoist transfers out of the loop.

The Python rendering keeps both directives:

* :meth:`OpenACC.data` — a context manager naming ``copyin`` /
  ``copyout`` / ``copy`` / ``create`` arrays; inside the region those
  arrays are *present* on the device and launches do not move them.
* :meth:`OpenACC.kernels_loop` — one offloaded loop nest.  Arrays not
  covered by an enclosing data region are conservatively copied in
  before and back after **every launch**, which is the per-launch
  transfer behaviour that hurts the emerging models on the dGPU.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import OPENACC_APU, OPENACC_DGPU
from ..base import ExecutionContext, Toolchain
from .compiler import OPENACC_PROFILE


class AccError(RuntimeError):
    """An OpenACC runtime error (e.g. data-region misuse)."""


class OpenACC:
    """The OpenACC runtime bound to one execution context."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(
            OPENACC_PROFILE, OPENACC_APU if self.unified else OPENACC_DGPU
        )
        self.simulated_seconds = 0.0
        # Device shadows of host arrays, keyed by id(host_array).
        self._present: dict[int, np.ndarray] = {}
        self._region_depth = 0

    def _charge_transfer(self, nbytes: int, direction: str) -> None:
        self.simulated_seconds += self.toolchain.charge_transfer(self.ctx, nbytes, direction)

    def _upload(self, host: np.ndarray) -> np.ndarray:
        """Make ``host`` present on the device (copying when discrete)."""
        if self.unified:
            return host
        if not self.ctx.execute_kernels:
            self._charge_transfer(host.nbytes, "h2d")
            return host
        device = self._present.get(id(host))
        if device is None:
            device = host.copy()
        else:
            np.copyto(device, host)
        self._charge_transfer(host.nbytes, "h2d")
        return device

    def _create(self, host: np.ndarray) -> np.ndarray:
        """Allocate device storage without copying (``create`` clause)."""
        if self.unified or not self.ctx.execute_kernels:
            return host
        return self._present.get(id(host), np.empty_like(host))

    def is_present(self, host: np.ndarray) -> bool:
        """Whether ``host`` is inside an active data region."""
        return self.unified or id(host) in self._present

    def update_host(self, host: np.ndarray) -> None:
        """``#pragma acc update host(...)``: refresh the host copy of a
        region-resident array (e.g. per-iteration reduction results)."""
        if self.unified:
            return
        device = self._present.get(id(host))
        if device is None:
            raise AccError("update host of an array not in a data region")
        if self.ctx.execute_kernels:
            np.copyto(host, device)
        self._charge_transfer(host.nbytes, "d2h")

    def update_device(self, host: np.ndarray) -> None:
        """``#pragma acc update device(...)``: push host changes to the
        device copy of a region-resident array."""
        if self.unified:
            return
        device = self._present.get(id(host))
        if device is None:
            raise AccError("update device of an array not in a data region")
        if self.ctx.execute_kernels:
            np.copyto(device, host)
        self._charge_transfer(host.nbytes, "h2d")

    @contextmanager
    def data(
        self,
        copyin: Sequence[np.ndarray] = (),
        copyout: Sequence[np.ndarray] = (),
        copy: Sequence[np.ndarray] = (),
        create: Sequence[np.ndarray] = (),
    ) -> Iterator[None]:
        """``#pragma acc data``: hoist transfers to region boundaries."""
        write_back_ids = {id(a) for a in copyout} | {id(a) for a in copy}
        entered: list[tuple[np.ndarray, np.ndarray, bool]] = []
        for host in list(copyin) + list(copy):
            device = self._upload(host)
            entered.append((host, device, id(host) in write_back_ids))
            self._present[id(host)] = device
        for host in list(copyout) + list(create):
            if id(host) in self._present:
                continue
            device = self._create(host)
            entered.append((host, device, id(host) in write_back_ids))
            self._present[id(host)] = device
        self._region_depth += 1
        try:
            yield
        finally:
            self._region_depth -= 1
            for host, device, write_back in entered:
                if write_back and not self.unified:
                    if self.ctx.execute_kernels and device is not host:
                        np.copyto(host, device)
                    self._charge_transfer(host.nbytes, "d2h")
                del self._present[id(host)]

    def kernels_loop(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
        writes: Sequence[np.ndarray] = (),
        gang: int | None = None,
        vector: int | None = None,
    ) -> None:
        """``#pragma acc kernels loop gang(G) vector(V)``: offload a loop.

        ``arrays`` are the host arrays the loop references; ``writes``
        the subset it modifies.  ``gang``/``vector`` mirror the paper's
        clauses (workgroups / threads per workgroup in OpenCL terms)
        and override the spec's workgroup size when given.
        """
        if vector is not None and vector <= 0:
            raise AccError("vector clause must be positive")
        if gang is not None and gang <= 0:
            raise AccError("gang clause must be positive")

        # Transfers: arrays covered by a data region are already
        # present; the rest conservatively round-trip per launch.
        device_arrays: list[np.ndarray] = []
        transient: list[tuple[np.ndarray, np.ndarray]] = []
        for host in arrays:
            if self.unified:
                device_arrays.append(host)
            elif id(host) in self._present:
                device_arrays.append(self._present[id(host)])
            else:
                device = self._upload(host)
                device_arrays.append(device)
                transient.append((host, device))

        if self.ctx.execute_kernels:
            func(*device_arrays, *scalars)
        self.simulated_seconds += self.toolchain.charge_gpu_kernel(
            self.ctx, spec, n_buffers=len(arrays)
        )

        # Only arrays outside every data region (never on unified
        # memory) have a transient copy to return.  Writes to
        # region-resident arrays stay on the device until region exit —
        # that is the whole point of `acc data`.
        if transient:
            written = {id(w) for w in writes}
            for host, device in transient:
                if id(host) in written or not writes:
                    if self.ctx.execute_kernels and device is not host:
                        np.copyto(host, device)
                    self._charge_transfer(host.nbytes, "d2h")
