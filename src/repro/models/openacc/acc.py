"""OpenACC runtime (simulated PGI).

Section III-B: the programmer annotates loops with ``#pragma acc
kernels loop gang(...) vector(...)`` and optionally wraps phases in
``#pragma acc data`` regions that hoist transfers out of the loop.

The Python rendering keeps both directives, spelled over the shared
device data environment (:mod:`repro.models.device_data`):

* :meth:`OpenACC.data` — a context manager naming ``copyin`` /
  ``copyout`` / ``copy`` / ``create`` arrays; inside the region those
  arrays are *present* on the device and launches do not move them.
  An array already present is left alone (the present-or semantics of
  OpenACC 2.x).
* :meth:`OpenACC.kernels_loop` — one offloaded loop nest.  Arrays not
  covered by an enclosing data region are conservatively copied in
  before and back after **every launch**, which is the per-launch
  transfer behaviour that hurts the emerging models on the dGPU.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Callable, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import OPENACC_APU, OPENACC_DGPU
from ..base import ExecutionContext
from ..device_data import DirectiveRuntime
from .compiler import OPENACC_PROFILE


class AccError(RuntimeError):
    """An OpenACC runtime error (e.g. data-region misuse)."""


class OpenACC(DirectiveRuntime):
    """The OpenACC runtime bound to one execution context."""

    error = AccError

    def __init__(self, ctx: ExecutionContext) -> None:
        super().__init__(ctx, OPENACC_PROFILE, OPENACC_APU, OPENACC_DGPU)

    def update_host(self, host: np.ndarray) -> None:
        """``#pragma acc update host(...)``: refresh the host copy of a
        region-resident array (e.g. per-iteration reduction results)."""
        self._update(host, "d2h", "update host of an array not in a data region")

    def update_device(self, host: np.ndarray) -> None:
        """``#pragma acc update device(...)``: push host changes to the
        device copy of a region-resident array."""
        self._update(host, "h2d", "update device of an array not in a data region")

    def data(
        self,
        copyin: Sequence[np.ndarray] = (),
        copyout: Sequence[np.ndarray] = (),
        copy: Sequence[np.ndarray] = (),
        create: Sequence[np.ndarray] = (),
    ) -> AbstractContextManager[None]:
        """``#pragma acc data``: hoist transfers to region boundaries."""
        return self._region(copyin, copyout, copy, create)

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
        clauses (workgroups / threads per workgroup in OpenCL terms).
        Arrays outside every data region round-trip for this launch.
        """
        if vector is not None and vector <= 0:
            raise AccError("vector clause must be positive")
        if gang is not None and gang <= 0:
            raise AccError("gang clause must be positive")
        self._launch(func, spec, arrays, scalars, writes)
