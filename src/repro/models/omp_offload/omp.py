"""OpenMP target-offload runtime (simulated ``#pragma omp target``).

The directive surface mirrors OpenACC's, with OpenMP 4.5 names:

* :meth:`OpenMPOffload.target_data` — ``#pragma omp target data
  map(to:...) map(from:...) map(tofrom:...) map(alloc:...)``.  Inside
  the region the mapped arrays live in the *device data environment*
  and launches reference them without moving them.
* :meth:`OpenMPOffload.target_teams_loop` — ``#pragma omp target teams
  distribute parallel for [simd]``: the league of teams maps to
  workgroups (``num_teams`` ~ OpenACC ``gang``), the parallel-for
  threads within a team to vector lanes (``thread_limit`` ~
  ``vector``).  Arrays *not* in an enclosing data environment are
  implicitly ``map(tofrom:...)`` on **every launch** — the same
  conservative per-launch round-trip that hurts the other directive
  models on discrete devices.
* :meth:`OpenMPOffload.update_to` / :meth:`OpenMPOffload.update_from`
  — ``#pragma omp target update to(...)/from(...)``.

Which vendor toolchain compiles the directives is a constructor
argument (:data:`~repro.models.omp_offload.compiler.OMP_OFFLOAD_PROFILES`);
the schedule is identical across compilers, only kernel pricing moves.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import OMP_OFFLOAD_APU, OMP_OFFLOAD_DGPU
from ..base import ExecutionContext, Toolchain
from .compiler import DEFAULT_OMP_COMPILER, OMP_OFFLOAD_PROFILES


class OmpTargetError(RuntimeError):
    """An OpenMP offload runtime error (e.g. map-clause misuse)."""


class OpenMPOffload:
    """The OpenMP target-offload runtime bound to one execution context."""

    #: 0.0, like every charge: the run is priced from its charge log.
    simulated_seconds = 0.0

    def __init__(self, ctx: ExecutionContext, compiler: str = DEFAULT_OMP_COMPILER) -> None:
        try:
            profile = OMP_OFFLOAD_PROFILES[compiler]
        except KeyError:
            raise OmpTargetError(
                f"unknown OpenMP offload compiler {compiler!r}; "
                f"known: {sorted(OMP_OFFLOAD_PROFILES)}"
            ) from None
        self.ctx = ctx
        self.compiler = compiler
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(
            profile, OMP_OFFLOAD_APU if self.unified else OMP_OFFLOAD_DGPU
        )
        # The device data environment: shadows keyed by id(host_array).
        self._mapped: dict[int, np.ndarray] = {}
        self._region_depth = 0

    def _charge_transfer(self, nbytes: int, direction: str) -> None:
        self.toolchain.charge_transfer(self.ctx, nbytes, direction)

    def _map_to(self, host: np.ndarray) -> np.ndarray:
        """Map ``host`` into the device data environment, copying in."""
        if self.unified:
            return host
        if not self.ctx.execute_kernels:
            self._charge_transfer(host.nbytes, "h2d")
            return host
        device = self._mapped.get(id(host))
        if device is None:
            device = host.copy()
        else:
            np.copyto(device, host)
        self._charge_transfer(host.nbytes, "h2d")
        return device

    def _map_alloc(self, host: np.ndarray) -> np.ndarray:
        """Allocate device storage without copying (``map(alloc:)``)."""
        if self.unified or not self.ctx.execute_kernels:
            return host
        return self._mapped.get(id(host), np.empty_like(host))

    def is_mapped(self, host: np.ndarray) -> bool:
        """Whether ``host`` is in an active device data environment."""
        return self.unified or id(host) in self._mapped

    def update_from(self, host: np.ndarray) -> None:
        """``#pragma omp target update from(...)``: refresh the host
        copy of a mapped array mid-region."""
        if self.unified:
            return
        device = self._mapped.get(id(host))
        if device is None:
            raise OmpTargetError("target update from(...) of an unmapped array")
        if self.ctx.execute_kernels:
            np.copyto(host, device)
        self._charge_transfer(host.nbytes, "d2h")

    def update_to(self, host: np.ndarray) -> None:
        """``#pragma omp target update to(...)``: push host changes to
        the device copy of a mapped array."""
        if self.unified:
            return
        device = self._mapped.get(id(host))
        if device is None:
            raise OmpTargetError("target update to(...) of an unmapped array")
        if self.ctx.execute_kernels:
            np.copyto(device, host)
        self._charge_transfer(host.nbytes, "h2d")

    @contextmanager
    def target_data(
        self,
        to: Sequence[np.ndarray] = (),
        from_: Sequence[np.ndarray] = (),
        tofrom: Sequence[np.ndarray] = (),
        alloc: Sequence[np.ndarray] = (),
    ) -> Iterator[None]:
        """``#pragma omp target data map(...)``: hoist transfers to
        region boundaries.  ``from_`` spells ``map(from:)`` (``from`` is
        a Python keyword)."""
        write_back_ids = {id(a) for a in from_} | {id(a) for a in tofrom}
        entered: list[tuple[np.ndarray, np.ndarray, bool]] = []
        for host in list(to) + list(tofrom):
            device = self._map_to(host)
            entered.append((host, device, id(host) in write_back_ids))
            self._mapped[id(host)] = device
        for host in list(from_) + list(alloc):
            if id(host) in self._mapped:
                continue
            device = self._map_alloc(host)
            entered.append((host, device, id(host) in write_back_ids))
            self._mapped[id(host)] = device
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
                del self._mapped[id(host)]

    def target_teams_loop(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
        writes: Sequence[np.ndarray] = (),
        num_teams: int | None = None,
        thread_limit: int | None = None,
    ) -> None:
        """``#pragma omp target teams distribute parallel for``: offload
        one loop nest.

        ``arrays`` are the host arrays the loop references; ``writes``
        the subset it modifies.  ``num_teams``/``thread_limit`` mirror
        the clauses (workgroups / threads per workgroup in OpenCL
        terms); arrays outside any data environment are implicitly
        ``map(tofrom:)`` for the duration of the construct.
        """
        if thread_limit is not None and thread_limit <= 0:
            raise OmpTargetError("thread_limit clause must be positive")
        if num_teams is not None and num_teams <= 0:
            raise OmpTargetError("num_teams clause must be positive")

        # Mapping: arrays in a device data environment are already
        # resident; the rest are implicitly map(tofrom:) per launch.
        device_arrays: list[np.ndarray] = []
        transient: list[tuple[np.ndarray, np.ndarray]] = []
        for host in arrays:
            if self.unified:
                device_arrays.append(host)
            elif id(host) in self._mapped:
                device_arrays.append(self._mapped[id(host)])
            else:
                device = self._map_to(host)
                device_arrays.append(device)
                transient.append((host, device))

        if self.ctx.execute_kernels:
            func(*device_arrays, *scalars)
        self.toolchain.charge_gpu_kernel(self.ctx, spec, n_buffers=len(arrays))

        if not self.unified:
            written = {id(w) for w in writes}
            for host, device in transient:
                if id(host) in written or not writes:
                    if self.ctx.execute_kernels and device is not host:
                        np.copyto(host, device)
                    self._charge_transfer(host.nbytes, "d2h")
            # Writes to mapped arrays stay on the device until the data
            # region exits — the point of `target data`.
