"""OpenMP target-offload runtime (simulated ``#pragma omp target``).

The directive surface mirrors OpenACC's, with OpenMP 4.5 names, and
both are spelled over one device data environment
(:mod:`repro.models.device_data`):

* :meth:`OpenMPOffload.target_data` — ``#pragma omp target data
  map(to:...) map(from:...) map(tofrom:...) map(alloc:...)``.  Inside
  the region the mapped arrays live in the *device data environment*
  and launches reference them without moving them.  Mapping an array
  that is already mapped moves nothing (the map reference count).
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

from contextlib import AbstractContextManager
from typing import Callable, Sequence

import numpy as np

from ...engine.kernel import KernelSpec
from ...engine.launch import OMP_OFFLOAD_APU, OMP_OFFLOAD_DGPU
from ..base import ExecutionContext
from ..device_data import DirectiveRuntime
from .compiler import DEFAULT_OMP_COMPILER, OMP_OFFLOAD_PROFILES


class OmpTargetError(RuntimeError):
    """An OpenMP offload runtime error (e.g. map-clause misuse)."""


class OpenMPOffload(DirectiveRuntime):
    """The OpenMP target-offload runtime bound to one execution context."""

    error = OmpTargetError

    def __init__(self, ctx: ExecutionContext, compiler: str = DEFAULT_OMP_COMPILER) -> None:
        try:
            profile = OMP_OFFLOAD_PROFILES[compiler]
        except KeyError:
            raise OmpTargetError(
                f"unknown OpenMP offload compiler {compiler!r}; "
                f"known: {sorted(OMP_OFFLOAD_PROFILES)}"
            ) from None
        super().__init__(ctx, profile, OMP_OFFLOAD_APU, OMP_OFFLOAD_DGPU)
        self.compiler = compiler

    def update_from(self, host: np.ndarray) -> None:
        """``#pragma omp target update from(...)``: refresh the host
        copy of a mapped array mid-region."""
        self._update(host, "d2h", "target update from(...) of an unmapped array")

    def update_to(self, host: np.ndarray) -> None:
        """``#pragma omp target update to(...)``: push host changes to
        the device copy of a mapped array."""
        self._update(host, "h2d", "target update to(...) of an unmapped array")

    def target_data(
        self,
        to: Sequence[np.ndarray] = (),
        from_: Sequence[np.ndarray] = (),
        tofrom: Sequence[np.ndarray] = (),
        alloc: Sequence[np.ndarray] = (),
    ) -> AbstractContextManager[None]:
        """``#pragma omp target data map(...)``: hoist transfers to
        region boundaries.  ``from_`` spells ``map(from:)`` (``from`` is
        a Python keyword)."""
        return self._region(to, from_, tofrom, alloc)

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
        self._launch(func, spec, arrays, scalars, writes)
