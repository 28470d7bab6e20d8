"""OpenMP CPU runtime — the paper's baseline.

Figures 8 and 9 report every speedup relative to a 4-core OpenMP CPU
implementation.  Porting serial code to OpenMP is one pragma per loop
(Figure 3b), which is why Table IV's OpenMP column is tiny.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine.kernel import KernelSpec
from ..engine.launch import OPENMP_REGION_S
from .base import CPUToolchain, ExecutionContext


class OpenMP:
    """``#pragma omp parallel for`` over host arrays."""

    #: 0.0, like every charge: the run is priced from its charge log.
    simulated_seconds = 0.0

    def __init__(self, ctx: ExecutionContext, num_threads: int = 4) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.ctx = ctx
        self.num_threads = min(num_threads, ctx.platform.host.spec.cores)
        self.toolchain = CPUToolchain(
            "OpenMP", threads=self.num_threads, region_overhead_s=OPENMP_REGION_S
        )

    def parallel_for(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
    ) -> None:
        """Run one annotated loop nest across the team of threads."""
        if self.ctx.execute_kernels:
            func(*arrays, *scalars)
        self.toolchain.charge_loop(self.ctx, spec)
