"""Serial CPU execution — the starting point of every port.

Table IV counts lines of code added *starting from the serial CPU
implementation*; this runtime executes those reference implementations
and prices them on one core.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine.kernel import KernelSpec
from .base import CPUToolchain, ExecutionContext


class SerialCPU:
    """Single-threaded host execution with no runtime overhead."""

    #: 0.0, like every charge: the run is priced from its charge log.
    simulated_seconds = 0.0

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.toolchain = CPUToolchain("Serial", threads=1)

    def run_loop(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
    ) -> None:
        """Run one loop nest on a single core."""
        if self.ctx.execute_kernels:
            func(*arrays, *scalars)
        self.toolchain.charge_loop(self.ctx, spec)
