"""XSBench: serial CPU port."""

from __future__ import annotations

import numpy as np  # noqa: F401  (Table IV counts this line in every XSBench port)

from ...models.base import ExecutionContext
from ...models.serial import SerialCPU
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "Serial"


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = ctx.output((config.n_lookups, N_XS))

    cpu = SerialCPU(ctx)
    cpu.run_loop(
        xs_lookup,
        lookup_kernel_spec(config, ctx.precision),
        arrays=[data.lookup_energy, data.lookup_material, data.union_energy,
                data.union_index, data.material_nuclides, data.material_density,
                data.material_n, data.nuclide_energy, data.nuclide_xs, macro],
    )
    return make_result("XSBench", ctx, model_name, cpu.simulated_seconds, ctx.checksum(macro))
