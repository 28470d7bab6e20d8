"""XSBench: Heterogeneous Compute port (Section VII).

The table stages once; the lookup chunks are *double-buffered* — the
next chunk's particle stream uploads asynchronously while the current
chunk computes, the Sec. VII overlap feature.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.hc import HCRuntime
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "Heterogeneous Compute"

N_CHUNKS = 4


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = ctx.output((config.n_lookups, N_XS))

    hc = HCRuntime(ctx)
    table = [data.union_energy, data.union_index, data.material_nuclides,
             data.material_density, data.material_n, data.nuclide_energy,
             data.nuclide_xs]
    for array in table:
        hc.async_copy_to_device(array)

    chunks = list(zip(
        np.array_split(data.lookup_energy, N_CHUNKS),
        np.array_split(data.lookup_material, N_CHUNKS),
        np.array_split(macro, N_CHUNKS),
    ))
    # Output chunks are allocation-only; prefetch the first inputs
    # behind the table upload.
    for _, _, out_chunk in chunks:
        hc.device_alloc(out_chunk)
    hc.async_copy_to_device(chunks[0][0])
    hc.async_copy_to_device(chunks[0][1])
    for i, (e_chunk, m_chunk, out_chunk) in enumerate(chunks):
        if i + 1 < len(chunks):
            hc.async_copy_to_device(chunks[i + 1][0])
            hc.async_copy_to_device(chunks[i + 1][1])
        spec = lookup_kernel_spec(config, ctx.precision, n_lookups=len(e_chunk))
        hc.launch(xs_lookup, spec,
                  arrays=[e_chunk, m_chunk, *table, out_chunk])
        hc.copy_to_host(out_chunk)
    return make_result("XSBench", ctx, model_name, hc.finish(), ctx.checksum(macro))
