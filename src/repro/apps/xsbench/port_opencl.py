"""XSBench: OpenCL port.

The 240 MB table (unionized grid + index matrix + nuclide data) is
staged to the discrete GPU exactly once — the explicit-transfer
advantage — and the lookup kernel is launched over the particle
stream in chunks, as the real GPU port batches its grid.
"""

from __future__ import annotations

import numpy as np

from ...models import opencl as cl
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "OpenCL"

WORKGROUP_SIZE = 256
N_CHUNKS = 4


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = ctx.output((config.n_lookups, N_XS))

    # InitCl(): platform, device, context, queue, program.
    platform = cl.get_platforms(ctx)[0]
    device = next(d for d in platform.get_devices() if d.is_gpu)
    context = cl.Context(ctx, [device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context).build()

    # CreateClBuffer() + CopyClDataToGPU(): the table moves once.
    table_arrays = {
        "union_energy": data.union_energy,
        "union_index": data.union_index,
        "material_nuclides": data.material_nuclides,
        "material_density": data.material_density,
        "material_n": data.material_n,
        "nuclide_energy": data.nuclide_energy,
        "nuclide_xs": data.nuclide_xs,
    }
    table_buffers = {}
    for name, host in table_arrays.items():
        table_buffers[name] = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=host.nbytes)
        queue.enqueue_write_buffer(table_buffers[name], host)

    kernel = program.create_kernel(
        "xs_lookup", xs_lookup, lookup_kernel_spec(config, ctx.precision, 1)
    )

    # Launch the lookup stream in chunks.
    energy_chunks = np.array_split(data.lookup_energy, N_CHUNKS)
    material_chunks = np.array_split(data.lookup_material, N_CHUNKS)
    macro_chunks = np.array_split(macro, N_CHUNKS)
    for e_chunk, m_chunk, out_chunk in zip(energy_chunks, material_chunks, macro_chunks):
        e_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=e_chunk.nbytes)
        m_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=m_chunk.nbytes)
        out_cl = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=out_chunk)
        queue.enqueue_write_buffer(e_cl, e_chunk)
        queue.enqueue_write_buffer(m_cl, m_chunk)
        spec = lookup_kernel_spec(config, ctx.precision, n_lookups=len(e_chunk))
        kernel = program.create_kernel("xs_lookup", xs_lookup, spec)
        kernel.set_args(
            e_cl, m_cl,
            table_buffers["union_energy"], table_buffers["union_index"],
            table_buffers["material_nuclides"], table_buffers["material_density"],
            table_buffers["material_n"], table_buffers["nuclide_energy"],
            table_buffers["nuclide_xs"], out_cl,
        )
        global_size = -(-len(e_chunk) // WORKGROUP_SIZE) * WORKGROUP_SIZE
        queue.enqueue_nd_range_kernel(kernel, global_size, WORKGROUP_SIZE)
        queue.enqueue_read_buffer(out_cl, out_chunk)

    seconds = queue.finish()
    return make_result("XSBench", ctx, model_name, seconds, ctx.checksum(macro))
