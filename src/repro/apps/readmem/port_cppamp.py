"""read-memory: C++ AMP port (Figure 6).

``array_view`` wrappers plus one ``parallel_for_each`` over a tiled
extent; the runtime decides when data moves.
"""

from __future__ import annotations

from ...models import cppamp as amp
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import read_gpu_kernel, read_kernel_spec
from .reference import ReadMemConfig, make_input

model_name = "C++ AMP"

TILE_SIZE = 256


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = ctx.output(config.n_blocks)

    rt = amp.AmpRuntime(ctx)
    in_view = amp.array_view(rt, data)
    out_view = amp.array_view(rt, out)
    out_view.discard_data()

    num_gpu_threads = amp.extent(config.n_blocks)
    rt.parallel_for_each(
        num_gpu_threads,
        read_gpu_kernel,
        read_kernel_spec(config, ctx.precision),
        views=[in_view, out_view],
        scalars=[config.block_size],
        writes=[out_view],
    )
    out_view.synchronize()
    return make_result("read-benchmark", ctx, model_name, rt.simulated_seconds, ctx.checksum(out))
