"""read-memory: OpenCL port (Figure 4).

The host side does what every OpenCL application must: discover the
platform and device, create a context and command queue, build the
program, create ``cl_mem`` buffers, stage the input explicitly, set
kernel arguments, compute the NDRange, launch, and read the result
back.  This boilerplate is the 181 changed lines of Table IV.
"""

from __future__ import annotations

from ...models import opencl as cl
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import read_gpu_kernel, read_kernel_spec
from .reference import ReadMemConfig, make_input

model_name = "OpenCL"

WORKGROUP_SIZE = 256


def init_cl(ctx: ExecutionContext) -> tuple[cl.Context, cl.CommandQueue, cl.Program]:
    """The InitCl() boilerplate of Figure 4a."""
    platforms = cl.get_platforms(ctx)
    if not platforms:
        raise cl.CLError("no OpenCL platform found")
    devices = platforms[0].get_devices()
    gpu = next(d for d in devices if d.is_gpu)
    context = cl.Context(ctx, [gpu])
    queue = cl.CommandQueue(context, gpu)
    program = cl.Program(context).build()
    return context, queue, program


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = ctx.output(config.n_blocks)

    # InitCl(): device, context, command queue, program build.
    context, queue, program = init_cl(ctx)

    # CreateClBuffer(): one cl_mem per host array.
    in_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
    out_cl = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=out)

    # CopyClDataToGPU(): explicit staging (free on the APU).
    queue.enqueue_write_buffer(in_cl, data)

    # SetCLKernelArgs() + kernel creation.
    spec = read_kernel_spec(config, ctx.precision)
    kernel = program.create_kernel("read_opencl_gpu", read_gpu_kernel, spec)
    kernel.set_args(in_cl, out_cl, config.block_size)

    # numGPUThreads = size / BLOCKSIZE, rounded up to the workgroup.
    num_gpu_threads = config.size // config.block_size
    global_size = ((num_gpu_threads + WORKGROUP_SIZE - 1) // WORKGROUP_SIZE) * WORKGROUP_SIZE

    # LaunchKernel().
    queue.enqueue_nd_range_kernel(kernel, global_size, WORKGROUP_SIZE)

    # CopyClDataToHost().
    queue.enqueue_read_buffer(out_cl, out)
    seconds = queue.finish()
    return make_result("read-benchmark", ctx, model_name, seconds, ctx.checksum(out))
