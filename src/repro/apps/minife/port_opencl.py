"""miniFE: OpenCL port.

The matrix and vectors are staged to the device once; the CG loop runs
entirely on the GPU with only the two 8-byte dot-product results read
back per iteration.  The SpMV kernel is CSR-Adaptive [15]: workgroups
cooperatively process LDS-sized row blocks.
"""

from __future__ import annotations

import numpy as np

from ...models import opencl as cl
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "OpenCL"

WORKGROUP_SIZE = 256


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = ctx.output(n)
    ap = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)

    # InitCl(): platform, device, context, queue, program.
    platform = cl.get_platforms(ctx)[0]
    device = next(d for d in platform.get_devices() if d.is_gpu)
    context = cl.Context(ctx, [device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context).build()

    # CreateClBuffer() + CopyClDataToGPU(): matrix and vectors, once.
    data_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
    indices_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=indices.nbytes)
    indptr_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=indptr.nbytes)
    x_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, hostbuf=x)
    r_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=b.nbytes)
    p_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=b.nbytes)
    ap_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, hostbuf=ap)
    pap_cl = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=pap_out)
    rr_cl = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=rr_out)
    queue.enqueue_write_buffer(data_cl, data)
    queue.enqueue_write_buffer(indices_cl, indices)
    queue.enqueue_write_buffer(indptr_cl, indptr)
    queue.enqueue_write_buffer(x_cl, x)
    queue.enqueue_write_buffer(r_cl, b)
    queue.enqueue_write_buffer(p_cl, b)

    specs = kernel_specs(config, ctx.precision)
    spmv_kernel = program.create_kernel("minife_spmv_csr_adaptive", spmv, specs["minife.spmv"])
    waxpby_kernel = program.create_kernel("minife_waxpby", waxpby, specs["minife.waxpby"])
    dot_kernel = program.create_kernel("minife_dot", dot, specs["minife.dot"])
    global_size = -(-n // WORKGROUP_SIZE) * WORKGROUP_SIZE

    def launch_dot(a_cl: cl.Buffer, b_cl_: cl.Buffer, out_cl: cl.Buffer, out_host: np.ndarray) -> float:
        dot_kernel.set_args(a_cl, b_cl_, out_cl)
        queue.enqueue_nd_range_kernel(dot_kernel, global_size, WORKGROUP_SIZE)
        queue.enqueue_read_buffer(out_cl, out_host)
        return float(out_host[0])

    def launch_waxpby(w_cl: cl.Buffer, xa_cl: cl.Buffer, ya_cl: cl.Buffer, alpha: float, beta: float) -> None:
        waxpby_kernel.set_args(w_cl, xa_cl, ya_cl, alpha, beta)
        queue.enqueue_nd_range_kernel(waxpby_kernel, global_size, WORKGROUP_SIZE)

    rr = launch_dot(r_cl, r_cl, rr_cl, rr_out)
    for _ in range(config.cg_iterations):
        spmv_kernel.set_args(data_cl, indices_cl, indptr_cl, p_cl, ap_cl)
        queue.enqueue_nd_range_kernel(spmv_kernel, global_size, WORKGROUP_SIZE)
        pap = launch_dot(p_cl, ap_cl, pap_cl, pap_out)
        alpha = rr / pap if pap else 0.0
        launch_waxpby(x_cl, x_cl, p_cl, 1.0, alpha)
        launch_waxpby(r_cl, r_cl, ap_cl, 1.0, -alpha)
        rr_new = launch_dot(r_cl, r_cl, rr_cl, rr_out)
        beta = rr_new / rr if rr else 0.0
        launch_waxpby(p_cl, r_cl, p_cl, 1.0, beta)
        rr = rr_new

    # CopyClDataToHost(): the solution vector.
    queue.enqueue_read_buffer(x_cl, x)
    seconds = queue.finish()
    return make_result("miniFE", ctx, model_name, seconds, float(ctx.checksum(x)))
