#!/usr/bin/env python
"""Porting walkthrough: the read-memory benchmark in four models.

Section III of the paper introduces each programming model by porting
the same micro-benchmark.  This example does the same against the
simulated runtimes, showing exactly the API shapes the paper's
pseudocode figures show, prices each run from the charges it logged
(``price_context``) — and then measures what Table IV measures: how
many lines each port took.

Run:
    python examples/porting_walkthrough.py
"""

import numpy as np

from repro import ExecutionContext, Precision, make_dgpu_platform
from repro.apps.readmem import BLOCK_SIZE, ReadMemConfig, make_input, read_gpu_kernel, read_kernel_spec
from repro.engine.study_vec import price_context
from repro.models import cppamp as amp
from repro.models import opencl as cl
from repro.models.openacc import OpenACC
from repro.models.openmp import OpenMP
from repro.sloc import measure_lines_added
from repro.apps import APPS_BY_NAME

config = ReadMemConfig(size=1 << 20)
spec = read_kernel_spec(config, Precision.SINGLE)


def fresh():
    ctx = ExecutionContext(platform=make_dgpu_platform(), precision=Precision.SINGLE)
    data = make_input(config, Precision.SINGLE)
    out = np.zeros(config.n_blocks, dtype=np.float32)
    return ctx, data, out


# --- OpenMP (Figure 3b): one pragma ----------------------------------
ctx, data, out = fresh()
omp = OpenMP(ctx, num_threads=4)
omp.parallel_for(read_gpu_kernel, spec, arrays=[data, out], scalars=[BLOCK_SIZE])
print(f"OpenMP    {price_context(ctx).seconds * 1e6:9.1f} us   sum={out.sum():.2f}")

# --- OpenCL (Figure 4): the full host-side ceremony -------------------
ctx, data, out = fresh()
platform = cl.get_platforms(ctx)[0]
device = next(d for d in platform.get_devices() if d.is_gpu)
context = cl.Context(ctx, [device])
queue = cl.CommandQueue(context, device)
program = cl.Program(context).build()
in_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=data.nbytes)
out_cl = cl.Buffer(context, cl.MemFlags.WRITE_ONLY, hostbuf=out)
queue.enqueue_write_buffer(in_cl, data)
kernel = program.create_kernel("read", read_gpu_kernel, spec)
kernel.set_args(in_cl, out_cl, BLOCK_SIZE)
queue.enqueue_nd_range_kernel(kernel, config.n_blocks, 256)
queue.enqueue_read_buffer(out_cl, out)
queue.finish()
print(f"OpenCL    {price_context(ctx).seconds * 1e6:9.1f} us   sum={out.sum():.2f}")

# --- C++ AMP (Figure 6): array_view + parallel_for_each ---------------
ctx, data, out = fresh()
rt = amp.AmpRuntime(ctx)
in_view = amp.array_view(rt, data)
out_view = amp.array_view(rt, out)
out_view.discard_data()
rt.parallel_for_each(
    amp.extent(config.n_blocks), read_gpu_kernel, spec,
    views=[in_view, out_view], scalars=[BLOCK_SIZE], writes=[out_view],
)
out_view.synchronize()
print(f"C++ AMP   {price_context(ctx).seconds * 1e6:9.1f} us   sum={out.sum():.2f}")

# --- OpenACC (Figure 5): one annotated loop ---------------------------
ctx, data, out = fresh()
acc = OpenACC(ctx)
acc.kernels_loop(
    read_gpu_kernel, spec, arrays=[data, out], scalars=[BLOCK_SIZE],
    writes=[out], gang=config.n_blocks // BLOCK_SIZE, vector=BLOCK_SIZE,
)
print(f"OpenACC   {price_context(ctx).seconds * 1e6:9.1f} us   sum={out.sum():.2f}")

# --- what each port cost, in lines (Table IV's measurement) -----------
print("\nLines added to port the serial code (SLOCCount-equivalent):")
for model, lines in measure_lines_added(APPS_BY_NAME["read-benchmark"]).items():
    print(f"  {model:10s} {lines:4d}")
