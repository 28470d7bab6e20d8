"""miniFE: OpenMP CPU port (the Figures 8e/9e baseline).

``#pragma omp parallel for`` on the three kernels (reduction clauses
on the dot products) — Table IV's 18 changed lines.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openmp import OpenMP
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "OpenMP"


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = ctx.output(n)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)

    omp = OpenMP(ctx, num_threads=4)
    specs = kernel_specs(config, ctx.precision)
    # #pragma omp parallel for reduction(+:rr)
    omp.parallel_for(dot, specs["minife.dot"], arrays=[r, r, rr_out])
    rr = float(rr_out[0])
    for _ in range(config.cg_iterations):
        # #pragma omp parallel for
        omp.parallel_for(spmv, specs["minife.spmv"], arrays=[data, indices, indptr, p, ap])
        # #pragma omp parallel for reduction(+:pap)
        omp.parallel_for(dot, specs["minife.dot"], arrays=[p, ap, pap_out])
        pap = float(pap_out[0])
        alpha = rr / pap if pap else 0.0
        # #pragma omp parallel for (x, r updates and the new direction)
        omp.parallel_for(waxpby, specs["minife.waxpby"], arrays=[x, x, p], scalars=[1.0, alpha])
        omp.parallel_for(waxpby, specs["minife.waxpby"], arrays=[r, r, ap], scalars=[1.0, -alpha])
        omp.parallel_for(dot, specs["minife.dot"], arrays=[r, r, rr_out])
        rr_new = float(rr_out[0])
        beta = rr_new / rr if rr else 0.0
        omp.parallel_for(waxpby, specs["minife.waxpby"], arrays=[p, r, p], scalars=[1.0, beta])
        rr = rr_new
    return make_result("miniFE", ctx, model_name, omp.simulated_seconds, float(ctx.checksum(x)))
