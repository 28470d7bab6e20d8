"""miniFE: Heterogeneous Compute port (Section VII).

The matrix stages once, the CG loop runs device-resident with raw
pointers, and only the 8-byte dot results synchronize per iteration.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.hc import HCRuntime
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "Heterogeneous Compute"


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = ctx.output(n)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)

    hc = HCRuntime(ctx)
    specs = kernel_specs(config, ctx.precision)
    for array in (data, indices, indptr, x, r, p):
        hc.copy_to_device(array)
    for array in (ap, pap_out, rr_out):
        hc.device_alloc(array)

    def launch_dot(a: np.ndarray, b_: np.ndarray, out: np.ndarray) -> float:
        hc.launch(dot, specs["minife.dot"], arrays=[a, b_, out])
        hc.copy_to_host(out)
        return float(out[0])

    def launch_waxpby(w: np.ndarray, xa: np.ndarray, ya: np.ndarray, alpha: float, beta: float) -> None:
        hc.launch(waxpby, specs["minife.waxpby"], arrays=[w, xa, ya], scalars=[alpha, beta])

    rr = launch_dot(r, r, rr_out)
    for _ in range(config.cg_iterations):
        hc.launch(spmv, specs["minife.spmv"], arrays=[data, indices, indptr, p, ap])
        pap = launch_dot(p, ap, pap_out)
        alpha = rr / pap if pap else 0.0
        launch_waxpby(x, x, p, 1.0, alpha)
        launch_waxpby(r, r, ap, 1.0, -alpha)
        rr_new = launch_dot(r, r, rr_out)
        beta = rr_new / rr if rr else 0.0
        launch_waxpby(p, r, p, 1.0, beta)
        rr = rr_new

    hc.copy_to_host(x)
    return make_result("miniFE", ctx, model_name, hc.finish(), float(ctx.checksum(x)))
