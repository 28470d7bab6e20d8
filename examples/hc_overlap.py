#!/usr/bin/env python
"""Heterogeneous Compute: overlap transfers with kernels (Sec. VII).

The paper's closing section argues HC's explicit *asynchronous*
transfers fix the emerging models' biggest discrete-GPU weakness.
This example processes the XSBench lookup stream in chunks three ways:

1. C++ AMP style — runtime-managed transfers, results written back
   after every launch;
2. HC synchronous — explicit copies, but serialized with the kernels;
3. HC double-buffered — chunk i+1's upload rides the DMA stream while
   chunk i computes.

Run:
    python examples/hc_overlap.py
"""

import numpy as np

from repro import ExecutionContext, Precision, make_dgpu_platform
from repro.apps.xsbench import XSBenchConfig, lookup_kernel_spec, make_data, xs_lookup
from repro.apps.xsbench.reference import N_XS
from repro.engine.study_vec import price_context
from repro.models import cppamp as amp
from repro.models.hc import HCRuntime

config = XSBenchConfig(n_nuclides=68, n_gridpoints=2000, n_lookups=1_000_000)
precision = Precision.DOUBLE
N_CHUNKS = 8

print(f"XSBench: {config.n_lookups:,} lookups, "
      f"{config.table_bytes(precision) / 1e6:.0f} MB table, {N_CHUNKS} chunks\n")


def fresh():
    ctx = ExecutionContext(
        platform=make_dgpu_platform(), precision=precision, execute_kernels=False
    )
    data = make_data(config, precision)
    macro = np.zeros((config.n_lookups, N_XS), dtype=ctx.dtype)
    return ctx, data, macro


def chunks_of(data, macro):
    return list(zip(
        np.array_split(data.lookup_energy, N_CHUNKS),
        np.array_split(data.lookup_material, N_CHUNKS),
        np.array_split(macro, N_CHUNKS),
    ))


def table_arrays(data):
    return [data.union_energy, data.union_index, data.material_nuclides,
            data.material_density, data.material_n, data.nuclide_energy,
            data.nuclide_xs]


# --- 1. C++ AMP: the runtime owns the transfer schedule ---------------
ctx, data, macro = fresh()
rt = amp.AmpRuntime(ctx)
table_views = [amp.array_view(rt, a) for a in table_arrays(data)]
for e_chunk, m_chunk, out_chunk in chunks_of(data, macro):
    e_view, m_view = amp.array_view(rt, e_chunk), amp.array_view(rt, m_chunk)
    out_view = amp.array_view(rt, out_chunk)
    out_view.discard_data()
    spec = lookup_kernel_spec(config, precision, n_lookups=len(e_chunk))
    rt.parallel_for_each(amp.extent(len(e_chunk)), xs_lookup, spec,
                         views=[e_view, m_view, *table_views, out_view],
                         writes=[out_view])
    out_view.synchronize()
amp_seconds = price_context(ctx).seconds

# --- 2. HC, synchronous copies -----------------------------------------
ctx, data, macro = fresh()
hc = HCRuntime(ctx)
table = table_arrays(data)
for a in table:
    hc.copy_to_device(a)
for e_chunk, m_chunk, out_chunk in chunks_of(data, macro):
    hc.copy_to_device(e_chunk)
    hc.copy_to_device(m_chunk)
    hc.copy_to_device(out_chunk)
    spec = lookup_kernel_spec(config, precision, n_lookups=len(e_chunk))
    hc.launch(xs_lookup, spec, arrays=[e_chunk, m_chunk, *table, out_chunk])
    hc.copy_to_host(out_chunk)
hc.finish()
hc_sync_seconds = price_context(ctx).seconds

# --- 3. HC, double-buffered async prefetch ----------------------------
ctx, data, macro = fresh()
hc = HCRuntime(ctx)
table = table_arrays(data)
for a in table:
    hc.async_copy_to_device(a)
parts = chunks_of(data, macro)
# Prefetch the first chunk's inputs behind the table upload.
hc.async_copy_to_device(parts[0][0])
hc.async_copy_to_device(parts[0][1])
hc.async_copy_to_device(parts[0][2])
for i, (e_chunk, m_chunk, out_chunk) in enumerate(parts):
    if i + 1 < len(parts):
        hc.async_copy_to_device(parts[i + 1][0])
        hc.async_copy_to_device(parts[i + 1][1])
        hc.async_copy_to_device(parts[i + 1][2])
    spec = lookup_kernel_spec(config, precision, n_lookups=len(e_chunk))
    hc.launch(xs_lookup, spec, arrays=[e_chunk, m_chunk, *table, out_chunk])
    hc.copy_to_host(out_chunk)
hc.finish()
hc_async_seconds = price_context(ctx).seconds

print(f"C++ AMP (runtime-managed transfers): {amp_seconds * 1e3:8.1f} ms")
print(f"HC, synchronous explicit copies:     {hc_sync_seconds * 1e3:8.1f} ms"
      f"   ({amp_seconds / hc_sync_seconds:.2f}x vs AMP)")
print(f"HC, double-buffered async copies:    {hc_async_seconds * 1e3:8.1f} ms"
      f"   ({amp_seconds / hc_async_seconds:.2f}x vs AMP)")
print("\nExplicit transfers close most of the gap; overlapping them with")
print("kernel execution (the Sec. VII feature) buys the rest.")
