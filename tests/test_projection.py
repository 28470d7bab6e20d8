"""Projection mode must charge exactly what functional execution does.

This is the invariant the benchmark harness rests on: at any given
problem size, skipping the numerics changes nothing about the
simulated costs.  Both modes are priced from the charge log their run
leaves, so equal logs price to bit-identical results: every model,
both platforms and both precisions are compared with ``==``.
"""

import dataclasses

import pytest

from repro.apps import APPS_BY_NAME
from repro.apps.comd import CoMDConfig
from repro.apps.lulesh import LuleshConfig
from repro.apps.minife import MiniFEConfig
from repro.apps.readmem import ReadMemConfig
from repro.apps.xsbench import XSBenchConfig
from repro.core.study import run_port
from repro.hardware.specs import Precision

SMALL = {
    "read-benchmark": ReadMemConfig(size=1 << 16),
    "LULESH": LuleshConfig(size=6, iterations=2),
    "CoMD": CoMDConfig(nx=6, ny=6, nz=6, steps=1),
    "XSBench": XSBenchConfig(n_nuclides=34, n_gridpoints=60, n_lookups=2000),
    "miniFE": MiniFEConfig(nx=6, ny=6, nz=6, cg_iterations=5),
}

#: Every programming model with a port, the OpenMP baseline included.
MODELS = (
    "Serial", "OpenMP", "OpenCL", "C++ AMP", "OpenACC", "OpenMP Offload",
    "Heterogeneous Compute",
)


def priced_fields(result):
    """Everything a run is priced at: seconds, kernel seconds, joules
    and every counter (the checksum is what projection skips)."""
    return (
        result.seconds, result.kernel_seconds, result.joules,
        dataclasses.astuple(result.counters),
    )


@pytest.mark.parametrize("app_name", sorted(SMALL))
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("apu", [True, False])
def test_projection_equals_functional(app_name, model, apu):
    app = APPS_BY_NAME[app_name]
    config = SMALL[app_name]
    for precision in Precision:
        functional = run_port(app, model, apu, precision, config, projection=False)
        projected = run_port(app, model, apu, precision, config, projection=True)
        assert priced_fields(projected) == priced_fields(functional), precision
        assert functional.counters.kernel_launches > 0
