"""The device data environment both directive runtimes share.

OpenACC (``data``/``kernels_loop``/``update_host``/``update_device``)
and OpenMP offload (``target_data``/``target_teams_loop``/
``update_from``/``update_to``) spell the same clauses differently, so
each case here runs once per spelling.  ``to``/``from_``/``tofrom``/
``alloc`` name the clauses as OpenMP ``map`` types; OpenACC's
``copyin``/``copyout``/``copy``/``create`` map onto them one to one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from repro.models.omp_offload import OmpTargetError, OpenMPOffload
from repro.models.openacc import AccError, OpenACC


@dataclass(frozen=True)
class Spelling:
    runtime: Callable
    error: type
    data: str
    clauses: dict  # OpenMP map type -> this spelling's keyword
    launch: str
    update_host: str
    update_device: str

    def region(self, rt, **maps):
        return getattr(rt, self.data)(**{self.clauses[k]: v for k, v in maps.items()})


SPELLINGS = {
    "openacc": Spelling(
        OpenACC, AccError, "data",
        {"to": "copyin", "from_": "copyout", "tofrom": "copy", "alloc": "create"},
        "kernels_loop", "update_host", "update_device",
    ),
    "omp-offload": Spelling(
        OpenMPOffload, OmpTargetError, "target_data",
        {"to": "to", "from_": "from_", "tofrom": "tofrom", "alloc": "alloc"},
        "target_teams_loop", "update_from", "update_to",
    ),
}


@pytest.fixture(params=sorted(SPELLINGS))
def spelling(request) -> Spelling:
    return SPELLINGS[request.param]


def make_ctx(execute=True):
    return ExecutionContext(
        platform=make_dgpu_platform(), precision=Precision.SINGLE, execute_kernels=execute
    )


def make_spec(n):
    return KernelSpec(
        name="directives.test", work_items=n,
        ops=OpCount(flops=float(n), bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
    )


def double_kernel(a):
    a *= 2


@pytest.mark.parametrize("execute", [True, False], ids=["functional", "projection"])
@pytest.mark.parametrize("clause", ["to", "tofrom"])
def test_nested_region_of_a_present_array_is_a_no_op(spelling, execute, clause):
    """Present-or semantics (OpenACC 2.x ``present_or_copyin``, OpenMP
    map reference counts): an inner region naming an array the outer
    region already holds neither copies it again on entry nor releases
    or writes it back on exit."""
    ctx = make_ctx(execute)
    rt = spelling.runtime(ctx)
    data = np.ones(1 << 12, dtype=np.float32)
    with spelling.region(rt, to=[data]):
        with spelling.region(rt, **{clause: [data]}):
            getattr(rt, spelling.launch)(
                double_kernel, make_spec(data.size), arrays=[data], writes=[data]
            )
        assert rt.is_present(data)
    assert not rt.is_present(data)
    counters = price_context(ctx).counters
    assert counters.bytes_to_device == data.nbytes
    assert counters.bytes_to_host == 0
    assert (data == 1.0).all()  # copy-in only: the device result is discarded


def test_copy_in_is_not_written_back(spelling):
    ctx = make_ctx()
    rt = spelling.runtime(ctx)
    data = np.ones(1 << 16, dtype=np.float32)
    with spelling.region(rt, to=[data]):
        getattr(rt, spelling.launch)(
            double_kernel, make_spec(data.size), arrays=[data], writes=[data]
        )
    assert (data == 1.0).all()  # device result discarded, as written
    assert price_context(ctx).counters.bytes_to_host == 0


def test_alloc_makes_present_without_a_copy(spelling):
    ctx = make_ctx()
    rt = spelling.runtime(ctx)
    scratch = np.zeros(1 << 16, dtype=np.float32)
    with spelling.region(rt, alloc=[scratch]):
        assert rt.is_present(scratch)
    assert price_context(ctx).counters.bytes_to_device == 0


def test_update_device_pushes_host_changes(spelling):
    ctx = make_ctx()
    rt = spelling.runtime(ctx)
    data = np.ones(1 << 16, dtype=np.float32)
    with spelling.region(rt, tofrom=[data]):
        data[:] = 5.0
        getattr(rt, spelling.update_device)(data)
        getattr(rt, spelling.launch)(
            double_kernel, make_spec(data.size), arrays=[data], writes=[data]
        )
    assert (data == 10.0).all()
    assert price_context(ctx).counters.bytes_to_device == 2 * data.nbytes


def test_update_device_of_an_array_outside_every_region_is_an_error(spelling):
    rt = spelling.runtime(make_ctx())
    with pytest.raises(spelling.error):
        getattr(rt, spelling.update_device)(np.zeros(8, dtype=np.float32))


def test_projection_charges_without_executing(spelling):
    calls = []
    ctx = make_ctx(execute=False)
    rt = spelling.runtime(ctx)
    data = np.ones(1 << 16, dtype=np.float32)
    with spelling.region(rt, tofrom=[data]):
        getattr(rt, spelling.launch)(
            lambda a: calls.append(1), make_spec(data.size), arrays=[data], writes=[data]
        )
    assert not calls
    counters = price_context(ctx).counters
    assert counters.kernel_launches == 1
    assert counters.bytes_to_device == data.nbytes
    assert counters.bytes_to_host == data.nbytes
