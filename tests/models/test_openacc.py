"""OpenACC runtime semantics tests."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from repro.models.openacc import AccError, OpenACC


def make_ctx(apu=False, execute=True):
    platform = make_apu_platform() if apu else make_dgpu_platform()
    return ExecutionContext(platform=platform, precision=Precision.SINGLE, execute_kernels=execute)


def make_spec(n=4096):
    return KernelSpec(
        name="acc.test", work_items=n,
        ops=OpCount(flops=float(n), bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
    )


def double_kernel(a):
    a *= 2


class TestWithoutDataRegion:
    def test_launch_round_trips_every_time(self):
        """No data region: the compiler conservatively copies the
        arrays in and back for every launch — the Sec. VI-A failure
        mode."""
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 18, dtype=np.float32)
        spec = make_spec(1 << 18)
        acc.kernels_loop(double_kernel, spec, arrays=[data], writes=[data])
        acc.kernels_loop(double_kernel, spec, arrays=[data], writes=[data])
        assert price_context(ctx).counters.bytes_to_device == 2 * data.nbytes
        assert price_context(ctx).counters.bytes_to_host == 2 * data.nbytes
        assert (data == 4.0).all()


class TestDataRegion:
    def test_region_hoists_transfers(self):
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 18, dtype=np.float32)
        spec = make_spec(1 << 18)
        with acc.data(copy=[data]):
            acc.kernels_loop(double_kernel, spec, arrays=[data], writes=[data])
            acc.kernels_loop(double_kernel, spec, arrays=[data], writes=[data])
        # One copyin at entry, one copyout at exit — not per launch.
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
        assert price_context(ctx).counters.bytes_to_host == data.nbytes
        assert (data == 4.0).all()

    def test_copyin_not_written_back(self):
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        with acc.data(copyin=[data]):
            acc.kernels_loop(double_kernel, make_spec(1 << 16), arrays=[data], writes=[data])
        assert (data == 1.0).all()  # device result discarded, as written
        assert price_context(ctx).counters.bytes_to_host == 0

    def test_create_allocates_without_copy(self):
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        scratch = np.zeros(1 << 16, dtype=np.float32)
        with acc.data(create=[scratch]):
            assert acc.is_present(scratch)
        assert price_context(ctx).counters.bytes_to_device == 0

    def test_update_host_fetches_region_array(self):
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        with acc.data(copyin=[data]):
            acc.kernels_loop(double_kernel, make_spec(1 << 16), arrays=[data], writes=[data])
            acc.update_host(data)
            assert (data == 2.0).all()

    def test_update_host_outside_region_rejected(self):
        acc = OpenACC(make_ctx(apu=False))
        with pytest.raises(AccError):
            acc.update_host(np.zeros(4))

    def test_update_device_pushes_host_changes(self):
        ctx = make_ctx(apu=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        with acc.data(copy=[data]):
            data[:] = 5.0
            acc.update_device(data)
        assert (data == 5.0).all()


class TestAPU:
    def test_no_transfers(self):
        ctx = make_ctx(apu=True)
        acc = OpenACC(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        with acc.data(copy=[data]):
            acc.kernels_loop(double_kernel, make_spec(1 << 16), arrays=[data], writes=[data])
        assert price_context(ctx).counters.transfer_seconds == 0.0
        assert (data == 2.0).all()


class TestClauses:
    def test_bad_vector_clause(self):
        acc = OpenACC(make_ctx())
        with pytest.raises(AccError):
            acc.kernels_loop(double_kernel, make_spec(), arrays=[np.zeros(4)], vector=0)

    def test_bad_gang_clause(self):
        acc = OpenACC(make_ctx())
        with pytest.raises(AccError):
            acc.kernels_loop(double_kernel, make_spec(), arrays=[np.zeros(4)], gang=-1)


class TestProjection:
    def test_charges_without_executing(self):
        calls = []
        ctx = make_ctx(apu=False, execute=False)
        acc = OpenACC(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        with acc.data(copy=[data]):
            acc.kernels_loop(lambda a: calls.append(1), make_spec(1 << 16), arrays=[data], writes=[data])
        assert not calls
        assert price_context(ctx).counters.kernel_launches == 1
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
