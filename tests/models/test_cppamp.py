"""C++ AMP runtime semantics tests."""

import numpy as np
import pytest

from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import price_context
from repro.hardware.device import make_apu_platform, make_dgpu_platform
from repro.hardware.specs import Precision
from repro.models import cppamp as amp
from repro.models.base import ExecutionContext


def make_ctx(apu=False, execute=True):
    platform = make_apu_platform() if apu else make_dgpu_platform()
    return ExecutionContext(platform=platform, precision=Precision.SINGLE, execute_kernels=execute)


def make_spec(n=4096, name="amp.test", lds=0):
    return KernelSpec(
        name=name, work_items=n,
        ops=OpCount(flops=float(n), bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
        lds_bytes_per_workgroup=lds,
    )


def double_kernel(a):
    a *= 2


class TestExtents:
    def test_extent_positive(self):
        with pytest.raises(ValueError):
            amp.extent(0)

    def test_tile_must_divide(self):
        with pytest.raises(ValueError):
            amp.extent(100).tile(64)

    def test_tile_ok(self):
        tiled = amp.extent(256).tile(64)
        assert tiled.tile_size == 64


class TestArrayView:
    def test_functional_round_trip_dgpu(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(4096, dtype=np.float32)
        view = amp.array_view(rt, data)
        rt.parallel_for_each(amp.extent(4096), double_kernel, make_spec(), views=[view], writes=[view])
        # CLAMP writes back eagerly, so the host already sees results.
        assert (data == 2.0).all()

    def test_apu_operates_in_place(self):
        ctx = make_ctx(apu=True)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(4096, dtype=np.float32)
        view = amp.array_view(rt, data)
        rt.parallel_for_each(amp.extent(4096), double_kernel, make_spec(), views=[view], writes=[view])
        assert (data == 2.0).all()
        assert price_context(ctx).counters.transfer_seconds == 0.0

    def test_dgpu_charges_upload_and_writeback(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(1 << 18, dtype=np.float32)
        view = amp.array_view(rt, data)
        rt.parallel_for_each(amp.extent(1 << 18), double_kernel, make_spec(1 << 18), views=[view], writes=[view])
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
        assert price_context(ctx).counters.bytes_to_host == data.nbytes

    def test_unwritten_views_upload_once(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(1 << 18, dtype=np.float32)
        out = np.zeros(1 << 18, dtype=np.float32)
        in_view = amp.array_view(rt, data)
        out_view = amp.array_view(rt, out)
        out_view.discard_data()

        def copy(a, b):
            b[:] = a

        spec = make_spec(1 << 18)
        rt.parallel_for_each(amp.extent(1 << 18), copy, spec, views=[in_view, out_view], writes=[out_view])
        rt.parallel_for_each(amp.extent(1 << 18), copy, spec, views=[in_view, out_view], writes=[out_view])
        # Input uploaded once; output written back twice, never uploaded.
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
        assert price_context(ctx).counters.bytes_to_host == 2 * out.nbytes

    def test_discard_data_skips_upload(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        out = np.zeros(1 << 18, dtype=np.float32)
        view = amp.array_view(rt, out)
        view.discard_data()
        rt.parallel_for_each(amp.extent(1 << 18), double_kernel, make_spec(1 << 18), views=[view], writes=[view])
        assert price_context(ctx).counters.bytes_to_device == 0


class TestTiling:
    def test_tiled_launch_requires_tile_static(self):
        ctx = make_ctx()
        rt = amp.AmpRuntime(ctx)
        data = np.ones(4096, dtype=np.float32)
        view = amp.array_view(rt, data)
        with pytest.raises(ValueError):
            rt.parallel_for_each(
                amp.extent(4096).tile(64), double_kernel, make_spec(lds=0),
                views=[view], writes=[view],
            )

    def test_tiled_launch_with_lds(self):
        ctx = make_ctx()
        rt = amp.AmpRuntime(ctx)
        data = np.ones(4096, dtype=np.float32)
        view = amp.array_view(rt, data)
        rt.parallel_for_each(
            amp.extent(4096).tile(64), double_kernel, make_spec(lds=1024),
            views=[view], writes=[view],
        )
        assert (data == 2.0).all()


class TestCompilerBug:
    def test_broken_kernel_raises_on_dgpu(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(64, dtype=np.float32)
        view = amp.array_view(rt, data)
        spec = make_spec(64, name="lulesh.calc_kinematics")
        assert not rt.compiles("lulesh.calc_kinematics")
        with pytest.raises(amp.CompilerBug):
            rt.parallel_for_each(amp.extent(64), double_kernel, spec, views=[view])

    def test_same_kernel_compiles_on_apu(self):
        rt = amp.AmpRuntime(make_ctx(apu=True))
        assert rt.compiles("lulesh.calc_kinematics")

    def test_workaround_flag_fixes_dgpu(self):
        rt = amp.AmpRuntime(make_ctx(apu=False), workaround_known_bugs=True)
        assert rt.compiles("lulesh.calc_kinematics")

    def test_cpu_fallback_round_trips(self):
        ctx = make_ctx(apu=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        view = amp.array_view(rt, data)
        # Warm the device copy first.
        rt.parallel_for_each(amp.extent(1 << 16), double_kernel, make_spec(1 << 16), views=[view], writes=[view])
        before = price_context(ctx).counters.bytes_to_device
        rt.cpu_fallback_loop(double_kernel, make_spec(1 << 16), views=[view])
        assert (data == 4.0).all()
        # The fallback marks views stale: the next launch re-uploads.
        rt.parallel_for_each(amp.extent(1 << 16), double_kernel, make_spec(1 << 16), views=[view], writes=[view])
        assert price_context(ctx).counters.bytes_to_device > before


class TestProjection:
    def test_charges_without_executing(self):
        calls = []
        ctx = make_ctx(apu=False, execute=False)
        rt = amp.AmpRuntime(ctx)
        data = np.ones(1 << 16, dtype=np.float32)
        view = amp.array_view(rt, data)
        rt.parallel_for_each(
            amp.extent(1 << 16), lambda a: calls.append(1), make_spec(1 << 16),
            views=[view], writes=[view],
        )
        assert not calls
        assert price_context(ctx).counters.kernel_launches == 1
        assert price_context(ctx).counters.bytes_to_device == data.nbytes
        assert price_context(ctx).counters.bytes_to_host == data.nbytes
