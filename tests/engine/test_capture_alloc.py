"""The projection-mode contract of port output buffers.

Projection runs skip every kernel body, so an output buffer is never
written: ``ExecutionContext.output`` hands out a read-only zero-stride
placeholder there, and the run's checksum is a defined value rather
than a sum over problem-sized zeros.  The output-buffer apps (XSBench,
miniFE, read-benchmark) project to 0.0; LULESH and CoMD derive theirs
from initial state, pinned bit-exactly in
``tests/goldens/projection_checksums.json`` from the engine as it was
before placeholders existed.  Schedule capture also swaps each app's
problem builder for a frozen projection stub, checked here against the
real builder.
"""

import dataclasses
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APPS_BY_NAME
from repro.apps.comd import default_config as comd_default_config
from repro.apps.comd import paper_config as comd_paper_config
from repro.apps.comd import reference as comd_reference
from repro.apps.comd.reference import _projection_state as comd_stub
from repro.apps.comd.reference import make_state as comd_make_state
from repro.apps.lulesh import paper_config as lulesh_paper_config
from repro.apps.lulesh.reference import _projection_state as lulesh_stub
from repro.apps.lulesh.reference import make_state as lulesh_make_state
from repro.apps.xsbench import paper_config as xsbench_paper_config
from repro.engine import memo
from repro.engine.study_vec import capture_program
from repro.exec.executor import execute
from repro.exec.plan import PLATFORMS, RunSpec, study_runs
from repro.hardware.device import platform_for
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from tests.test_projection import SMALL

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "goldens" / "projection_checksums.json").read_text()
)

#: Defined projection checksum per app and precision, as float hex.
DEFINED = {
    app: GOLDEN.get(app, {precision.value: (0.0).hex() for precision in Precision})
    for app in SMALL
}

#: Peak traced allocation of one paper-scale XSBench capture.  One
#: problem-sized array is far above it: the 15M-lookup output is
#: 300/600 MB in single/double, and even the int32 material stream the
#: ports split into chunks is 60 MB.
CAPTURE_PEAK_BYTES = 8 << 20


def _context(platform: str, precision: Precision, execute: bool) -> ExecutionContext:
    return ExecutionContext(platform_for(platform), precision, execute_kernels=execute)


@pytest.mark.parametrize(
    "app_name, model",
    [(app, model) for app in sorted(SMALL) for model in sorted(APPS_BY_NAME[app].ports)],
)
def test_projection_checksum_is_defined(app_name, model):
    """Scalar projection runs and schedule captures both report the
    defined checksum, bit-exactly, on every platform and precision."""
    app, config = APPS_BY_NAME[app_name], SMALL[app_name]
    for platform in PLATFORMS:
        for precision in Precision:
            expected = DEFINED[app_name][precision.value]
            run = app.ports[model](_context(platform, precision, False), config)
            assert float(run.checksum).hex() == expected, (platform, precision)
            spec = RunSpec(app_name, model, platform, precision, config)
            assert float(capture_program(spec).checksum).hex() == expected


@pytest.mark.parametrize("model", sorted(APPS_BY_NAME["XSBench"].ports))
def test_paper_scale_xsbench_capture_allocates_no_problem_sized_buffer(model):
    spec = RunSpec("XSBench", model, "dgpu", Precision.DOUBLE, xsbench_paper_config())
    capture_program(spec)  # warm: imports and the cached projection stub
    tracemalloc.start()
    try:
        capture_program(spec)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < CAPTURE_PEAK_BYTES, f"{model}: {peak / 2**20:.1f} MiB traced"


@pytest.mark.parametrize("shape", [7, (6, 5)])
@pytest.mark.parametrize("precision", list(Precision))
def test_projection_output_is_a_read_only_placeholder(shape, precision):
    ctx = _context("dgpu", precision, execute=False)
    out = ctx.output(shape)
    zeros = np.zeros(shape, dtype=ctx.dtype)
    assert out.shape == zeros.shape and out.dtype == zeros.dtype
    assert out.nbytes == zeros.nbytes
    assert not any(out.strides)
    with pytest.raises(ValueError, match="read-only"):
        out[0] = 1.0
    for chunk in np.array_split(out, 3):
        assert chunk.nbytes == chunk.size * ctx.dtype.itemsize
        with pytest.raises(ValueError, match="read-only"):
            chunk[...] = 1.0
    assert ctx.checksum(out) == 0.0
    assert type(ctx.checksum(out)) is type(np.abs(zeros).sum())


def test_functional_output_is_writable_zeros():
    ctx = _context("apu", Precision.SINGLE, execute=True)
    out = ctx.output((4, 3), np.int32)
    assert out.dtype == np.int32 and out.flags.writeable and not out.any()
    out[1, 2] = 5
    assert ctx.checksum(out) == 5


def test_checksum_equals_abs_sum_off_placeholders():
    """Functional arrays, including negative values and a broadcast of
    a nonzero value, take the exact ``np.abs(a).sum()`` path."""
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        values = (rng.random((500, 5)) - 0.5).astype(dtype)
        assert ExecutionContext.checksum(values) == np.abs(values).sum()
        assert type(ExecutionContext.checksum(values)) is np.dtype(dtype).type
    ones = np.broadcast_to(np.array(-1.5), (4, 4))
    assert ExecutionContext.checksum(ones) == 24.0
    assert ExecutionContext.checksum(np.zeros(0)) == 0.0


def _arrays(value) -> dict[str, np.ndarray]:
    """Every array of a builder's output, by field name or position."""
    if isinstance(value, np.ndarray):
        return {"": value}
    if isinstance(value, tuple):
        return {str(i): item for i, item in enumerate(value)}
    return {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), np.ndarray)
    }


def _small_config(module: str):
    """The SMALL config of the app package that defines ``module``."""
    package = module.rsplit(".", 1)[0]
    (config,) = [c for c in SMALL.values() if type(c).__module__.rsplit(".", 1)[0] == package]
    return config


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize(
    "key", sorted(memo.PROJECTION_STUBS), ids=lambda key: key[0].split(".")[-2]
)
def test_projection_stub_is_faithful_and_frozen(key, precision):
    """A stub has the real build's array fields, shapes, dtypes and
    sizes and its exact checksum; every stub array is read-only, which
    is what lets the stub cache share one build between captures."""
    module, qualname = key
    builder = getattr(importlib.import_module(module), qualname).__wrapped__
    config = _small_config(module)
    real = builder(config, precision)
    stub = memo.PROJECTION_STUBS[key](config, precision)
    real_arrays, stub_arrays = _arrays(real), _arrays(stub)
    assert stub_arrays.keys() == real_arrays.keys()
    for name, array in stub_arrays.items():
        expected = real_arrays[name]
        assert (array.shape, array.dtype, array.nbytes) == (
            expected.shape, expected.dtype, expected.nbytes
        ), name
        assert array.size and not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    if hasattr(real, "checksum"):
        assert float(stub.checksum()).hex() == float(real.checksum()).hex()


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("config", [comd_default_config(), comd_paper_config()])
def test_comd_stub_cell_counts_match_the_real_binning(config, precision):
    """The separable count equals the real link-cell bincount; its
    maximum sizes ``cell_atoms`` and so the staged table's bytes."""
    real = comd_make_state.__wrapped__(config, precision)
    stub = comd_stub(config, precision)
    assert np.array_equal(stub.cell_count, real.cell_count)
    assert stub.cell_count.dtype == real.cell_count.dtype
    assert stub.cell_atoms.shape == real.cell_atoms.shape
    assert float(stub.checksum()).hex() == float(real.checksum()).hex()


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("config", [SMALL["LULESH"], lulesh_paper_config()])
def test_lulesh_stub_host_state_is_exact(config, precision):
    """The shape-only LULESH stub keeps every value the host reads:
    the initial ``dt`` (bit-equal), the three one-element reductions
    (equal, read-only) and the initial-state checksum."""
    real = lulesh_make_state.__wrapped__(config, precision)
    stub = lulesh_stub(config, precision)
    assert float(stub.dt).hex() == float(real.dt).hex()
    for name in ("q_max", "dt_courant_min", "dt_hydro_min"):
        array = getattr(stub, name)
        expected = getattr(real, name)
        assert array.dtype == expected.dtype and np.array_equal(array, expected), name
        assert not array.flags.writeable, name
    assert float(stub.checksum()).hex() == float(real.checksum()).hex()
    assert float(stub.checksum()).hex() == GOLDEN["LULESH"][precision.value]


def test_comd_study_draws_velocities_once(monkeypatch):
    """A both-precision paper-scale CoMD study draws one velocity
    sample: the single-precision stub casts the double-precision one."""
    calls = []
    draw = comd_reference._initial_velocities

    def counting(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(comd_reference, "_initial_velocities", counting)
    config = comd_paper_config()
    runs = study_runs(
        ["CoMD"], {"CoMD": config}, (True, False), list(Precision),
        ("OpenCL", "C++ AMP", "OpenACC"), "OpenMP", projection=True,
    )
    memo.clear_caches()
    try:
        outcomes, _stats = execute(runs)
    finally:
        memo.clear_caches()
    assert all(outcome is not None for outcome in outcomes)
    assert len(calls) == 1


@pytest.mark.parametrize("config", [SMALL["CoMD"], comd_paper_config()])
def test_comd_single_stub_velocities_match_the_real_build(config):
    memo.clear_caches()
    try:
        stub = comd_stub(config, Precision.SINGLE)
    finally:
        memo.clear_caches()
    real = comd_make_state.__wrapped__(config, Precision.SINGLE)
    assert stub.velocities.dtype == real.velocities.dtype
    assert stub.velocities.tobytes() == real.velocities.tobytes()
    assert not stub.velocities.flags.writeable
