"""The kernel roofline is written once, over arrays (``engine/timing_vec.py``).

The one-kernel entry points in ``engine/timing.py`` are one-cell calls
into the array formulas.  Two properties make a batched call equal to
those one-cell calls:

* the formulas contain no reduction (a sum or product over kernels
  would reassociate), which is checked on the source of
  ``timing_vec.py`` and of the elementwise
  :func:`~repro.engine.energy.kernel_joules`;
* a seeded fuzz over random kernels and clock rows finds every cell of
  a batched call, its limiter code and joules included, equal to the
  one-cell call.
"""

import ast
import dataclasses
import inspect
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.engine import energy, timing_vec
from repro.engine.counters import LIMITERS
from repro.engine.kernel import AccessKind, OpCount
from repro.engine.timing import KernelTiming, time_cpu_kernel, time_gpu_kernel
from repro.engine.timing_vec import (
    COMPUTE,
    FLOOR,
    MEMORY,
    KernelPrices,
    time_cpu_kernel_batch,
    time_gpu_kernel_grid,
)
from repro.hardware.device import platform_for
from repro.hardware.specs import Precision

from .test_differential import random_lowering, random_spec

#: Names whose use would reassociate a float sum or product.
REDUCTIONS = frozenset({
    "sum", "fsum", "nansum", "prod", "nanprod", "mean", "nanmean", "average",
    "dot", "vdot", "inner", "matmul", "tensordot", "einsum", "cumsum", "cumprod",
    "reduce", "accumulate",
})

FLOAT_FIELDS = (
    "seconds", "cycles", "instructions", "dram_bytes",
    "compute_seconds", "memory_seconds", "joules",
)

PLATFORMS = ("apu", "dgpu", "v100")


def reductions_in(source: str) -> list[str]:
    """Every reduction name or ``@`` operator in ``source``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            name = "@"
        else:
            continue
        if name in REDUCTIONS or name == "@":
            found.append(f"line {node.lineno}: {name}")
    return found


def test_formulas_contain_no_reduction():
    assert reductions_in(Path(timing_vec.__file__).read_text()) == []


def test_kernel_joules_contains_no_reduction():
    assert reductions_in(inspect.getsource(energy.kernel_joules)) == []


def test_limiter_codes_index_the_limiter_names():
    assert [LIMITERS[code] for code in (FLOOR, COMPUTE, MEMORY)] == [
        "floor", "compute", "memory"
    ]


@pytest.mark.parametrize("snippet", [
    "np.sum(x)", "x.sum()", "sum(x)", "math.fsum(x)", "np.prod(x)", "x.mean()",
    "np.dot(a, b)", "np.matmul(a, b)", "np.einsum('i,i', a, b)", "np.cumsum(x)",
    "np.add.reduce(x)", "np.multiply.accumulate(x)", "a @ b", "a @= b",
])
def test_reduction_scan_finds_each_form(snippet):
    assert reductions_in(snippet), snippet


def edge_specs(rng: random.Random, kind: AccessKind) -> list:
    """Kernels at the edges of the formulas: floor-bound, FLOP-free,
    idle (no work at all) and FLOP-dense."""
    spec = random_spec(rng, kind)
    return [
        dataclasses.replace(
            spec, name=f"tiny-{kind.value}", work_items=64,
            ops=OpCount(flops=64.0, int_ops=64.0, bytes_read=256.0),
        ),
        dataclasses.replace(
            spec, name=f"no-flops-{kind.value}", ops=dataclasses.replace(spec.ops, flops=0.0)
        ),
        dataclasses.replace(spec, name=f"idle-{kind.value}", ops=OpCount()),
        dataclasses.replace(
            spec, name=f"dense-{kind.value}",
            ops=dataclasses.replace(spec.ops, flops=spec.work_items * 20000.0),
        ),
    ]


def random_specs(rng: random.Random) -> list:
    """Random kernels of every access kind, edge cases included, shuffled."""
    specs = []
    for kind in AccessKind:
        specs += [random_spec(rng, kind) for _ in range(3)]
        specs += edge_specs(rng, kind)
    rng.shuffle(specs)
    return specs


def clock_rows(rng: random.Random, platform: str, n: int) -> list:
    """The default clock state plus ``n - 1`` random ones of one GPU."""
    rows = [platform_for(platform).gpu]
    for _ in range(n - 1):
        gpu = platform_for(platform).gpu
        for clock in (gpu.core_clock, gpu.memory_clock):
            clock.set(rng.uniform(clock.min_mhz, clock.max_mhz))
        rows.append(gpu)
    return rows


def assert_same_cell(prices: KernelPrices, cell: tuple, one: KernelTiming) -> None:
    """Cell ``cell`` of a batched call equals the one-cell call, bit for
    bit, its limiter code and occupancy included; the one-cell timing
    holds Python scalars that ``json.dumps`` takes."""
    for name in FLOAT_FIELDS:
        a, b = getattr(prices, name)[cell], getattr(one, name)
        assert type(b) is float, (one.name, name)
        assert repr(float(a)) == repr(b), (one.name, name, a, b)
    assert LIMITERS[prices.limiter[cell]] == one.limited_by, one.name
    assert prices.waves[cell[-1]] == one.occupancy_waves, one.name
    json.dumps(dataclasses.asdict(one))


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("platform", PLATFORMS)
def test_grid_cells_equal_one_cell_calls(platform, precision):
    rng = random.Random(f"gpu-{platform}-{precision.value}")
    lowereds = [random_lowering(rng, spec) for spec in random_specs(rng)]
    rows = clock_rows(rng, platform, 6)
    grid = time_gpu_kernel_grid(lowereds, rows, precision)
    for name in KernelPrices._fields[:-1]:
        assert getattr(grid, name).shape == (len(rows), len(lowereds)), name
    for r, gpu in enumerate(rows):
        for k, lowered in enumerate(lowereds):
            assert_same_cell(grid, (r, k), time_gpu_kernel(lowered, gpu, precision))
    assert set(grid.limiter.ravel().tolist()) == {FLOOR, COMPUTE, MEMORY}


@pytest.mark.parametrize("threads", [1, 4, 16])
@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("platform", PLATFORMS)
def test_cpu_batch_equals_one_spec_calls(platform, precision, threads):
    rng = random.Random(f"cpu-{platform}-{precision.value}-{threads}")
    specs = [
        dataclasses.replace(spec, cpu_simd_fraction=rng.uniform(0.1, 1.0))
        for spec in random_specs(rng)
    ]
    cpu = platform_for(platform).host
    batch = time_cpu_kernel_batch(specs, cpu, precision, threads=threads)
    for name in KernelPrices._fields[:-1]:
        assert getattr(batch, name).shape == (len(specs),), name
    for k, spec in enumerate(specs):
        assert_same_cell(batch, (k,), time_cpu_kernel(spec, cpu, precision, threads=threads))
    assert set(batch.limiter.tolist()) == {FLOOR, COMPUTE, MEMORY}


def scalar_kernel_joules(power, seconds, busy_seconds, clock_scale=1.0, share=1.0):
    """The one-launch energy formula on Python floats, branch by branch."""
    if seconds <= 0.0:
        return 0.0
    utilisation = busy_seconds / seconds
    if utilisation > 1.0:
        utilisation = 1.0
    elif utilisation < 0.0:
        utilisation = 0.0
    activity = energy.IDLE_ACTIVITY_FLOOR + (1.0 - energy.IDLE_ACTIVITY_FLOOR) * utilisation
    return power.peak_dynamic_w * share * clock_scale * activity * seconds


@pytest.mark.parametrize("platform", PLATFORMS)
def test_kernel_joules_is_elementwise(platform):
    """Over a broadcast ``(rows, 1) x (kernels,)`` grid, every cell of
    ``kernel_joules`` equals the formula on that cell's Python floats:
    zero-length launches, clamped utilisation and clock scaling
    included."""
    rng = random.Random(f"joules-{platform}")
    power = platform_for(platform).gpu.spec.power
    seconds = np.array([0.0, 3e-6] + [10.0 ** rng.uniform(-7, 0) for _ in range(30)])
    busy = seconds * np.array([0.0, 2.0] + [rng.uniform(-0.5, 1.5) for _ in range(30)])
    scales = np.array([[rng.uniform(0.1, 1.5)] for _ in range(5)])
    share = rng.uniform(0.1, 1.0)
    grid = energy.kernel_joules(power, seconds, busy, scales, share=share)
    assert grid.shape == (len(scales), len(seconds))
    for r, scale in enumerate(scales[:, 0].tolist()):
        for k, (s_, b) in enumerate(zip(seconds.tolist(), busy.tolist())):
            expected = scalar_kernel_joules(power, s_, b, scale, share)
            assert repr(float(grid[r, k])) == repr(expected), (r, k)
