"""The kernel roofline is written once, over arrays (``engine/timing_vec.py``).

The one-kernel entry points in ``engine/timing.py`` are one-cell calls
into the array formulas.  Two properties make a batched call equal to
those one-cell calls:

* the formulas contain no reduction (a sum or product over kernels
  would reassociate), which is checked on the source;
* a seeded fuzz over random kernels and clock rows finds every cell of
  a batched call equal, field for field, to the one-cell call.
"""

import ast
import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.engine import timing_vec
from repro.engine.kernel import AccessKind, OpCount
from repro.engine.timing import KernelTiming, time_cpu_kernel, time_gpu_kernel
from repro.engine.timing_vec import time_cpu_kernel_batch, time_gpu_kernel_grid
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


def assert_same_cell(cell: KernelTiming, one: KernelTiming) -> None:
    for field in dataclasses.fields(KernelTiming):
        a, b = getattr(cell, field.name), getattr(one, field.name)
        assert repr(a) == repr(b), (cell.name, field.name, a, b)
    for name in FLOAT_FIELDS:
        assert type(getattr(cell, name)) is float, (cell.name, name)
    json.dumps(dataclasses.asdict(cell))


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("platform", PLATFORMS)
def test_grid_cells_equal_one_cell_calls(platform, precision):
    rng = random.Random(f"gpu-{platform}-{precision.value}")
    lowereds = [random_lowering(rng, spec) for spec in random_specs(rng)]
    rows = clock_rows(rng, platform, 6)
    grid = time_gpu_kernel_grid(lowereds, rows, precision)
    assert len(grid) == len(rows)
    labels = set()
    for gpu, row in zip(rows, grid):
        assert len(row) == len(lowereds)
        for lowered, cell in zip(lowereds, row):
            assert_same_cell(cell, time_gpu_kernel(lowered, gpu, precision))
            labels.add(cell.limited_by)
    assert labels == {"floor", "compute", "memory"}


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
    assert len(batch) == len(specs)
    for spec, cell in zip(specs, batch):
        assert_same_cell(cell, time_cpu_kernel(spec, cpu, precision, threads=threads))
    assert {cell.limited_by for cell in batch} == {"floor", "compute", "memory"}
