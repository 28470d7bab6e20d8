"""Heterogeneous Compute in the columnar engine: the replayed makespan.

HC's run time is the makespan of a copy stream and a compute stream,
not one left fold.  Capture records the runtime's stream steps into the
charge log, and :func:`repro.engine.study_vec.price_cell` replays them
once over per-clock columns; it is the runtime's only clock.  These
tests hold it bit for bit to the executor's one-row pricing on
every app's clock grid, to each row replayed alone, and — on randomized
schedules that mix every stream step — to the runtime's stream
arithmetic restated over Python floats and one-kernel prices.
"""

import random

import numpy as np
import pytest

from repro.apps import APPS_BY_NAME, ALL_APPS
from repro.apps.base import make_result
from repro.apps.minife.kernels import kernel_specs
from repro.apps.minife.reference import MiniFEConfig
from repro.core.configs import sweep_configs
from repro.engine import memo, study_vec
from repro.engine.study_vec import _makespan_rows, cached_program, price_cell
from repro.engine.timing import time_gpu_kernel
from repro.exec import executor
from repro.exec.executor import execute
from repro.exec.plan import APU, DGPU, RunSpec
from repro.hardware.device import platform_for
from repro.hardware.specs import Precision
from repro.models.hc import HCRuntime
from tests.engine.test_study_vec import result_fingerprint

HC = "Heterogeneous Compute"


def clock_grid(app, platform, precision):
    """One HC cell per (core, memory) point: each domain's edges, its
    default and an interior point, crossed."""
    gpu = platform_for(platform).gpu
    core, memory = gpu.core_clock, gpu.memory_clock
    core_points = sorted({core.min_mhz, core.default_mhz, core.max_mhz,
                          (core.min_mhz + core.max_mhz) / 2 + 0.25})
    memory_points = sorted({memory.min_mhz, memory.default_mhz, memory.max_mhz,
                            (memory.min_mhz + memory.max_mhz) / 2 + 0.5})
    config = sweep_configs()[app]
    return [
        RunSpec(app, HC, platform, precision, config, core_mhz=c, memory_mhz=m)
        for c in core_points
        for m in memory_points
    ]


def fingerprint(outcome):
    return result_fingerprint(outcome.result), outcome.result.joules


@pytest.fixture
def counted_calls(monkeypatch):
    """Counts of ``price_cell`` and one-run ``execute_run`` calls."""
    counts = {"price_cell": 0, "execute_run": 0}
    real_price, real_run = study_vec.price_cell, executor.execute_run

    def price(*args, **kwargs):
        counts["price_cell"] += 1
        return real_price(*args, **kwargs)

    def run(*args, **kwargs):
        counts["execute_run"] += 1
        return real_run(*args, **kwargs)

    monkeypatch.setattr(study_vec, "price_cell", price)
    monkeypatch.setattr(executor, "execute_run", run)
    return counts


def scalar_and_vector(runs, counts):
    """``runs`` priced one ``execute_run`` per spec and through the
    executor, from cold caches; the call counts cover the executor
    only."""
    memo.clear_caches()
    scalar = [executor.execute_run(spec) for spec in runs]
    memo.clear_caches()
    counts.update(price_cell=0, execute_run=0)
    vector, stats = execute(runs)
    memo.clear_caches()
    assert not stats.failures
    return scalar, vector


@pytest.mark.parametrize("platform", [APU, DGPU])
@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_hc_clock_grid_matches_scalar(app_name, precision, platform, counted_calls):
    """A whole HC clock grid is one pricing call and no one-run
    ``execute_run``, and every cell equals its one-row pricing, joules
    included."""
    runs = clock_grid(app_name, platform, precision)
    scalar, vector = scalar_and_vector(runs, counted_calls)
    assert counted_calls == {"price_cell": 1, "execute_run": 0}
    for spec, left, right in zip(runs, scalar, vector):
        assert fingerprint(left) == fingerprint(right), spec.label
    if platform == DGPU:  # the clocks reached the makespan
        assert len({o.result.seconds for o in vector}) > 1


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_group_replay_equals_rows_one_at_a_time(app_name):
    """Replaying a group's rows together is replaying each alone."""
    runs = clock_grid(app_name, DGPU, Precision.SINGLE)
    memo.clear_caches()
    program = cached_program(runs[0])
    assert program.streams is not None
    together = price_cell(program, [spec.make_platform() for spec in runs], Precision.SINGLE)
    alone = [price_cell(program, [spec.make_platform()], Precision.SINGLE)[0] for spec in runs]
    memo.clear_caches()
    for spec, left, right in zip(runs, together, alone):
        assert result_fingerprint(left) == result_fingerprint(right), spec.label
        assert left.joules == right.joules, spec.label


def reference_makespan(streams, row):
    """``HCRuntime``'s stream arithmetic on Python floats, one row."""
    copy = compute = 0.0
    ready: dict[int, float] = {}
    for kind, event, slots in streams:
        if kind == "launch":
            start = compute
            for slot in slots:
                start = max(start, ready.get(slot, 0.0))
            compute = start + row[event]
        elif kind == "sync":
            copy = compute = max(copy, compute) + row[event]
            for slot in slots:
                ready[slot] = copy
        elif kind == "async":
            copy += row[event]
            ready[slots[0]] = copy
        else:
            ready[slots[0]] = 0.0
    return max(copy, compute)


def charge_returns(program, platform, precision):
    """What each charge of ``program`` costs on ``platform``, priced one
    kernel or copy at a time (0.0 for an uncounted copy)."""
    returns = []
    for atom, overhead, xfer, counted in zip(
        program.ev_atom.tolist(), program.ev_overhead.tolist(),
        program.ev_xfer.tolist(), program.ev_counted.tolist(),
    ):
        if atom >= 0:
            kernel = time_gpu_kernel(program.atoms[atom][1], platform.gpu, precision)
            returns.append(kernel.seconds + overhead)
        else:
            seconds = platform.interconnect.transfer(*program.transfers[xfer])
            returns.append(seconds if counted else 0.0)
    return returns


def test_makespan_rows_is_each_rows_scalar_replay():
    """The vector replay of a random stream program equals the scalar
    arithmetic per row, whole or row by row, over values spread across
    many decades (so any reassociation would show)."""
    rng = random.Random(2015)
    events, slots = 400, 12
    streams = []
    for event in range(events):
        kind = rng.choice(("launch", "launch", "sync", "async", "ready0"))
        if kind == "launch":
            streams.append((kind, event, tuple(rng.sample(range(slots), rng.randint(0, 4)))))
        elif kind == "sync":
            streams.append((kind, event, (rng.randrange(slots),) if rng.random() < 0.5 else ()))
        elif kind == "async":
            streams.append((kind, event, (rng.randrange(slots),)))
        else:
            streams.append((kind, -1, (rng.randrange(slots),)))
    values = np.random.default_rng(2015)
    contrib = values.random((23, events)) * 10.0 ** values.integers(-9, 1, (23, events))
    whole = _makespan_rows(streams, contrib)
    assert whole.tolist() == [reference_makespan(streams, row) for row in contrib.tolist()]
    assert whole.tolist() == [
        _makespan_rows(streams, contrib[i:i + 1])[0] for i in range(len(contrib))
    ]


def random_port(seed):
    """A throwaway HC port driving a seeded random schedule: sync and
    async copies, device allocations, re-staged arrays, copies back and
    launches (over never-staged arrays too, where the APU allows it)."""

    # Kernels from microseconds to milliseconds, copies from tens of
    # microseconds to milliseconds: either stream can end last.
    kernels = MiniFEConfig(nx=96, ny=96, nz=96, cg_iterations=1)

    def run(ctx, config):
        rng = random.Random(seed)
        specs = list(kernel_specs(kernels, ctx.precision).values())
        hc = HCRuntime(ctx)
        arrays = [ctx.output(rng.choice((1 << 12, 1 << 18, 1 << 22))) for _ in range(5)]
        staged = []
        for _ in range(80):
            op = rng.random()
            host = rng.choice(arrays)
            if op < 0.08:
                hc.copy_to_device(host)
                staged.append(host)
            elif op < 0.35:
                hc.async_copy_to_device(host)
                staged.append(host)
            elif op < 0.5:
                # Often re-allocating what is still in flight.
                if staged and rng.random() < 0.5:
                    host = staged[-1]
                hc.device_alloc(host)
                staged.append(host)
            elif op < 0.55 and staged:
                hc.copy_to_host(rng.choice(staged))
            else:
                # Never-staged arrays are legal on the APU only.
                pool = arrays if ctx.platform.is_apu else list({id(a): a for a in staged}.values())
                if pool:
                    touched = rng.sample(pool, rng.randint(1, min(4, len(pool))))
                    hc.launch(lambda *args: None, rng.choice(specs), arrays=touched)
        return make_result("miniFE", ctx, HC, hc.finish(), 0.0)

    return run


@pytest.mark.parametrize("platform", [APU, DGPU])
@pytest.mark.parametrize("seed", range(8))
def test_random_hc_schedule_prices_identically(seed, platform, monkeypatch, counted_calls):
    """A random ``HCRuntime`` schedule prices the same run one row at a
    time and as a group, on every clock point, and each row's makespan
    is the stream arithmetic over its one-kernel charge prices."""
    monkeypatch.setitem(APPS_BY_NAME["miniFE"].ports, HC, random_port(seed))
    runs = clock_grid("miniFE", platform, Precision.SINGLE)
    try:
        scalar, vector = scalar_and_vector(runs, counted_calls)
        program = cached_program(runs[0])
    finally:
        memo.clear_caches()  # the plan cache holds the throwaway capture
    assert counted_calls == {"price_cell": 1, "execute_run": 0}
    for spec, left, right in zip(runs, scalar, vector):
        assert fingerprint(left) == fingerprint(right), spec.label
        returns = charge_returns(program, spec.make_platform(), spec.precision)
        assert right.result.seconds == reference_makespan(program.streams, returns)
    if platform == DGPU:
        # The async copies overlapped: the makespan undercuts the sum
        # of every charge, so the replay is not a left fold in disguise.
        counters = vector[0].result.counters
        serial = (counters.kernel_seconds + counters.launch_overhead_seconds
                  + counters.transfer_seconds)
        assert vector[0].result.seconds < serial
