"""Differential tests: the columnar study engine vs the scalar oracle.

The acceptance property of :mod:`repro.engine.study_vec` is *bit*
identity: the lowered spec-lattice pricing must reproduce the scalar
executor's results exactly — seconds, every counter, every kernel
record — with ``==``, no tolerance.  These tests run the full study
matrix (including the Serial and Heterogeneous Compute cells the
columnar engine must delegate) through both engines from cold caches
and compare everything observable, then probe the seams: quarantine
holes, clock-override sweeps, the batched pricers, capture memoization
and the projection-stub cache.
"""

import random

import numpy as np
import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME
from repro.core.configs import sweep_configs
from repro.core.study import run_study
from repro.engine import memo
from repro.engine.study_vec import (
    VECTOR_MODELS,
    capture_program,
    execute_vector,
    price_specs,
    vector_eligible,
)
from repro.engine.timing import time_cpu_kernel, time_gpu_kernel
from repro.engine.timing_vec import time_cpu_kernel_batch, time_gpu_kernel_batch
from repro.exec.executor import execute, execute_with_engine
from repro.exec.plan import DGPU, RunSpec, study_runs, sweep_runs
from repro.exec.retry import RetryPolicy
from repro.hardware.device import make_platform
from repro.hardware.specs import Precision

#: Every model of the comparison, including the two columnar-ineligible
#: tails: Serial folds fine, Heterogeneous Compute is a two-queue
#: makespan and must be delegated to the scalar engine.
ALL_MODELS = ("Serial", "OpenCL", "C++ AMP", "OpenACC", "Heterogeneous Compute")

#: Every numeric field of :class:`repro.engine.counters.PerfCounters`.
COUNTER_FIELDS = (
    "kernel_seconds",
    "transfer_seconds",
    "host_seconds",
    "launch_overhead_seconds",
    "instructions",
    "cycles",
    "flops",
    "dram_bytes",
    "bytes_to_device",
    "bytes_to_host",
    "kernel_launches",
    "transfers",
)


def full_matrix():
    """The whole-study matrix at sweep sizes: 5 apps x 2 platforms x
    2 precisions x (OpenMP baseline + 5 models) = 120 cells."""
    return study_runs(
        app_names=[app.name for app in ALL_APPS],
        configs=dict(sweep_configs()),
        apu_values=(True, False),
        precisions=(Precision.SINGLE, Precision.DOUBLE),
        models=ALL_MODELS,
        baseline="OpenMP",
        projection=True,
    )


def result_fingerprint(result):
    """Every observable field of one run result, exactly."""
    return {
        "app": result.app,
        "model": result.model,
        "platform": result.platform,
        "precision": result.precision,
        "seconds": result.seconds,
        "kernel_seconds": result.kernel_seconds,
        "checksum": result.checksum,
        "counters": {
            name: getattr(result.counters, name) for name in COUNTER_FIELDS
        },
        "kernels": [vars(record) for record in result.counters.kernels],
    }


def outcome_fingerprint(outcome):
    fp = result_fingerprint(outcome.result)
    fp["label"] = outcome.spec.label
    return fp


@pytest.fixture(scope="module")
def matrix_pair():
    """The full matrix through both engines, each from cold caches."""
    runs = full_matrix()
    memo.clear_caches()
    scalar = execute(runs)
    memo.clear_caches()
    vector = execute_vector(runs)
    memo.clear_caches()
    return runs, scalar, vector


def test_full_matrix_bit_identical(matrix_pair):
    runs, (scalar_outcomes, scalar_stats), (vector_outcomes, vector_stats) = matrix_pair
    assert len(scalar_outcomes) == len(vector_outcomes) == len(runs)
    assert not scalar_stats.failures and not vector_stats.failures
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label


def test_matrix_covers_both_engine_paths(matrix_pair):
    """The fixture matrix genuinely exercises the columnar fold *and*
    the scalar delegation tail."""
    runs, _scalar, _vector = matrix_pair
    assert any(vector_eligible(spec) for spec in runs)
    assert any(not vector_eligible(spec) for spec in runs)
    assert any(spec.model == "Heterogeneous Compute" for spec in runs)


def test_run_study_engines_agree_end_to_end():
    """Whole-pipeline check: entries, speedups and breakdown inputs of
    ``run_study`` match field-for-field across engines."""
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["LULESH"])
    memo.clear_caches()
    scalar = run_study(apps, configs=dict(sweep_configs()), engine="scalar")
    memo.clear_caches()
    vector = run_study(apps, configs=dict(sweep_configs()), engine="vector")
    assert [entry.__dict__ for entry in vector.entries] == [
        entry.__dict__ for entry in scalar.entries
    ]
    for entry in scalar.entries:
        twin = vector.get(entry.app, entry.model, entry.apu, entry.precision)
        assert twin.speedup == entry.speedup
        assert twin.kernel_speedup == entry.kernel_speedup


def test_one_capture_per_schedule_signature():
    """An entire eligible matrix costs one port capture per distinct
    schedule signature — the lowering's whole point."""
    runs = [spec for spec in full_matrix() if vector_eligible(spec)]
    memo.clear_caches()
    execute_vector(runs)
    assert memo.PLAN_CACHE.snapshot().misses == len(
        {spec.schedule_key() for spec in runs}
    )


def test_scalar_engine_served_by_vector_cache():
    """Columnar pricing stores under the scalar keys: a scalar rerun
    over a vector-warmed cache misses nothing and agrees exactly."""
    runs = [spec for spec in full_matrix() if vector_eligible(spec)]
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    before = memo.KERNEL_CACHE.snapshot()
    scalar_outcomes, _ = execute(runs)
    delta = memo.KERNEL_CACHE.snapshot().since(before)
    assert delta.misses == 0
    assert delta.hits > 0
    for left, right in zip(vector_outcomes, scalar_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)
    memo.clear_caches()


def test_sweep_clock_overrides_share_one_capture():
    """Frequency-sweep cells differ only in clock overrides: the whole
    grid prices from one capture, bit-identical to scalar simulation."""
    config = sweep_configs()["XSBench"]
    runs = sweep_runs(
        "XSBench", config, Precision.SINGLE, (300.0, 547.0, 1000.0), (600.0, 1250.0), "OpenCL"
    )
    memo.clear_caches()
    scalar_outcomes, _ = execute(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    assert memo.PLAN_CACHE.snapshot().misses == 1
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label
    # Distinct clock points must actually price differently (otherwise
    # the overrides were silently dropped somewhere).
    seconds = {o.result.seconds for o in vector_outcomes}
    assert len(seconds) == len(runs)
    memo.clear_caches()


def test_quarantine_holes_match_scalar(monkeypatch):
    """A port that dies leaves the same holes either way: capture
    failure falls back to the scalar ladder, the ladder fails too, and
    the study reassembles around the ``None`` slots without raising."""

    def boom(ctx, config):
        raise RuntimeError("injected port failure")

    monkeypatch.setitem(APPS_BY_NAME["XSBench"].ports, "OpenCL", boom)
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["XSBench"])
    policy = RetryPolicy(max_attempts=1)
    results = {}
    for engine in ("scalar", "vector"):
        memo.clear_caches()
        results[engine] = run_study(
            apps,
            configs=dict(sweep_configs()),
            models=("OpenCL", "OpenACC"),
            policy=policy,
            engine=engine,
        )
    scalar, vector = results["scalar"], results["vector"]
    assert not scalar.complete and not vector.complete
    assert [entry.__dict__ for entry in vector.entries] == [
        entry.__dict__ for entry in scalar.entries
    ]
    # Every surviving XSBench entry is OpenACC; the OpenCL cells are holes.
    assert all(
        entry.model == "OpenACC" for entry in vector.entries if entry.app == "XSBench"
    )
    assert {(f.label, f.kind, f.message) for f in vector.failures} == {
        (f.label, f.kind, f.message) for f in scalar.failures
    }
    assert len(vector.failures) == 4  # 2 platforms x 2 precisions
    memo.clear_caches()


@pytest.mark.parametrize("app_name", ["read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"])
def test_batched_gpu_pricer_matches_scalar(app_name):
    """``time_gpu_kernel_batch`` equals per-atom ``time_gpu_kernel``
    exactly, for every captured atom of every app's OpenCL schedule."""
    spec = RunSpec(app_name, "OpenCL", DGPU, Precision.SINGLE, sweep_configs()[app_name])
    program = capture_program(spec)
    lowereds = [atom[1] for atom in program.atoms if atom[0] == "gpu"]
    assert lowereds
    gpu = make_platform(apu=False).gpu
    batch = time_gpu_kernel_batch(lowereds, gpu, Precision.SINGLE)
    assert batch == [
        time_gpu_kernel(lowered, gpu, Precision.SINGLE) for lowered in lowereds
    ]


@pytest.mark.parametrize("app_name", ["read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"])
def test_batched_cpu_pricer_matches_scalar(app_name):
    """``time_cpu_kernel_batch`` equals per-spec ``time_cpu_kernel``
    for every captured atom of the OpenMP baseline schedule."""
    spec = RunSpec(app_name, "OpenMP", DGPU, Precision.DOUBLE, sweep_configs()[app_name])
    program = capture_program(spec)
    by_threads = {}
    for atom in program.atoms:
        if atom[0] == "cpu":
            by_threads.setdefault(atom[2], []).append(atom[1])
    assert by_threads
    host = make_platform(apu=False).host
    for threads, specs in by_threads.items():
        batch = time_cpu_kernel_batch(specs, host, Precision.DOUBLE, threads=threads)
        assert batch == [
            time_cpu_kernel(s, host, Precision.DOUBLE, threads=threads) for s in specs
        ]


def test_price_specs_rejects_ineligible():
    config = sweep_configs()["LULESH"]
    hc = RunSpec("LULESH", "Heterogeneous Compute", DGPU, Precision.SINGLE, config)
    functional = RunSpec("LULESH", "OpenCL", DGPU, Precision.SINGLE, config, projection=False)
    for spec in (hc, functional):
        with pytest.raises(ValueError):
            price_specs([spec])


def test_price_specs_order_invariant():
    """Cell order is presentation, not semantics: a shuffled batch
    returns the permuted results, each bit-identical per spec."""
    specs = [
        spec
        for spec in full_matrix()
        if vector_eligible(spec) and spec.app in ("read-benchmark", "XSBench")
    ]
    canonical = {
        spec.content_key(): result_fingerprint(result)
        for spec, result in zip(specs, price_specs(specs))
    }
    shuffled = list(specs)
    random.Random(2015).shuffle(shuffled)
    for spec, result in zip(shuffled, price_specs(shuffled)):
        assert result_fingerprint(result) == canonical[spec.content_key()], spec.label


def test_functional_cells_delegate_to_scalar():
    """``projection=False`` cells run the numerics; the vector engine
    must hand them to the scalar executor untouched."""
    config = sweep_configs()["read-benchmark"]
    runs = [
        RunSpec("read-benchmark", model, DGPU, Precision.SINGLE, config, projection=False)
        for model in ("OpenMP", "OpenCL")
    ]
    memo.clear_caches()
    scalar_outcomes, _ = execute(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    for left, right in zip(scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)
    memo.clear_caches()


def test_uncached_vector_run_identical(matrix_pair):
    """``use_cache=False`` changes wall time, never values."""
    runs, (scalar_outcomes, _), _vector = matrix_pair
    uncached_outcomes, uncached_stats = execute_vector(runs, use_cache=False)
    assert uncached_stats.cache_hits == 0
    for left, right in zip(scalar_outcomes, uncached_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)


def test_duplicate_specs_share_one_outcome():
    """Content-equal descriptors collapse to one priced cell, like the
    scalar executor's dedup."""
    spec = RunSpec("miniFE", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["miniFE"])
    memo.clear_caches()
    outcomes, stats = execute_vector([spec, spec, spec])
    assert stats.unique_runs == 1
    assert outcomes[0] is outcomes[1] is outcomes[2]
    memo.clear_caches()


def test_stub_cache_lifecycle():
    """The cross-capture stub cache fills only when the setup cache is
    enabled, and ``clear_caches`` empties it."""
    spec = RunSpec("CoMD", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["CoMD"])
    memo.clear_caches()
    assert not memo._STUB_CACHE
    with memo.cache_disabled():
        capture_program(spec)
        assert not memo._STUB_CACHE
    capture_program(spec)
    assert memo._STUB_CACHE
    memo.clear_caches()
    assert not memo._STUB_CACHE


def test_comd_rebin_early_out_is_bit_identical():
    """``bin_atoms`` on unmoved positions is a no-op that leaves the
    exact table a full rebuild would produce."""
    from repro.apps.comd.reference import bin_atoms, make_state

    config = sweep_configs()["CoMD"]
    state = make_state.__wrapped__(config, Precision.SINGLE)
    table = state.cell_atoms.copy()
    counts = state.cell_count.copy()
    bin_atoms(state)  # early-out: nothing moved since make_state's binning
    assert np.array_equal(state.cell_atoms, table)
    assert np.array_equal(state.cell_count, counts)
    # Force the full rebuild and check it reproduces the same table.
    state.rebin_positions = state.rebin_positions + 1.0
    bin_atoms(state)
    assert np.array_equal(state.cell_atoms, table)
    assert np.array_equal(state.cell_count, counts)


def test_execute_with_engine_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        execute_with_engine("warp", [])


# --- ChargeLog identity front cache ----------------------------------


def _charge_fixture():
    """A capture-mode context plus one GPU and one CPU toolchain."""
    from repro.apps.readmem import ReadMemConfig
    from repro.apps.readmem.kernels import read_kernel_spec
    from repro.engine.launch import OPENCL_DGPU
    from repro.models.base import ChargeLog, CPUToolchain, ExecutionContext, Toolchain
    from repro.models.opencl.compiler import OPENCL_PROFILE

    log = ChargeLog()
    ctx = ExecutionContext(
        platform=make_platform(apu=False), precision=Precision.SINGLE,
        execute_kernels=False, charge_log=log,
    )
    gpu = Toolchain(OPENCL_PROFILE, OPENCL_DGPU)
    cpu = CPUToolchain("OpenMP", threads=4)
    spec = read_kernel_spec(ReadMemConfig(size=1 << 16), Precision.SINGLE)
    return log, ctx, gpu, cpu, spec


def test_charge_log_dedupes_equal_distinct_specs():
    """Equal spec values are one atom even as distinct objects: the
    identity cache only fronts the value-keyed table."""
    import dataclasses

    log, ctx, gpu, cpu, spec = _charge_fixture()
    twin = dataclasses.replace(spec)
    assert twin == spec and twin is not spec
    for s in (spec, twin, spec, twin):
        gpu.charge_gpu_kernel(ctx, s, n_buffers=2)
        cpu.charge_loop(ctx, s)
    assert len(log.atoms) == 2  # one GPU lowering, one CPU loop
    assert len(log.events) == 8
    assert {e[0] for e in log.events[0::2]} == {0}
    assert {e[0] for e in log.events[1::2]} == {1}


def test_charge_log_never_aliases_recycled_ids():
    """Each loop drops a spec equal to one already logged, then builds a
    new value, so CPython may hand the new spec the dropped one's id.
    Every charge must still land on the atom of its own value."""
    import dataclasses

    log, ctx, gpu, cpu, spec = _charge_fixture()
    charged = []
    for name in [spec.name] + [n for i in range(100) for n in (spec.name, f"k{i}")]:
        fresh = dataclasses.replace(spec, name=name)
        gpu.charge_gpu_kernel(ctx, fresh, n_buffers=2)
        cpu.charge_loop(ctx, fresh)
        charged += [name, name]
        del fresh
    assert len(log.atoms) == 2 * 101
    atom_names = [
        atom[1].spec.name if atom[0] == "gpu" else atom[1].name
        for atom in (log.atoms[event[0]] for event in log.events)
    ]
    assert atom_names == charged


def test_charge_log_events_keep_launch_arguments_apart():
    """The event cache keys on the launch arguments: the same spec with
    another buffer count or mapped size is another overhead."""
    from repro.engine.launch import OPENCL_APU
    from repro.models.base import Toolchain
    from repro.models.opencl.compiler import OPENCL_PROFILE

    log, ctx, _gpu, _cpu, spec = _charge_fixture()
    apu = Toolchain(OPENCL_PROFILE, OPENCL_APU)
    launches = [(2, 0), (3, 0), (2, 4096), (3, 4096)]
    for n_buffers, mapped_bytes in launches * 2:
        apu.charge_gpu_kernel(ctx, spec, n_buffers, mapped_bytes)
    overheads = [event[1] for event in log.events]
    expected = [OPENCL_APU.launch_cost(n, m) for n, m in launches]
    assert len(set(expected)) == len(launches)
    assert overheads == expected * 2
    assert len(log.atoms) == 1


def test_charge_log_never_shares_events_across_toolchains():
    """OpenCL on the APU and the dGPU share a compiler profile but not
    their runtime overheads; each toolchain keeps its own events."""
    from repro.engine.launch import OPENCL_APU, OPENCL_DGPU
    from repro.models.base import Toolchain
    from repro.models.opencl.compiler import OPENCL_PROFILE

    log, ctx, _gpu, _cpu, spec = _charge_fixture()
    apu = Toolchain(OPENCL_PROFILE, OPENCL_APU)
    dgpu = Toolchain(OPENCL_PROFILE, OPENCL_DGPU)
    for _ in range(3):
        apu.charge_gpu_kernel(ctx, spec, n_buffers=2)
        dgpu.charge_gpu_kernel(ctx, spec, n_buffers=2)
    assert [event[1] for event in log.events] == [
        OPENCL_APU.launch_cost(2), OPENCL_DGPU.launch_cost(2)
    ] * 3
    assert log.events[0] != log.events[1]
    assert len(log.atoms) == 1  # one lowering; the overheads differ


def test_charge_log_transfers_keep_counted_apart():
    log, *_ = _charge_fixture()
    for counted in (True, False, True, False):
        log.transfer(4096, "h2d", counted)
    log.transfer(4096, "d2h", True)
    assert log.transfers == [(4096, "h2d"), (4096, "d2h")]
    assert log.events == [
        (-1, 0.0, 0, True), (-1, 0.0, 0, False), (-1, 0.0, 0, True),
        (-1, 0.0, 0, False), (-1, 0.0, 1, True),
    ]


class _CountingLog:
    """Counts every charge a port makes and the distinct values behind
    them, and records the event stream by value with no caching at all,
    independently of the log's own dedup."""

    def __init__(self):
        from repro.models.base import ChargeLog

        self.log = ChargeLog()
        self.launches = 0
        self.keys = set()
        self.transfers = 0
        self.reference = []

    def gpu_kernel(self, toolchain, ctx, spec, n_buffers, mapped_bytes):
        self.launches += 1
        retargeted = toolchain.profile.retarget_penalty > 0 and ctx.platform.is_apu
        key = ("gpu", toolchain.profile.lower(spec, retargeted).cache_key())
        self.keys.add(key)
        overhead = toolchain.overheads.launch_cost(n_buffers, mapped_bytes)
        self.reference.append((key, overhead, None, True))
        return self.log.gpu_kernel(toolchain, ctx, spec, n_buffers, mapped_bytes)

    def cpu_loop(self, toolchain, spec):
        self.launches += 1
        key = ("cpu", spec, toolchain.threads)
        self.keys.add(key)
        self.reference.append((key, toolchain.region_overhead_s, None, True))
        return self.log.cpu_loop(toolchain, spec)

    def transfer(self, nbytes, direction, counted):
        self.transfers += 1
        self.reference.append((None, 0.0, (int(nbytes), direction), counted))
        return self.log.transfer(nbytes, direction, counted)

    def captured(self):
        """The log's event stream, with indices resolved to values."""
        def atom_key(atom):
            return ("gpu", atom[1].cache_key()) if atom[0] == "gpu" else atom

        log = self.log
        return [
            (
                atom_key(log.atoms[a]) if a >= 0 else None,
                overhead,
                log.transfers[x] if x >= 0 else None,
                counted,
            )
            for a, overhead, x, counted in log.events
        ]


@pytest.mark.parametrize("app_name", ["LULESH", "miniFE", "CoMD"])
@pytest.mark.parametrize("model", ["OpenMP", "OpenCL", "C++ AMP", "OpenACC"])
def test_capture_counts_match_launches_and_distinct_values(app_name, model):
    """The cached capture records exactly the uncached event stream,
    on both platforms: one event per charge, one atom per distinct
    value."""
    from repro.models.base import ExecutionContext

    for apu in (False, True):
        counting = _CountingLog()
        ctx = ExecutionContext(
            platform=make_platform(apu=apu), precision=Precision.SINGLE,
            execute_kernels=False, charge_log=counting,
        )
        with memo.projection_stubs():
            APPS_BY_NAME[app_name].ports[model](ctx, sweep_configs()[app_name])
        log = counting.log
        kernel_events = [e for e in log.events if e[0] >= 0]
        assert counting.launches > len(log.atoms) > 0
        assert len(kernel_events) == counting.launches
        assert len(log.events) == counting.launches + counting.transfers
        assert len(log.atoms) == len(counting.keys)
        assert counting.captured() == counting.reference, apu


# --- capture lift: indexed event stream -> program columns -----------


def _captured_log(spec):
    """The charge log of one capture of ``spec``, by itself."""
    from repro.hardware.device import platform_for
    from repro.models.base import ChargeLog, ExecutionContext

    log = ChargeLog()
    ctx = ExecutionContext(
        platform=platform_for(spec.platform), precision=spec.precision,
        execute_kernels=False, charge_log=log,
    )
    with memo.projection_stubs():
        APPS_BY_NAME[spec.app].ports[spec.model](ctx, spec.config)
    return log


def _lift_by_value(log):
    """Every lifted column rebuilt from ``log.events`` one event at a
    time, with Python-int byte totals summed event by event."""
    events = log.events
    ev_atom = np.array([e[0] for e in events], dtype=np.int64)
    ev_overhead = np.array([e[1] for e in events], dtype=np.float64)
    ev_xfer = np.array([e[2] for e in events], dtype=np.int64)
    ev_counted = np.array([e[3] for e in events], dtype=bool)
    kernel = ev_atom >= 0
    transfer_events = ev_xfer[ev_xfer >= 0]
    copies = [log.transfers[x] for x in transfer_events.tolist()]
    return {
        "ev_atom": ev_atom,
        "ev_overhead": ev_overhead,
        "ev_xfer": ev_xfer,
        "ev_counted": ev_counted,
        "kernel_atoms": ev_atom[kernel],
        "kernel_overheads": ev_overhead[kernel],
        "transfer_events": transfer_events,
        "bytes_to_device": sum(n for n, direction in copies if direction == "h2d"),
        "bytes_to_host": sum(n for n, direction in copies if direction != "h2d"),
    }


@pytest.mark.parametrize("model", sorted(VECTOR_MODELS))
@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_capture_lift_equals_a_by_value_rebuild(app_name, model):
    """The id-stream gathers and the bincount byte totals reproduce the
    event-by-event lift exactly, on both platforms; the APU's captures
    without a single copy cover the empty bincount."""
    from tests.test_projection import SMALL

    transfer_free = 0
    for platform in ("apu", DGPU):
        spec = RunSpec(app_name, model, platform, Precision.SINGLE, SMALL[app_name])
        program = capture_program(spec)
        log = _captured_log(spec)
        assert program.atoms == tuple(log.atoms)
        assert program.transfers == tuple(log.transfers)
        for name, expected in _lift_by_value(log).items():
            actual = getattr(program, name)
            if isinstance(expected, np.ndarray):
                assert actual.dtype == expected.dtype, name
                assert np.array_equal(actual, expected), (platform, name)
            else:
                assert type(actual) is int and actual == expected, (platform, name)
        transfer_free += not len(program.transfer_events)
    if model in ("OpenMP", "Serial"):
        assert transfer_free == 2
