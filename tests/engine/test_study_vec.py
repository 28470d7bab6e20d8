"""Grouped (columnar) pricing in the executor against per-cell pricing.

The executor prices each schedule group of projection cells in one
:func:`~repro.engine.study_vec.price_cell` call; its one-run path
(:func:`~repro.exec.executor.execute_run`) prices a projection cell as
a one-row call on the same capture.  The acceptance property is *bit*
identity — seconds, joules, every counter, the launch counts by
limiter — with ``==``, no tolerance.  These tests run the full study
matrix (every model, Heterogeneous Compute's two-stream makespan
included, plus functional cells the executor hands to the retry
ladder) through :func:`~repro.exec.executor.execute` and through one
``execute_run`` per spec, from cold caches, and compare everything
observable, then probe the seams: quarantine holes, clock-override
sweeps, the batched pricers and their broadcast over clock points, the
per-row folds, per-group failure isolation, capture memoization, the
charge log and the projection-stub cache.
"""


import numpy as np
import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME
from repro.core import study as core_study
from repro.core.configs import sweep_configs
from repro.core.study import run_study
from repro.core.sweep import run_sweep
from repro.engine import memo
from repro.engine.study_vec import (
    _accumulate,
    _accumulate_rows,
    capture_program,
)
from repro.engine.timing import KernelTiming, time_cpu_kernel, time_gpu_kernel
from repro.engine.timing_vec import KernelPrices, time_cpu_kernel_batch, time_gpu_kernel_grid
from repro.exec import executor
from repro.exec.executor import ExecStats, execute, execute_run
from repro.exec.faults import RunError
from repro.exec.plan import DGPU, RunSpec, study_runs, sweep_runs
from repro.exec.retry import RetryPolicy, run_with_retry
from repro.hardware.device import make_platform, platform_for
from repro.hardware.specs import Precision

#: Every model of the comparison: Serial and the offload models price
#: as one left fold, Heterogeneous Compute as a replayed two-stream
#: makespan.
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
    "kernel_joules",
    "transfer_joules",
    "floor_launches",
    "compute_launches",
    "memory_launches",
)

#: ``ExecStats.limited_by`` over :func:`full_matrix` plus
#: :func:`functional_cells`, as the per-launch records tallied it
#: before the counters replaced them (grouped or per cell).
FULL_MATRIX_LIMITED_BY = {"compute": 222, "floor": 705, "memory": 4315}


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
        "joules": result.joules,
        "counters": {
            name: getattr(result.counters, name) for name in COUNTER_FIELDS
        },
    }


def outcome_fingerprint(outcome):
    fp = result_fingerprint(outcome.result)
    fp["label"] = outcome.spec.label
    return fp


def functional_cells():
    """Functional (``projection=False``) cells, which the executor
    must hand to the retry ladder."""
    return [
        RunSpec(app, model, DGPU, Precision.SINGLE, sweep_configs()[app], projection=False)
        for app in ("read-benchmark", "XSBench")
        for model in ("OpenCL", "Heterogeneous Compute")
    ]


def per_cell(runs):
    """``runs`` priced one :func:`execute_run` per spec — no grouping,
    no dedupe — with the stats of those outcomes."""
    outcomes = [execute_run(spec) for spec in runs]
    return outcomes, ExecStats.from_outcomes(outcomes)


def per_cell_execute(runs, policy=None, **_executor_options):
    """A stand-in for :func:`execute`: one :func:`run_with_retry` per
    spec, failures as ``None`` slots plus ``RunError`` rows."""
    payloads = [run_with_retry(spec, policy or RetryPolicy()) for spec in runs]
    outcomes = [None if isinstance(p, RunError) else p for p in payloads]
    failures = [p for p in payloads if isinstance(p, RunError)]
    return outcomes, ExecStats.from_outcomes(outcomes, failures=failures)


@pytest.fixture(scope="module")
def matrix_pair():
    """The full matrix plus functional cells, per cell and through the
    executor, each from cold caches."""
    runs = full_matrix() + functional_cells()
    memo.clear_caches()
    scalar = per_cell(runs)
    memo.clear_caches()
    vector = execute(runs)
    memo.clear_caches()
    return runs, scalar, vector


def test_full_matrix_bit_identical(matrix_pair):
    runs, (scalar_outcomes, scalar_stats), (vector_outcomes, vector_stats) = matrix_pair
    assert len(scalar_outcomes) == len(vector_outcomes) == len(runs)
    assert not scalar_stats.failures and not vector_stats.failures
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label
    assert scalar_stats.limited_by == vector_stats.limited_by == FULL_MATRIX_LIMITED_BY


def test_matrix_covers_both_engine_paths(matrix_pair):
    """The fixture matrix genuinely exercises the columnar fold, the
    columnar makespan replay *and* the retry-ladder tail."""
    runs, _scalar, _vector = matrix_pair
    hc = "Heterogeneous Compute"
    assert any(spec.projection and spec.model != hc for spec in runs)
    assert any(spec.projection and spec.model == hc for spec in runs)
    assert any(not spec.projection for spec in runs)


def test_run_study_engines_agree_end_to_end(monkeypatch):
    """Whole-pipeline check: entries, speedups and breakdown inputs of
    ``run_study`` match field-for-field whether its cells are priced by
    the executor or one at a time."""
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["LULESH"])
    memo.clear_caches()
    vector = run_study(apps, configs=dict(sweep_configs()))
    memo.clear_caches()
    monkeypatch.setattr(core_study, "execute", per_cell_execute)
    scalar = run_study(apps, configs=dict(sweep_configs()))
    memo.clear_caches()
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
    runs = [spec for spec in full_matrix() if spec.projection]
    memo.clear_caches()
    execute(runs)
    assert memo.PLAN_CACHE.snapshot().misses == len(
        {spec.schedule_key() for spec in runs}
    )


def test_sweep_clock_overrides_share_one_capture():
    """Frequency-sweep cells differ only in clock overrides: the whole
    grid prices from one capture, bit-identical to per-cell pricing."""
    config = sweep_configs()["XSBench"]
    runs = sweep_runs(
        "XSBench", config, Precision.SINGLE, (300.0, 547.0, 1000.0), (600.0, 1250.0), "OpenCL"
    )
    memo.clear_caches()
    scalar_outcomes, _ = per_cell(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute(runs)
    assert memo.PLAN_CACHE.snapshot().misses == 1
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label
    # Distinct clock points must actually price differently (otherwise
    # the overrides were silently dropped somewhere).
    seconds = {o.result.seconds for o in vector_outcomes}
    assert len(seconds) == len(runs)
    memo.clear_caches()


def test_quarantine_holes_match_scalar(monkeypatch):
    """A port that dies leaves the same holes as per-cell pricing:
    capture failure falls back to the retry ladder, the ladder fails
    too, and the study reassembles around the ``None`` slots without
    raising."""

    def boom(ctx, config):
        raise RuntimeError("injected port failure")

    monkeypatch.setitem(APPS_BY_NAME["XSBench"].ports, "OpenCL", boom)
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["XSBench"])
    policy = RetryPolicy(max_attempts=1)
    results = {}
    for name, executes in (("vector", execute), ("scalar", per_cell_execute)):
        monkeypatch.setattr(core_study, "execute", executes)
        memo.clear_caches()
        results[name] = run_study(
            apps,
            configs=dict(sweep_configs()),
            models=("OpenCL", "OpenACC"),
            policy=policy,
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
    """One batched call over every captured atom of an app's OpenCL
    schedule equals the one-row, one-kernel call per atom, exactly:
    kernels priced together do not disturb each other's bits."""
    spec = RunSpec(app_name, "OpenCL", DGPU, Precision.SINGLE, sweep_configs()[app_name])
    program = capture_program(spec)
    lowereds = [atom[1] for atom in program.atoms if atom[0] == "gpu"]
    assert lowereds
    gpu = make_platform(apu=False).gpu
    batch = time_gpu_kernel_grid(lowereds, [gpu], Precision.SINGLE)
    assert [
        KernelTiming.from_prices(batch, (0, j), lowered.spec.name)
        for j, lowered in enumerate(lowereds)
    ] == [time_gpu_kernel(lowered, gpu, Precision.SINGLE) for lowered in lowereds]


@pytest.mark.parametrize("app_name", ["read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"])
def test_batched_cpu_pricer_matches_scalar(app_name):
    """One batched call over every captured atom of the OpenMP baseline
    schedule equals the one-spec call per atom, exactly."""
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
        assert [
            KernelTiming.from_prices(batch, (j,), s.name) for j, s in enumerate(specs)
        ] == [time_cpu_kernel(s, host, Precision.DOUBLE, threads=threads) for s in specs]


def test_functional_cells_delegate_to_scalar():
    """``projection=False`` cells run the numerics; the executor must
    hand them to the retry ladder untouched."""
    config = sweep_configs()["read-benchmark"]
    runs = [
        RunSpec("read-benchmark", model, DGPU, Precision.SINGLE, config, projection=False)
        for model in ("OpenMP", "OpenCL")
    ]
    memo.clear_caches()
    scalar_outcomes, _ = per_cell(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute(runs)
    for left, right in zip(scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)
    memo.clear_caches()


def test_uncached_vector_run_identical(matrix_pair):
    """``use_cache=False`` changes wall time, never values."""
    runs, (scalar_outcomes, _), _vector = matrix_pair
    uncached_outcomes, uncached_stats = execute(runs, use_cache=False)
    assert uncached_stats.caches["kernel"].hits == 0
    for left, right in zip(scalar_outcomes, uncached_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)


def test_duplicate_specs_share_one_outcome():
    """Content-equal descriptors collapse to one priced cell."""
    spec = RunSpec("miniFE", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["miniFE"])
    memo.clear_caches()
    outcomes, stats = execute([spec, spec, spec])
    assert stats.unique_runs == 1
    assert outcomes[0] is outcomes[1] is outcomes[2]
    memo.clear_caches()


def test_stub_cache_lifecycle():
    """The cross-capture stub cache fills only when the setup cache is
    enabled, and ``clear_caches`` empties it."""
    spec = RunSpec("CoMD", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["CoMD"])
    memo.clear_caches()
    assert not memo.STUB_CACHE
    with memo.cache_disabled():
        capture_program(spec)
        assert not memo.STUB_CACHE
    capture_program(spec)
    assert memo.STUB_CACHE
    memo.clear_caches()
    assert not memo.STUB_CACHE


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
    app = APPS_BY_NAME["read-benchmark"]
    with pytest.raises(ValueError, match="unknown engine"):
        run_study((app,), configs=dict(sweep_configs()), engine="warp")
    with pytest.raises(ValueError, match="unknown engine"):
        run_sweep(app, sweep_configs()[app.name], engine="warp")


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
    log, _ctx, gpu, _cpu, _spec = _charge_fixture()
    for counted in (True, False, True, False):
        log.transfer(gpu, 4096, "h2d", counted)
    log.transfer(gpu, 4096, "d2h", True)
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

    def transfer(self, toolchain, nbytes, direction, counted):
        self.transfers += 1
        self.reference.append((None, 0.0, (int(nbytes), direction), counted))
        return self.log.transfer(toolchain, nbytes, direction, counted)

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


@pytest.mark.parametrize("model", sorted({m for app in ALL_APPS for m in app.ports}))
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


# --- broadcast pricing along the clock axis --------------------------


def _clock_rows(platform):
    """One device per clock point: both range edges of each domain, the
    default, and an interior point, crossed."""
    gpu = platform_for(platform).gpu
    core, memory = gpu.core_clock, gpu.memory_clock
    core_points = sorted({core.min_mhz, core.default_mhz, core.max_mhz,
                          (core.min_mhz + core.max_mhz) / 2 + 0.25})
    memory_points = sorted({memory.min_mhz, memory.default_mhz, memory.max_mhz,
                            (memory.min_mhz + memory.max_mhz) / 2 + 0.5})
    rows = []
    for core_mhz in core_points:
        for memory_mhz in memory_points:
            row = platform_for(platform).gpu
            row.core_clock.set(core_mhz)
            row.memory_clock.set(memory_mhz)
            rows.append(row)
    return rows


@pytest.mark.parametrize("platform", ["apu", DGPU, "v100"])
@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_broadcast_grid_equals_per_row_batches(app_name, precision, platform):
    """One (clock rows x atoms) broadcast call equals the one-row call
    per clock point, exactly."""
    spec = RunSpec(app_name, "OpenCL", platform, precision, sweep_configs()[app_name])
    lowereds = [atom[1] for atom in capture_program(spec).atoms if atom[0] == "gpu"]
    assert lowereds
    rows = _clock_rows(platform)
    grid = time_gpu_kernel_grid(lowereds, rows, precision)
    assert grid.seconds.shape == (len(rows), len(lowereds))
    for r, gpu in enumerate(rows):
        alone = time_gpu_kernel_grid(lowereds, [gpu], precision)
        for name in KernelPrices._fields[:-1]:  # every array; ``waves`` is per kernel
            cells, expected = getattr(grid, name)[r], getattr(alone, name)[0]
            assert cells.dtype == expected.dtype and cells.tobytes() == expected.tobytes(), name
        assert grid.waves == alone.waves
    # The edges genuinely price differently (the clocks reached the grid).
    assert len({row.tobytes() for row in grid.seconds}) > 1


def test_broadcast_grid_rejects_mixed_gpu_specs():
    spec = RunSpec("XSBench", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["XSBench"])
    lowereds = [atom[1] for atom in capture_program(spec).atoms if atom[0] == "gpu"]
    rows = [make_platform(apu=False).gpu, make_platform(apu=True).gpu]
    with pytest.raises(ValueError, match="one GPU spec"):
        time_gpu_kernel_grid(lowereds, rows, Precision.SINGLE)


def test_row_fold_equals_per_row_left_fold():
    """The 2-D fold over (cells x events) is each row's strict left fold."""
    rng = np.random.default_rng(2015)
    # Magnitudes spread over many decades, so association order shows.
    values = rng.standard_normal((37, 211)) * 10.0 ** rng.integers(-8, 9, (37, 211))
    folded = _accumulate_rows(values)
    assert folded.tolist() == [_accumulate(row) for row in values]
    assert _accumulate_rows(values[:, :0]).tolist() == [0.0] * 37


def test_left_fold_is_not_np_sum():
    """Why the formulas stay reduction-free: ``np.sum`` sums pairwise
    (in blocks), a scalar ``+=`` accumulator left to right.  Here the
    left fold loses every 1.0 against 1e17, while pairwise summation
    adds the ones among themselves first and keeps them."""
    values = np.array([1e17] + [1.0] * 1000)
    total = 0.0
    for value in values.tolist():
        total += value
    assert _accumulate(values) == total == 1e17
    assert _accumulate_rows(values[None, :]).tolist() == [total]
    assert float(np.sum(values)) != total


# --- failure isolation and per-row stats -----------------------------


def _xsbench_grid():
    config = sweep_configs()["XSBench"]
    return sweep_runs(
        "XSBench", config, Precision.SINGLE, (300.0, 547.0, 1000.0), (600.0, 1250.0), "OpenCL"
    )


def _clocks(platform):
    gpu = platform.gpu
    return gpu.core_clock.current_mhz, gpu.memory_clock.current_mhz


def test_failing_group_reprices_rows_one_at_a_time(monkeypatch):
    """A group whose broadcast call raises is re-priced row by row:
    every row that prices alone stays columnar, and only the row that
    still raises takes the retry ladder."""
    import repro.engine.study_vec as study_vec

    runs = _xsbench_grid()
    bad = runs[2]
    bad_clocks = (bad.core_mhz, bad.memory_mhz)
    real_price, real_retry = study_vec.price_cell, executor.run_with_retry
    calls, ladder = [], []

    def flaky(program, platforms, precision):
        calls.append(len(platforms))
        # The ladder prices through this same call: the bad row fails
        # on its columnar attempt only.
        columnar = len(calls) <= 1 + len(runs)
        if len(platforms) > 1 or (columnar and _clocks(platforms[0]) == bad_clocks):
            raise RuntimeError("injected pricing failure")
        return real_price(program, platforms, precision)

    def counted(spec, *args, **kwargs):
        ladder.append(spec)
        return real_retry(spec, *args, **kwargs)

    monkeypatch.setattr(study_vec, "price_cell", flaky)
    monkeypatch.setattr(executor, "run_with_retry", counted)
    memo.clear_caches()
    vector_outcomes, stats = execute(runs)
    assert calls == [len(runs)] + [1] * len(runs) + [1]
    assert ladder == [bad]
    assert not stats.failures
    memo.clear_caches()
    scalar_outcomes, _ = per_cell(runs)
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label
    memo.clear_caches()


def test_per_row_cache_counts_sum_to_the_call_delta():
    """Each per-cell outcome counts the lookups made for its own row
    (its capture's), so the stats totals equal the cache delta over
    the whole call; a grouped row makes no lookup of its own, and the
    executor reports the cache delta its group calls caused directly.
    Neither prices a kernel one at a time."""
    runs = [spec for spec in full_matrix() if spec.projection]
    runs += _xsbench_grid()
    memo.clear_caches()
    for _ in range(2):  # cold, then warm
        before = memo.snapshot()
        outcomes, stats = per_cell(runs)
        delta = memo.since(before)
        assert delta["plan"].lookups == len(runs)
        assert delta["kernel"].lookups == 0
        for name, counts in delta.items():
            rows = [outcome.caches.get(name, memo.MemoStats()) for outcome in outcomes]
            assert (sum(r.hits for r in rows), sum(r.misses for r in rows)) == (
                counts.hits, counts.misses
            ), name
            got = stats.caches.get(name, memo.MemoStats())
            assert (got.hits, got.misses) == (counts.hits, counts.misses), name
    memo.clear_caches()
    for _ in range(2):
        before = memo.snapshot()
        outcomes, stats = execute(runs)
        delta = memo.since(before)
        assert delta["kernel"].lookups == 0
        for name, counts in delta.items():
            got = stats.caches.get(name, memo.MemoStats())
            assert (got.hits, got.misses) == (counts.hits, counts.misses), name
        for outcome in outcomes:
            assert outcome.caches.get("kernel", memo.MemoStats()).lookups == 0
    memo.clear_caches()


def test_columnar_sweep_builds_no_timings_and_makes_no_kernel_lookups(monkeypatch):
    """Columnar pricing folds straight from the roofline arrays: a sweep
    builds no per-launch ``KernelTiming``, makes no ``KERNEL_CACHE``
    lookup, and still counts every launch under exactly one limiter."""
    runs = _xsbench_grid() + sweep_runs(
        "LULESH", sweep_configs()["LULESH"], Precision.DOUBLE, (300.0, 1000.0), (600.0,),
        "Heterogeneous Compute",
    )
    built, lookups = [], []
    real_init = KernelTiming.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(KernelTiming, "__init__", counted_init)
    monkeypatch.setattr(memo.KERNEL_CACHE, "lookup", lambda *a, **k: lookups.append(a))
    monkeypatch.setattr(memo.KERNEL_CACHE, "contains", lambda *a, **k: lookups.append(a))
    memo.clear_caches()
    outcomes, stats = execute(runs)
    assert built == [] and lookups == []
    assert stats.caches["kernel"].lookups == 0
    for outcome in outcomes:
        counters = outcome.result.counters
        launches = (
            counters.compute_launches + counters.memory_launches + counters.floor_launches
        )
        assert launches == counters.kernel_launches > 0, outcome.spec.label
    # The guard can fail: a one-kernel pricing call builds a timing.
    monkeypatch.undo()
    monkeypatch.setattr(KernelTiming, "__init__", counted_init)
    (_gpu, lowered), *_ = capture_program(runs[0]).atoms
    time_gpu_kernel(lowered, make_platform(apu=False).gpu, Precision.SINGLE)
    assert len(built) == 1
    memo.clear_caches()
