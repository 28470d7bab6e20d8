"""Determinism: parallel studies are bit-identical to serial ones.

The acceptance property of the executor (and the reason memoization is
safe): every run is a pure function of its descriptor, so worker
count, sharding and cache state must never show up in the numbers.
Entries are compared field-for-field with exact ``==`` — no tolerance.
"""

import random

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import sweep_configs
from repro.core.study import run_study
from repro.core.sweep import run_sweep
from repro.engine import memo
from repro.exec.executor import execute
from repro.exec.plan import study_runs
from repro.hardware.specs import Precision

APPS = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["XSBench"])


def entry_dicts(study):
    return [entry.__dict__ for entry in study.entries]


@pytest.fixture(scope="module")
def serial_study():
    return run_study(APPS, configs=dict(sweep_configs()), max_workers=1)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_parallel_study_identical_to_serial(serial_study, workers):
    """The serial study prices its projection cells by schedule group
    in process; with telemetry every cell is its own run, so these
    reach the pool."""
    parallel = run_study(
        APPS, configs=dict(sweep_configs()), max_workers=workers, telemetry=True
    )
    assert entry_dicts(parallel) == entry_dicts(serial_study)
    assert parallel.stats.workers == min(workers, parallel.stats.unique_runs)


def test_cache_off_identical_to_cache_on(serial_study):
    uncached = run_study(
        APPS, configs=dict(sweep_configs()), max_workers=1, use_cache=False
    )
    assert entry_dicts(uncached) == entry_dicts(serial_study)
    assert uncached.stats.caches["kernel"].hits == 0


def test_parallel_uncached_identical_too(serial_study):
    """Worker count and cache state vary together: still identical."""
    both = run_study(
        APPS, configs=dict(sweep_configs()), max_workers=2, use_cache=False,
        telemetry=True,
    )
    assert both.stats.workers == 2
    assert entry_dicts(both) == entry_dicts(serial_study)


def test_parallel_sweep_identical_to_serial():
    """A sweep's grid is one schedule group, priced in process; with
    telemetry every point is its own run, so the pool is reached."""
    app = APPS_BY_NAME["read-benchmark"]
    config = sweep_configs()[app.name]
    serial = run_sweep(app, config, max_workers=1)
    parallel = run_sweep(app, config, max_workers=4, telemetry=True)
    assert parallel.stats.workers > 1
    assert parallel.points == serial.points


def _plan():
    """A multi-app plan whose specs interleave setup-affinity groups
    when shuffled.  Four apps = four affinity blocks: more blocks than
    any worker count below, so sharding stays on the whole-block path
    (with fewer blocks than workers it deliberately trades setup
    affinity for parallelism, and parity is not promised)."""
    return study_runs(
        app_names=["read-benchmark", "XSBench", "LULESH", "miniFE"],
        configs=dict(sweep_configs()),
        apu_values=(True, False),
        precisions=(Precision.SINGLE, Precision.DOUBLE),
        models=("OpenCL", "OpenACC"),
        baseline="OpenMP",
        projection=True,
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shuffled_plan_identical_with_cache_parity(workers):
    """Submission order is presentation, not semantics: a shuffled plan
    yields the same outcome per descriptor AND the same cache economics.

    The parity half is the regression guard for the plan-ordering
    hazard: sharding used to split a shuffled plan mid
    setup-affinity-group, so runs sharing a problem setup landed on
    different workers and rebuilt it — same bits, quietly worse cache
    behaviour.  Sharding now keeps whole affinity blocks together, so
    hit/miss totals must match the sorted plan exactly."""
    plan = _plan()
    shuffled = list(plan)
    random.Random(2015).shuffle(shuffled)

    # Telemetry makes every projection cell its own run (grouped
    # pricing would never reach the shards).
    memo.clear_caches()
    ordered_outcomes, ordered_stats = execute(plan, max_workers=workers, telemetry=True)
    memo.clear_caches()
    shuffled_outcomes, shuffled_stats = execute(shuffled, max_workers=workers, telemetry=True)
    memo.clear_caches()
    assert ordered_stats.workers == shuffled_stats.workers == workers

    by_key = {
        spec.content_key(): outcome.result
        for spec, outcome in zip(plan, ordered_outcomes)
    }
    for spec, outcome in zip(shuffled, shuffled_outcomes):
        assert vars(outcome.result) == vars(by_key[spec.content_key()]), spec.label

    for layer in ("kernel", "setup", "trace"):
        assert shuffled_stats.caches[layer] == ordered_stats.caches[layer], layer


def test_repeated_serial_runs_identical(serial_study):
    """The baseline itself is reproducible (seeded builders, pure
    pricing) — without this the parallel comparisons above would be
    meaningless."""
    again = run_study(APPS, configs=dict(sweep_configs()), max_workers=1)
    assert entry_dicts(again) == entry_dicts(serial_study)
