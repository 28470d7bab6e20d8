"""Determinism: studies are bit-identical however they are executed.

The acceptance property of the executor (and the reason memoization is
safe): every run is a pure function of its descriptor, so grouped or
per-run pricing, telemetry, plan order and cache state must never show
up in the numbers.  Entries are compared field-for-field with exact
``==`` — no tolerance.
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
    return run_study(APPS, configs=dict(sweep_configs()))


def test_study_identical_with_telemetry_on_and_off(serial_study):
    """The plain study prices its projection cells by schedule group;
    with telemetry every cell takes the retry ladder as its own run."""
    recorded = run_study(APPS, configs=dict(sweep_configs()), telemetry=True)
    assert entry_dicts(recorded) == entry_dicts(serial_study)
    assert recorded.telemetry is not None and serial_study.telemetry is None


@pytest.mark.parametrize("slices", [2, 3, 5])
def test_parallel_study_identical_to_serial(slices):
    """A study plan cut into ``slices`` contiguous pieces, each executed
    by its own call with telemetry (every run through the retry ladder,
    on cold caches), gives bit-identical results to the whole plan
    priced by schedule group in one call: how a plan is split into
    independent pieces never shows in the numbers."""
    plan = _plan()
    memo.clear_caches()
    whole, _ = execute(plan)
    memo.clear_caches()
    bounds = [len(plan) * i // slices for i in range(slices + 1)]
    pieces = []
    for start, stop in zip(bounds, bounds[1:]):
        outcomes, stats = execute(plan[start:stop], telemetry=True)
        assert stats.timeline is not None
        pieces.extend(outcomes)
    memo.clear_caches()
    assert len(pieces) == len(whole) == len(plan)
    for a, b in zip(whole, pieces):
        assert vars(a.result) == vars(b.result)


def test_cache_off_identical_to_cache_on(serial_study):
    uncached = run_study(
        APPS, configs=dict(sweep_configs()), use_cache=False
    )
    assert entry_dicts(uncached) == entry_dicts(serial_study)
    assert uncached.stats.caches["kernel"].hits == 0


def test_parallel_uncached_identical_too(serial_study):
    """Per-run pricing (telemetry on) and cache state vary together:
    still identical."""
    both = run_study(
        APPS, configs=dict(sweep_configs()), use_cache=False, telemetry=True,
    )
    assert both.stats.caches["kernel"].hits == 0
    assert entry_dicts(both) == entry_dicts(serial_study)


def test_parallel_sweep_identical_to_serial():
    """A sweep's grid is one schedule group, priced in one call; with
    telemetry every point is its own run through the retry ladder."""
    app = APPS_BY_NAME["read-benchmark"]
    config = sweep_configs()[app.name]
    grouped = run_sweep(app, config)
    per_run = run_sweep(app, config, telemetry=True)
    assert per_run.telemetry is not None and grouped.telemetry is None
    assert per_run.points == grouped.points


def _plan():
    """A multi-app plan whose specs interleave setup-affinity groups
    when shuffled: four apps, four affinity blocks."""
    return study_runs(
        app_names=["read-benchmark", "XSBench", "LULESH", "miniFE"],
        configs=dict(sweep_configs()),
        apu_values=(True, False),
        precisions=(Precision.SINGLE, Precision.DOUBLE),
        models=("OpenCL", "OpenACC"),
        baseline="OpenMP",
        projection=True,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_plan_identical_with_cache_parity(seed):
    """Submission order is presentation, not semantics: a shuffled plan
    yields the same outcome per descriptor AND the same cache economics.

    The parity half is the regression guard for the plan-ordering
    hazard: runs taken in raw submission order would interleave problem
    setups under the bounded setup LRU and rebuild evicted ones — same
    bits, quietly worse cache behaviour.  The executor runs whole
    setup-affinity blocks in first-appearance order, so hit/miss totals
    must match the sorted plan exactly."""
    plan = _plan()
    shuffled = list(plan)
    random.Random(2015 + seed).shuffle(shuffled)
    assert shuffled != plan

    # Telemetry makes every projection cell its own run through the
    # retry ladder (grouped pricing would take the lattice path).
    memo.clear_caches()
    ordered_outcomes, ordered_stats = execute(plan, telemetry=True)
    memo.clear_caches()
    shuffled_outcomes, shuffled_stats = execute(shuffled, telemetry=True)
    memo.clear_caches()

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
    pricing) — without this the comparisons above would be
    meaningless."""
    again = run_study(APPS, configs=dict(sweep_configs()))
    assert entry_dicts(again) == entry_dicts(serial_study)
