"""Trace propagation through the executor: deterministic span trees
across plan orders, and bit-identical results with tracing on or off.
"""

import random

import pytest

from repro.core.configs import sweep_configs
from repro.engine import memo
from repro.exec.executor import execute
from repro.exec.plan import study_runs
from repro.hardware.specs import Precision
from repro.obs import tracing
from repro.obs.tracing import (
    SpanContext,
    derived_span_id,
    orphan_spans,
    seeded_trace_id,
    tree_signature,
)


def _plan():
    return study_runs(
        app_names=["read-benchmark", "XSBench"],
        configs=dict(sweep_configs()),
        apu_values=(True, False),
        precisions=(Precision.SINGLE,),
        models=("OpenCL",),
        baseline="OpenMP",
        projection=True,
    )


def _root_ctx(seed: str) -> SpanContext:
    return SpanContext(
        trace_id=seeded_trace_id(seed),
        span_id=derived_span_id(seed, "root"),
    )


def _traced_execution(plan=None, seed: str = "det"):
    """Run the plan under a seeded root context; return (spans, outcomes)."""
    ctx = _root_ctx(seed)
    memo.clear_caches()
    tracing.TRACER.clear()
    try:
        with tracing.use(ctx):
            outcomes, _stats = execute(plan or _plan(), telemetry=True)
        spans = tracing.TRACER.pending_spans(ctx.trace_id)
    finally:
        tracing.TRACER.clear()
        memo.clear_caches()
    return spans, outcomes


def test_execute_records_a_parented_span_tree():
    spans, outcomes = _traced_execution()
    exec_spans = [s for s in spans if s.name == "execute"]
    assert len(exec_spans) == 1
    exec_span = exec_spans[0]
    assert exec_span.kind == "executor"
    assert exec_span.parent_id == _root_ctx("det").span_id
    assert exec_span.attrs["unique"] == len({o.spec.content_key() for o in outcomes})
    run_spans = [s for s in spans if s.name.startswith("run:")]
    assert len(run_spans) == exec_span.attrs["unique"]
    assert all(s.parent_id == exec_span.span_id for s in run_spans)
    assert all(s.kind == "worker" for s in run_spans)
    assert not orphan_spans(spans)
    # Every run span lies inside the executor span's wall window.
    for span in run_spans:
        assert span.start_s >= exec_span.start_s - 1e-9
        assert span.end_s <= exec_span.end_s + 1e-9


@pytest.mark.parametrize("seed", [2, 3])
def test_span_tree_identical_across_worker_counts(seed):
    """Same trace seed + same plan => the identical span tree — ids
    included — however the plan's runs are handed to the executor:
    here, in the order a ``seed``-shuffled submission gives them."""
    plan = _plan()
    shuffled = list(plan)
    random.Random(seed).shuffle(shuffled)
    assert shuffled != plan
    forward_spans, forward_outcomes = _traced_execution(plan)
    shuffled_spans, shuffled_outcomes = _traced_execution(shuffled)
    assert tree_signature(shuffled_spans) == tree_signature(forward_spans)
    # And the results those spans describe are still bit-identical.
    by_key = {
        spec.content_key(): outcome.result
        for spec, outcome in zip(shuffled, shuffled_outcomes)
    }
    for spec, outcome in zip(plan, forward_outcomes):
        assert vars(outcome.result) == vars(by_key[spec.content_key()])


def test_results_bit_identical_with_tracing_on_and_off():
    plan = _plan()
    memo.clear_caches()
    tracing.TRACER.clear()
    untraced, _ = execute(plan, telemetry=True)
    assert tracing.TRACER.pending_spans(seeded_trace_id("det")) == []
    memo.clear_caches()
    traced_spans, traced = _traced_execution(plan)
    assert traced_spans  # tracing actually happened
    for a, b in zip(untraced, traced):
        assert vars(a.result) == vars(b.result)
        assert a.wall_seconds > 0 and b.wall_seconds > 0


def test_no_ambient_context_means_no_spans():
    memo.clear_caches()
    tracing.TRACER.clear()
    assert tracing.current() is None
    execute(_plan(), telemetry=True)
    assert tracing.TRACER.dropped == 0
    assert len(tracing.TRACER._buffers) == 0
    memo.clear_caches()
