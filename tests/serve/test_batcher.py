"""Idle dispatch, micro-batching, single-flight coalescing, and drain
semantics."""

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.memo import SingleFlightCache
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.serve import Batcher, PredictRequest
from repro.serve.batcher import CACHED, COALESCED, COMPUTED


def _spec(model="OpenCL", platform="apu", precision="single"):
    request = PredictRequest.from_json({
        "app": "XSBench", "model": model, "platform": platform,
        "precision": precision,
    })
    return request.specs()[1]


def _batcher(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("cache", SingleFlightCache())
    return Batcher(**kwargs)


def _hold_first_batch(batcher):
    """Block the batcher's first batch on its backend thread until the
    returned ``release`` event is set; ``sizes`` logs every batch."""
    started, release = threading.Event(), threading.Event()
    sizes = []
    run_batch = batcher._run_batch

    def held(batch, dispatched_s):
        sizes.append(len(batch))
        if len(sizes) == 1:
            started.set()
            release.wait(timeout=30)
        return run_batch(batch, dispatched_s)

    batcher._run_batch = held
    return started, release, sizes


async def _until(event):
    deadline = time.monotonic() + 30
    while not event.is_set():
        assert time.monotonic() < deadline, "backend never picked the batch up"
        await asyncio.sleep(0.001)


async def _submit_one_per_iteration(batcher, specs):
    """Submit each spec from its own event-loop iteration."""
    tasks = []
    for spec in specs:
        tasks.append(asyncio.create_task(batcher.submit(spec)))
        await asyncio.sleep(0)  # the task submits before we resume
    return tasks


def test_submit_computes_then_serves_from_cache():
    async def main():
        batcher = _batcher()
        spec = _spec()
        first, prov_first = await batcher.submit(spec)
        second, prov_second = await batcher.submit(spec)
        await batcher.drain()
        assert prov_first == COMPUTED
        assert prov_second == CACHED
        # Same cached object: bit-identity is trivially guaranteed.
        assert second is first
    asyncio.run(main())


def test_concurrent_identical_submits_coalesce():
    async def main():
        batcher = _batcher()
        spec = _spec()
        outcomes = await asyncio.gather(*(batcher.submit(spec) for _ in range(5)))
        await batcher.drain()
        return batcher, outcomes
    batcher, outcomes = asyncio.run(main())
    labels = [label for _result, label in outcomes]
    assert labels.count(COMPUTED) == 1
    assert labels.count(COALESCED) == 4
    assert batcher.cache.coalesced == 4
    results = {id(result) for result, _label in outcomes}
    assert len(results) == 1  # one engine run answered everyone


def test_distinct_specs_merge_into_one_batch():
    async def main():
        batcher = _batcher()
        specs = [_spec(model=m) for m in ("OpenCL", "C++ AMP", "OpenACC")]
        await batcher.submit_many(specs)
        await batcher.drain()
        return batcher
    batcher = asyncio.run(main())
    batches = batcher.metrics.get("repro_serve_batches_total")
    assert batches is not None and batches.value == 1
    _counts, total, count = batcher.metrics.get(
        "repro_serve_batch_size"
    ).snapshot()
    assert count == 1 and total == 3  # one batch of three specs


def test_lone_cold_submit_sets_no_timer():
    """An idle backend takes a lone cold spec at once: no timer runs."""
    async def main():
        batcher = _batcher()
        loop = asyncio.get_running_loop()
        timers = []
        call_later = loop.call_later

        def counting(*args, **kwargs):
            timers.append(args)
            return call_later(*args, **kwargs)

        loop.call_later = counting
        try:
            _result, label = await batcher.submit(_spec())
        finally:
            del loop.call_later
        await batcher.drain()
        return label, timers
    label, timers = asyncio.run(main())
    assert label == COMPUTED
    assert timers == []


def test_specs_queued_behind_a_running_batch_go_out_together():
    async def main():
        batcher = _batcher()
        started, release, sizes = _hold_first_batch(batcher)
        try:
            first = asyncio.create_task(batcher.submit(_spec()))
            await _until(started)
            queued = await _submit_one_per_iteration(
                batcher, [_spec(model=m) for m in ("C++ AMP", "OpenACC")]
            )
        finally:
            release.set()
        outcomes = await asyncio.gather(first, *queued)
        await batcher.drain()
        return batcher, sizes, outcomes
    batcher, sizes, outcomes = asyncio.run(main())
    assert [label for _result, label in outcomes] == [COMPUTED] * 3
    assert batcher.metrics.get("repro_serve_batches_total").value == 2
    _counts, total, count = batcher.metrics.get("repro_serve_batch_size").snapshot()
    assert (count, total) == (2, 3)
    assert sizes == [1, 2]


def test_full_batch_flushes_while_backend_busy():
    """``max_batch`` splits the specs queued behind a running batch."""
    async def main():
        batcher = _batcher(max_batch=2)
        started, release, sizes = _hold_first_batch(batcher)
        try:
            first = asyncio.create_task(batcher.submit(_spec()))
            await _until(started)
            queued = await _submit_one_per_iteration(batcher, [
                _spec(model="C++ AMP"), _spec(model="OpenACC"),
                _spec(platform="dgpu"),
            ])
        finally:
            release.set()
        await asyncio.gather(first, *queued)
        await batcher.drain()
        return sizes
    assert asyncio.run(main()) == [1, 2, 1]


def test_drain_answers_specs_queued_behind_a_running_batch():
    async def main():
        batcher = _batcher()
        started, release, sizes = _hold_first_batch(batcher)
        try:
            first = asyncio.create_task(batcher.submit(_spec()))
            await _until(started)
            queued = await _submit_one_per_iteration(
                batcher, [_spec(model=m) for m in ("C++ AMP", "OpenACC")]
            )
            draining = asyncio.create_task(batcher.drain())
            await asyncio.sleep(0)
        finally:
            release.set()
        await asyncio.wait_for(draining, timeout=30)
        tasks = [first, *queued]
        assert all(task.done() for task in tasks)
        return sizes, [task.result()[1] for task in tasks]
    sizes, labels = asyncio.run(main())
    assert labels == [COMPUTED] * 3
    assert sizes == [1, 2]


def test_backend_failure_propagates_and_is_not_cached():
    class Boom(RuntimeError):
        pass

    async def main():
        # Scalar engine: the columnar path would price this eligible
        # spec before _compute is ever consulted.
        batcher = _batcher(engine="scalar")
        spec = _spec()
        real_compute = batcher._compute
        calls = {"n": 0}

        def failing_compute(spec):
            calls["n"] += 1
            raise Boom("engine exploded")

        batcher._compute = failing_compute
        with pytest.raises(Boom):
            await batcher.submit(spec)
        # The failure must not poison the cache: a retry recomputes.
        batcher._compute = real_compute
        _result, label = await batcher.submit(spec)
        await batcher.drain()
        assert calls["n"] == 1
        assert label == COMPUTED
    asyncio.run(main())


def test_drain_rejects_cold_work_but_serves_cache():
    async def main():
        batcher = _batcher()
        spec = _spec()
        await batcher.submit(spec)
        await batcher.drain()
        # Warm answers still work (pure cache lookup) ...
        _result, label = await batcher.submit(spec)
        assert label == CACHED
        # ... but cold specs are refused.
        with pytest.raises(RuntimeError, match="draining"):
            await batcher.submit(_spec(model="C++ AMP"))
    asyncio.run(main())


def test_columnar_failure_falls_back_to_scalar(monkeypatch):
    """A broken columnar path must never lose a request: the batcher
    silently reverts the whole batch to the scalar retry ladder."""
    import repro.engine.study_vec as study_vec

    def boom(specs):
        raise RuntimeError("injected columnar failure")

    monkeypatch.setattr(study_vec, "price_specs", boom)

    async def main():
        batcher = _batcher(engine="vector")
        result, label = await batcher.submit(_spec())
        await batcher.drain()
        return result, label

    result, label = asyncio.run(main())
    assert label == COMPUTED
    assert result.seconds > 0


def test_failing_columnar_group_costs_only_its_own_specs(monkeypatch):
    """One schedule group whose pricing raises takes the scalar ladder;
    the batch's other cold specs stay columnar-priced and are counted."""
    import repro.engine.study_vec as study_vec

    real = study_vec.price_cell
    failed = []

    def flaky(program, platforms, precision):
        # The scalar ladder prices through this same call, so the
        # injected failure is transient: the group's first call only.
        if program.model == "OpenACC" and not failed:
            failed.append(program.model)
            raise RuntimeError("injected group failure")
        return real(program, platforms, precision)

    monkeypatch.setattr(study_vec, "price_cell", flaky)

    async def main():
        metrics = MetricsRegistry()
        batcher = _batcher(metrics=metrics, engine="vector")
        outcomes = await asyncio.gather(
            batcher.submit(_spec()),
            batcher.submit(_spec(platform="dgpu")),
            batcher.submit(_spec(model="OpenACC")),
        )
        await batcher.drain()
        return metrics, outcomes

    metrics, outcomes = asyncio.run(main())
    assert [label for _result, label in outcomes] == [COMPUTED] * 3
    assert all(result.seconds > 0 for result, _label in outcomes)
    assert metrics.counter("repro_serve_columnar_specs_total").value == 2
    assert metrics.counter("repro_serve_engine_runs_total").value == 1


def test_vector_batcher_counts_columnar_specs():
    """Cold eligible specs are tallied by the columnar counter; a
    scalar batcher never creates it."""

    async def main(engine):
        metrics = MetricsRegistry()
        batcher = _batcher(metrics=metrics, engine=engine)
        await asyncio.gather(
            batcher.submit(_spec()), batcher.submit(_spec(model="OpenACC"))
        )
        await batcher.drain()
        return metrics

    vector = asyncio.run(main("vector"))
    assert vector.counter("repro_serve_columnar_specs_total").value == 2
    scalar = asyncio.run(main("scalar"))
    assert scalar.counter("repro_serve_columnar_specs_total").value == 0


def test_resident_submit_many_never_suspends():
    """Resident specs are answered in the call that asks for them: no
    task, no timer (a deadline included), and the coroutine finishes
    without yielding to the loop."""
    names = ("call_later", "call_at", "create_task")

    async def main():
        batcher = _batcher()
        specs = [_spec(), _spec(model="OpenACC")]
        await batcher.submit_many(specs)
        loop = asyncio.get_running_loop()
        scheduled = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                scheduled.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in names:
            setattr(loop, name, counting(name, getattr(loop, name)))
        try:
            resolving = batcher.submit_many(specs, deadline=loop.time() + 30)
            with pytest.raises(StopIteration) as stop:
                resolving.send(None)
        finally:
            for name in names:
                delattr(loop, name)
        await batcher.drain()
        return stop.value.value, scheduled

    served, scheduled = asyncio.run(main())
    assert [label for _result, label in served] == [CACHED, CACHED]
    assert scheduled == []


def test_deadline_bounds_the_cold_wait_and_the_run_still_lands():
    """An overrun raises on the wait alone: the engine run completes and
    a retry is served from cache."""
    async def main():
        batcher = _batcher()
        started, release, _sizes = _hold_first_batch(batcher)
        loop = asyncio.get_running_loop()
        try:
            with pytest.raises(asyncio.TimeoutError):
                await batcher.submit_many(
                    [_spec(), _spec(model="OpenACC")], deadline=loop.time() + 0.05
                )
            assert started.is_set()
        finally:
            release.set()
        while batcher.depth:
            await asyncio.sleep(0.001)
        retry = await batcher.submit_many([_spec(), _spec(model="OpenACC")])
        await batcher.drain()
        return retry

    assert [label for _result, label in asyncio.run(main())] == [CACHED, CACHED]


def test_coalesced_leg_records_its_wait():
    """A spec that joins an in-flight one is labelled ``coalesced`` and
    records a ``coalesced_wait`` segment under its request."""
    async def main():
        batcher = _batcher()
        started, release, _sizes = _hold_first_batch(batcher)
        try:
            first = asyncio.create_task(batcher.submit(_spec()))
            await _until(started)
            root = tracing.TRACER.start_span("request", kind="server")
            with tracing.use(root.context):
                joining = asyncio.create_task(
                    batcher.submit_many([_spec(), _spec(model="OpenACC")])
                )
            await asyncio.sleep(0)
        finally:
            release.set()
        await first
        served = await joining
        await batcher.drain()
        return served, root, tracing.TRACER.pending_spans(root.trace_id)

    served, root, spans = asyncio.run(main())
    assert [label for _result, label in served] == [COALESCED, COMPUTED]
    waits = [span for span in spans if span.name == "coalesced_wait"]
    assert len(waits) == 1
    assert waits[0].parent_id == root.span_id
    assert waits[0].end_s >= waits[0].start_s


def test_vector_engine_is_loaded_with_the_batcher_not_the_first_cold_batch():
    """A vector batcher imports the columnar engine when it is built; a
    scalar one never loads it."""
    probe = (
        "import sys\n"
        "from repro.serve import Batcher\n"
        "Batcher(engine={engine!r})\n"
        "print('repro.engine.study_vec' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
    loaded = {}
    for engine in ("vector", "scalar"):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(engine=engine)],
            capture_output=True, text=True, check=True, env=env, timeout=120,
        )
        loaded[engine] = out.stdout.strip()
    assert loaded == {"vector": "True", "scalar": "False"}
