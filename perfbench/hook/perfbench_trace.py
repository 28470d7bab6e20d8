"""Layer spans around the public calls of each ``repro`` layer.

:func:`install` wraps the functions named in :data:`TARGETS`, the
``ResultStore`` read/write methods and every app's ``ports[model]`` in
a timer.  Each call becomes one span ``(name, start, end, self, id,
parent id)``; the self time is the span's duration minus the part its
child spans cover.
Children on one thread are strictly nested, so that part is the sum of
their durations.  Spans stay in memory and are written to
``<dir>/spans-<pid>.json`` when the process exits.

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
the benchmark process can cut every process's spans to its own measured
window.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (module, function, span name).  Modules that imported a function by
#: name get the wrapper too (see :func:`_rebind`).  A target the program
#: no longer has is skipped and listed in the dump; its time then lands
#: in a catch-all span, which the offline tiling check bounds.
TARGETS = (
    ("repro.core.study", "run_study", "core.run_study"),
    ("repro.core.sweep", "run_sweep", "core.run_sweep"),
    ("repro.exec.plan", "study_runs", "exec.plan"),
    ("repro.exec.plan", "sweep_runs", "exec.plan"),
    ("repro.exec.executor", "execute", "exec.execute"),
    ("repro.exec.executor", "execute_run", "exec.execute_run"),
    ("repro.exec.retry", "run_with_retry", "exec.run_with_retry"),
    ("repro.engine.study_vec", "execute_vector", "engine.execute_vector"),
    ("repro.engine.study_vec", "capture_program", "engine.capture"),
    ("repro.engine.study_vec", "price_cell", "engine.price_cell"),
    ("repro.engine.study_vec", "price_specs", "engine.price_specs"),
    # Executor bookkeeping: the per-cell result envelope of the columnar
    # executor and the run-stat tallies of both executors.
    ("repro.engine.study_vec", "_price_outcome", "exec.envelope"),
    ("repro.exec.executor", "_limited_by_tallies", "exec.tally"),
    ("repro.engine.timing_vec", "time_gpu_kernel_batch", "engine.timing_vec"),
    ("repro.engine.timing_vec", "time_cpu_kernel_batch", "engine.timing_vec"),
    ("repro.engine.timing", "time_gpu_kernel", "engine.timing_scalar"),
    ("repro.engine.timing", "time_cpu_kernel", "engine.timing_scalar"),
    ("repro.serve.warmup", "warm_presets", "serve.warm"),
    ("repro.serve.warmup", "load_store", "serve.load_store"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.serve.store", "ResultStore", "get", "store.read"),
    ("repro.serve.store", "ResultStore", "put", "store.write"),
)

#: Imported up front so :func:`_rebind` sees every alias.
MODULES = (
    "repro.apps",
    "repro.core.study",
    "repro.core.sweep",
    "repro.serve.server",
    "repro.serve.shard",
)

_SPANS: list[tuple] = []
_MISSING: list[str] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _frames() -> list:
    frames = getattr(_LOCAL, "frames", None)
    if frames is None:
        frames = _LOCAL.frames = []
    return frames


def wrap(name: str, fn):
    """``fn`` timed as one span named ``name`` per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frames = _frames()
        parent = frames[-1][0] if frames else 0
        frame = [next(_IDS), 0.0]  # span id, seconds covered by children
        frames.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            frames.pop()
            duration = end - start
            if frames:
                frames[-1][1] += duration
            _SPANS.append((name, start, end, duration - frame[1], frame[0], parent))

    traced.__perfbench_original__ = fn
    return traced


def _rebind(originals: dict[int, object]) -> None:
    """Point every ``repro`` module alias of a wrapped function at its
    wrapper (``from x import f`` copies the binding at import time)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            replacement = originals.get(id(value))
            if replacement is not None and replacement is not value:
                setattr(module, attr, replacement)


def install(directory: str) -> None:
    """Wrap the layer boundaries and dump spans to ``directory`` at exit."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    originals: dict[int, object] = {}
    for module_name, function, span in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, function, None)
        if original is None:
            _MISSING.append(f"{module_name}.{function}")
            continue
        wrapper = wrap(span, original)
        originals[id(original)] = wrapper
        setattr(module, function, wrapper)
    _rebind(originals)
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, wrap(span, getattr(cls, method)))
    from repro.apps import ALL_APPS

    for app in ALL_APPS:
        for model, port in list(app.ports.items()):
            app.ports[model] = wrap("apps.port", port)
    atexit.register(_dump, directory)


def _dump(directory: str) -> None:
    from repro.engine import memo

    caches = {
        name: [cache.snapshot().hits, cache.snapshot().misses]
        for name, cache in (("kernel", memo.KERNEL_CACHE), ("plan", memo.PLAN_CACHE))
    }
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump({"pid": os.getpid(), "caches": caches, "missing": _MISSING,
                   "spans": _SPANS}, handle)
    os.replace(path + ".tmp", path)
