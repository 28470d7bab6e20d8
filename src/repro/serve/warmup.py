"""Boot-time cache warm-up: pre-price the reachable preset lattice.

A freshly started serve process answers its first cold query at
engine speed (milliseconds to seconds); the ROADMAP's north star
wants a tier that restarts *warm*.  Two mechanisms, composed:

* **Load** — seed the in-memory result cache from everything already
  resident in the persistent :class:`~repro.serve.store.ResultStore`
  (one directory scan + unpickle per entry).  After the first boot
  this alone makes a restart serve every previously-seen spec with
  zero cold misses.
* **Pre-price** — enumerate every spec reachable through the
  protocol's *presets* (all apps x their ports x both platforms x
  both precisions x the requested scale presets, no clock overrides)
  and price the ones the store does not hold yet in one
  :func:`repro.exec.executor.execute` call under the server's retry
  policy, the same call a cold serve batch makes.  This is the first
  boot's warm-up; afterwards the lattice lives on disk.

N shard processes warming the same store split the pricing work
naturally: each missing key is claimed through the store's
cross-process lock, so every spec is priced by exactly one shard;
the rest load the published results afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..apps import ALL_APPS
from ..engine.memo import SingleFlightCache
from ..exec.executor import execute
from ..exec.faults import FaultPlan
from ..exec.plan import PLATFORMS, RunSpec
from ..exec.retry import RetryPolicy
from ..hardware.specs import Precision
from .protocol import SCALES, resolve_config
from .store import ResultStore

#: Warm-up modes ``ServeConfig.warm`` may name.
WARM_MODES = ("none", "load", "presets")


@dataclass(frozen=True)
class WarmReport:
    """What one warm-up pass did."""

    total: int  #: presets enumerated (0 for a pure load)
    loaded: int  #: results seeded from store/memory
    priced: int  #: results computed by this process
    deferred: int  #: keys left to a concurrent process's lock
    wall_s: float

    def summary(self) -> str:
        return (
            f"warm-up: {self.loaded} loaded, {self.priced} priced, "
            f"{self.deferred} deferred of {self.total} presets "
            f"in {self.wall_s:.2f} s"
        )


def preset_specs(scales: tuple[str, ...] = ("bench",)) -> list[RunSpec]:
    """The reachable preset lattice, deduplicated, in a stable order.

    Exactly the specs a ``/v1/predict`` or ``/v1/batch`` cell can name
    without clock overrides: every port of every app, every platform
    selector (APU, dGPU, V100), both precisions, for each requested
    scale preset.  The order is append-only across releases *within a
    scale*: new platforms extend the innermost loops, so a store warmed
    by an older build stays a prefix-compatible subset — its keys keep
    hitting, and only the new cells are priced.
    """
    for scale in scales:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}: expected one of {SCALES}")
    specs: list[RunSpec] = []
    seen: set[str] = set()
    for scale in scales:
        for app in ALL_APPS:
            config = resolve_config(app.name, scale)
            for model in app.ports:
                for platform in PLATFORMS:
                    for precision in Precision:
                        spec = RunSpec(
                            app.name, model, platform, precision, config,
                            projection=True,
                        )
                        key = spec.content_key()
                        if key not in seen:
                            seen.add(key)
                            specs.append(spec)
    return specs


def load_store(cache: SingleFlightCache, store: ResultStore) -> int:
    """Seed the in-memory cache from every entry resident on disk."""
    loaded = 0
    for key in store.keys():
        value = store.get(key)
        if value is not None:
            cache.seed(key, value)
            loaded += 1
    return loaded


def warm_presets(
    cache: SingleFlightCache,
    store: ResultStore | None = None,
    scales: tuple[str, ...] = ("bench",),
    wait_s: float = 60.0,
    policy: RetryPolicy | None = None,
) -> WarmReport:
    """Make the preset lattice warm in ``cache`` (and ``store``).

    Store hits are loaded; misses are priced under ``policy`` — each
    missing key first claimed through the store's cross-process lock so
    concurrent shards partition the work.  A spec whose pricing fails
    is left cold: the lazy serve path retries it with full error
    reporting.  Keys another process claimed are polled for up to
    ``wait_s`` and seeded as they publish.
    """
    started = time.perf_counter()
    specs = preset_specs(scales)
    missing: list[RunSpec] = []
    loaded = 0
    for spec in specs:
        key = spec.content_key()
        found, _value = cache.peek(key)
        if found:
            loaded += 1
            continue
        if store is not None:
            value = store.get(key)
            if value is not None:
                cache.seed(key, value)
                loaded += 1
                continue
        missing.append(spec)

    ours: list[RunSpec] = []
    deferred: list[RunSpec] = []
    if store is None:
        ours = missing
    else:
        for spec in missing:
            if store._try_lock(spec.content_key()):
                ours.append(spec)
            else:
                deferred.append(spec)
    priced = 0
    try:
        # The inactive plan, not the study-run environment's.
        outcomes, _stats = execute(ours, policy=policy, faults=FaultPlan())
        for spec, outcome in zip(ours, outcomes):
            if outcome is None:
                continue
            key = spec.content_key()
            cache.seed(key, outcome.result)
            if store is not None:
                store.put(key, outcome.result, label=spec.label)
            priced += 1
    finally:
        if store is not None:
            for spec in ours:
                store._unlock(spec.content_key())

    # Poll for the results concurrent warmers claimed.
    still_deferred = 0
    if deferred and store is not None:
        deadline = time.monotonic() + wait_s
        pending = {spec.content_key() for spec in deferred}
        while pending and time.monotonic() < deadline:
            for key in list(pending):
                value = store.get(key)
                if value is not None:
                    cache.seed(key, value)
                    loaded += 1
                    pending.discard(key)
            if pending:
                time.sleep(0.02)
        still_deferred = len(pending)

    return WarmReport(
        total=len(specs),
        loaded=loaded,
        priced=priced,
        deferred=still_deferred,
        wall_s=time.perf_counter() - started,
    )
