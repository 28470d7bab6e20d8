"""Seeded, deterministic fault injection for the serve tier.

The offline executor rehearses run failure through
:mod:`repro.exec.faults`; this module is the online counterpart.  A
:class:`ServeFaultPlan` arms a shard process with a seeded schedule of
service-level faults, drawn per admitted prediction request from a
content hash of ``(seed, kind, shard, ordinal)`` — no RNG state, so
the same seed injects the same fault at the same request ordinal on
every run.  The chaos drill (:mod:`repro.serve.chaos`) relies on this:
it can assert recovery properties of a *specific* storm, not a lucky
one.

Injectable kinds, and the failure each rehearses:

* ``crash``   — the shard process hard-exits mid-request (an OOM kill,
  a segfault): the supervisor must notice and respawn, the router's
  in-flight calls fail and trip the breaker.
* ``hang``    — the shard stops answering *everything*, ``/healthz``
  included (an event loop wedged on a lock): liveness probing must
  catch what process ``poll()`` cannot.
* ``slow``    — one response is delayed by ``slow_s`` (GC pause, CPU
  contention): latency tails, no errors.
* ``reset``   — the connection is closed without a response (kernel
  RST, LB idle reap): the router's pooled-connection retry path.
* ``corrupt`` — the requested cell's persistent store entry is
  scribbled over and its in-memory copy evicted, forcing the read path
  to detect the damage (sha256), treat it as a miss, recompute, and
  repair the file — the torn-write tolerance, exercised end to end.

Plans arm a process via ``REPRO_SERVE_INJECT_FAULTS`` /
``REPRO_SERVE_FAULT_SEED`` (inherited by spawned shard processes, so a
respawned shard re-arms — that is how a crash *loop* is rehearsed) or
at runtime through ``POST /v1/admin/chaos``.  The pseudo-key
``shard:N`` confines a plan to one shard id; ``slow_s``, ``limit``
and ``seed`` tune the rest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar

from ..exec.faults import SeededFaultPlan

#: Injectable serve-layer fault kinds, in draw order (one request
#: suffers at most one fault; earlier kinds win ties).
SERVE_FAULT_KINDS = ("crash", "hang", "slow", "reset", "corrupt")

#: How long an injected ``hang`` wedges a shard — far past any probe or
#: call deadline, short enough that a wedged test suite still terminates.
HANG_SECONDS = 3600.0

ENV_SERVE_FAULTS = "REPRO_SERVE_INJECT_FAULTS"
ENV_SERVE_SEED = "REPRO_SERVE_FAULT_SEED"


@dataclass(frozen=True)
class ServeFaultPlan(SeededFaultPlan):
    """Seeded per-request fault draws for one serve process.

    ``rates`` maps fault kind -> probability per admitted prediction
    request.  ``only_shard`` (pseudo-key ``shard``) confines injection
    to one shard id; ``limit`` caps total injections per process so a
    drill's storm is bounded by construction.
    """

    KINDS: ClassVar[tuple[str, ...]] = SERVE_FAULT_KINDS
    LABEL: ClassVar[str] = "serve fault"
    OPTIONS: ClassVar[dict[str, tuple[str, type]]] = {
        "slow_s": ("slow_s", float),
        "limit": ("limit", int),
        "shard": ("only_shard", int),
    }
    ENV_FAULTS: ClassVar[str] = ENV_SERVE_FAULTS
    ENV_SEED: ClassVar[str] = ENV_SERVE_SEED

    slow_s: float = 0.05
    limit: int = 1_000_000
    only_shard: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s}")
        if self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")
        if self.limit == 0:
            object.__setattr__(self, "active", False)

    def applies_to(self, shard: int | None) -> bool:
        return self.only_shard is None or self.only_shard == shard

    def draw(self, shard: int | None, ordinal: int) -> str | None:
        """The fault (if any) for one request: the ``ordinal``-th
        admitted prediction request of shard ``shard``'s process.

        A pure function of ``(seed, kind, shard, ordinal)`` — the draw
        schedule is identical on every run with the same seed.  (The
        *interleaving* of concurrent requests is still the OS's; what
        is deterministic is which arrival ordinals are doomed.)
        """
        if not self.applies_to(shard):
            return None
        key = f"{shard}:{ordinal}"
        for kind in SERVE_FAULT_KINDS:
            if self.drawn(kind, key):
                return kind
        return None


#: ``crash:0.002,reset:0.01[,slow_s:0.05][,limit:N][,shard:0][,seed:N]``
#: -> :class:`ServeFaultPlan`.
parse_serve_fault_plan = ServeFaultPlan.parse

#: The plan armed by ``REPRO_SERVE_INJECT_FAULTS`` /
#: ``REPRO_SERVE_FAULT_SEED``.  Shard processes inherit the parent's
#: environment at spawn time, so an armed tier re-arms every
#: *respawned* shard too — which is what lets the drill rehearse a
#: crash loop rather than a single crash.
serve_fault_plan_from_env = ServeFaultPlan.from_env


class ServeChaos:
    """Per-process injection state: the ordinal counter and tally.

    One instance lives on each :class:`~repro.serve.server.Server`.
    ``next_fault()`` advances the process-local request ordinal and
    returns the drawn fault kind (or ``None``); the *server* performs
    the fault.  Thread-safe, so admin swaps and the event loop can
    race without losing ordinals.
    """

    def __init__(
        self, plan: ServeFaultPlan | None, shard: int | None = None
    ) -> None:
        self.plan = plan if plan is not None else ServeFaultPlan()
        self.shard = shard
        self._lock = threading.Lock()
        self._ordinal = 0
        self._injected: dict[str, int] = {}

    @property
    def armed(self) -> bool:
        return self.plan.active and self.plan.applies_to(self.shard)

    @property
    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._injected)

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def next_fault(self) -> str | None:
        """Draw for the next admitted prediction request."""
        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
            if not self.plan.active:
                return None
            if sum(self._injected.values()) >= self.plan.limit:
                return None
            kind = self.plan.draw(self.shard, ordinal)
            if kind is not None:
                self._injected[kind] = self._injected.get(kind, 0) + 1
            return kind

    def to_json(self) -> dict:
        return {
            "plan": self.plan.spec_string() or None,
            "seed": self.plan.seed,
            "armed": self.armed,
            "ordinal": self._ordinal,
            "injected": self.counts,
        }
