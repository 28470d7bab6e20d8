"""Serve-layer chaos drill: seeded faults under sustained load.

``repro loadtest --chaos`` (and the CI chaos-serve smoke) run this
harness: stand up a sharded tier with a seeded
:class:`~repro.serve.faults.ServeFaultPlan` armed via the environment
(so *respawned* shards re-arm and crash loops are reachable), drive
sustained load while a checker replays known cells, then stand the
storm down and hold the tier to the self-healing invariants:

* **Zero wrong answers** — every completed (200) response during the
  storm is bit-identical to the locally computed expectation; failures
  may only surface as 5xx/429, never as silently wrong numbers.
* **Bounded error rate** — degraded routing (local pricing behind the
  breakers) keeps the completed fraction high even while shards die.
* **Convergence** — after the faults stop, every shard returns to
  ``serving`` with a closed breaker within ``settle_timeout_s``, and a
  final whole-mix ``/v1/batch`` is answered warm (zero cold misses —
  everything the storm priced survived in the shared store) and
  bit-identical.
* **Recovery actually happened** — the drill fails if the storm was
  too gentle to force at least one automatic respawn and one breaker
  cycle; a chaos test that cannot distinguish a supervisor from a
  no-op is not a test.

Everything is deterministic per ``(plan, seed)``: the fault schedule
is content-hashed per request ordinal, the respawn backoff is the
deterministic exec-ladder curve, and the expectations come from the
same pure pricing functions the shards run.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..exec.faults import RunError
from ..exec.retry import RetryPolicy, run_with_retry
from ..obs import logging as obs_logging
from . import protocol
from .faults import ENV_SERVE_FAULTS, ENV_SERVE_SEED
from .http import fetch_json, fetch_text, post_json
from .loadgen import LoadResult, count_non_2xx, run_load
from .server import ServeConfig
from .shard import RouterConfig, ShardedTier
from .supervise import SupervisionPolicy

#: The default storm: every fault kind at rates that a few seconds of
#: closed-loop load reliably turns into at least one shard death, one
#: breaker cycle, a few resets/slowdowns, and a store corruption.
DEFAULT_CHAOS_PLAN = (
    "crash:0.004,hang:0.0004,slow:0.01,reset:0.01,corrupt:0.005,slow_s:0.02"
)
DEFAULT_CHAOS_SEED = 7

#: Supervision tuned for drill timescales: sub-second detection and
#: respawn, quarantine reachable within one storm, short probation.
DRILL_POLICY = SupervisionPolicy(
    probe_interval_s=0.25,
    probe_timeout_s=1.0,
    probe_failures=2,
    backoff_base_s=0.05,
    backoff_factor=2.0,
    backoff_cap_s=0.5,
    quarantine_after=4,
    quarantine_window_s=8.0,
    quarantine_cooldown_s=2.0,
)

#: Router tuned likewise: fail over to degraded pricing in ~2 s, try
#: a recovering shard again after 1 s.
DRILL_ROUTER = RouterConfig(deadline_s=2.0, breaker_reset_s=1.0)

#: Response fields that must match the local expectation bit for bit.
_PREDICT_FIELDS = (
    "seconds", "kernel_seconds", "baseline_seconds",
    "speedup", "kernel_speedup", "key",
)


def chaos_bodies(app: str = "XSBench", scale: str = "bench") -> list[dict]:
    """The drill's query mix: one app's full model/platform/precision
    lattice (12 cells), small enough to check exhaustively."""
    from ..core.study import GPU_MODELS

    return [
        {"app": app, "model": model, "platform": platform,
         "precision": precision, "scale": scale}
        for model in GPU_MODELS
        for platform in ("apu", "dgpu")
        for precision in ("single", "double")
    ]


def expected_responses(bodies: list[dict]) -> list[dict]:
    """Price every body locally — the bit-identity oracle.

    Prices one run at a time through the retry ladder, independently
    of the executor's grouped path a shard's backend takes; results
    are pure functions of the spec, so these dicts are exactly what
    every 200 ``/v1/predict`` answer must contain.
    """
    results: dict[str, object] = {}

    def price(spec) -> object:
        key = spec.content_key()
        if key not in results:
            outcome = run_with_retry(spec, RetryPolicy(max_attempts=3))
            if isinstance(outcome, RunError):
                raise RuntimeError(
                    f"chaos oracle failed to price {spec.label}: "
                    f"{outcome.message}"
                )
            results[key] = outcome.result
        return results[key]

    expected = []
    for body in bodies:
        request = protocol.PredictRequest.from_json(body)
        baseline_spec, model_spec = request.specs()
        baseline, model = price(baseline_spec), price(model_spec)
        expected.append(protocol.predict_response(
            request,
            baseline_seconds=baseline.seconds,
            model_result=model,
            provenance={},
            key=model_spec.content_key()[:16],
        ))
    return expected


def _metric_total(text: str, name: str, label_filter: str = "") -> float:
    """Sum one counter/gauge family from a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue
        if label_filter and label_filter not in line:
            continue
        try:
            total += float(line.rsplit(None, 1)[1])
        except (ValueError, IndexError):
            continue
    return total


@dataclass
class ChaosReport:
    """Everything one chaos drill measured, plus its verdict."""

    plan: str
    seed: int
    shards: int
    store: str
    max_error_rate: float
    load: LoadResult
    checked: int = 0
    mismatches: int = 0
    checker_requests: int = 0
    status_counts: dict[str, int] = field(default_factory=dict)
    respawns: float = 0.0
    quarantines: float = 0.0
    breaker_opens: float = 0.0
    degraded: float = 0.0
    rehomed: float = 0.0
    converged: bool = False
    settle_s: float = 0.0
    final_checked: int = 0
    final_mismatches: int = 0
    cold_misses: int = -1
    mismatch_samples: list[dict] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return self.load.requests + self.checker_requests

    @property
    def errors(self) -> int:
        """Transport failures plus non-2xx responses, across the load
        generator and the checker."""
        return self.load.errors + count_non_2xx(self.status_counts)

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    @property
    def disallowed(self) -> int:
        """Responses outside the failure contract (4xx other than 429)."""
        return sum(
            count for status, count in self.status_counts.items()
            if status.startswith("4") and status != "429"
        )

    def failures(self) -> list[str]:
        """The violated invariants (empty means the drill passed)."""
        problems = []
        if self.mismatches:
            problems.append(
                f"{self.mismatches} storm responses differed from the "
                "local expectation (wrong answers)"
            )
        if self.final_mismatches:
            problems.append(
                f"{self.final_mismatches} post-recovery cells differed "
                "from the local expectation"
            )
        if self.disallowed:
            problems.append(
                f"{self.disallowed} responses outside the 5xx/429 "
                "failure contract"
            )
        if self.error_rate > self.max_error_rate:
            problems.append(
                f"error rate {self.error_rate:.4f} exceeds "
                f"{self.max_error_rate:.4f}"
            )
        if not self.converged:
            problems.append(
                "tier did not converge to all-shards-serving with "
                "closed breakers"
            )
        if self.cold_misses != 0:
            problems.append(
                f"post-recovery sweep had {self.cold_misses} cold misses "
                "(expected 0: the store survived the storm)"
            )
        if self.respawns < 1:
            problems.append("storm forced no automatic respawn")
        if self.breaker_opens < 1:
            problems.append("storm opened no circuit breaker")
        return problems

    @property
    def ok(self) -> bool:
        return not self.failures()

    def row(self) -> dict:
        """The drill's counters as one flat record (logged on completion)."""
        return {
            "plan": self.plan,
            "seed": self.seed,
            "shards": self.shards,
            "requests": self.requests,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 5),
            "throughput_rps": self.load.throughput_rps,
            "checked": self.checked,
            "mismatches": self.mismatches,
            "respawns": self.respawns,
            "quarantines": self.quarantines,
            "breaker_opens": self.breaker_opens,
            "degraded": self.degraded,
            "rehomed": self.rehomed,
            "converged": 1 if self.converged else 0,
            "settle_s": round(self.settle_s, 3),
            "cold_misses": self.cold_misses,
            "final_mismatches": self.final_mismatches,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL: " + "; ".join(self.failures())
        return "\n".join([
            f"chaos plan: {self.plan} (seed {self.seed}, "
            f"{self.shards} shards)",
            f"storm: {self.requests} requests, {self.errors} errors "
            f"({self.error_rate:.2%}), {self.checked} checked, "
            f"{self.mismatches} mismatches",
            f"recovery: {self.respawns:g} respawns, "
            f"{self.quarantines:g} quarantines, "
            f"{self.breaker_opens:g} breaker opens, "
            f"{self.degraded:g} degraded serves, "
            f"{self.rehomed:g} re-homes",
            f"convergence: {'yes' if self.converged else 'NO'} in "
            f"{self.settle_s:.2f} s; final sweep {self.final_checked} "
            f"cells, {self.cold_misses} cold misses, "
            f"{self.final_mismatches} mismatches",
            verdict,
        ])


def _matches(doc: dict, expected: dict) -> bool:
    return all(doc.get(name) == expected[name] for name in _PREDICT_FIELDS)


async def _checker(
    url: str,
    bodies: list[dict],
    expected: list[dict],
    duration_s: float,
    report: ChaosReport,
    log,
) -> None:
    """Replay known cells against the router for the storm's duration,
    holding every completed answer to the local expectation."""
    deadline = time.perf_counter() + duration_s
    i = 0
    while time.perf_counter() < deadline:
        index = i % len(bodies)
        i += 1
        try:
            status, doc = await post_json(url, "/v1/predict", bodies[index])
        except (OSError, asyncio.IncompleteReadError, ValueError):
            status, doc = 0, None
        report.checker_requests += 1
        report.status_counts[str(status)] = (
            report.status_counts.get(str(status), 0) + 1
        )
        if status != 200 or not isinstance(doc, dict):
            continue
        report.checked += 1
        if not _matches(doc, expected[index]):
            report.mismatches += 1
            if len(report.mismatch_samples) < 5:
                sample = {
                    "body": bodies[index],
                    "got": {k: doc.get(k) for k in _PREDICT_FIELDS},
                    "want": {k: expected[index][k] for k in _PREDICT_FIELDS},
                }
                report.mismatch_samples.append(sample)
                log.warning("chaos-mismatch", **sample)


async def _settle(
    url: str, bodies: list[dict], timeout_s: float
) -> tuple[bool, float]:
    """Stand the storm down and wait for all-shards-healthy.

    Broadcasts the disarm to surviving shards (crashed ones boot clean
    because the environment was already disarmed), then drives light
    probe traffic — breakers only close by observing a success — until
    ``/v1/shards`` shows every member serving with a closed breaker.
    """
    started = time.monotonic()
    try:
        await post_json(url, "/v1/admin/chaos", {"plan": None})
    except (OSError, asyncio.IncompleteReadError, ValueError):
        pass
    i = 0
    while time.monotonic() - started < timeout_s:
        try:
            await post_json(url, "/v1/predict", bodies[i % len(bodies)])
        except (OSError, asyncio.IncompleteReadError, ValueError):
            pass
        i += 1
        try:
            listing = await fetch_json(url, "/v1/shards")
        except (OSError, RuntimeError, ValueError):
            await asyncio.sleep(0.2)
            continue
        shards = listing.get("shards", [])
        healthy = bool(shards) and all(
            member.get("alive", False)
            and member.get("state", "serving") == "serving"
            and member.get("breaker", {}).get("state", "closed") == "closed"
            for member in shards
        )
        if healthy:
            return True, time.monotonic() - started
        await asyncio.sleep(0.2)
    return False, time.monotonic() - started


async def _final_sweep(
    url: str, bodies: list[dict], expected: list[dict], report: ChaosReport
) -> None:
    """One warm whole-mix batch after recovery: bit-identical, zero
    cold misses (``computed``/``degraded`` both count as cold)."""
    status, doc = await post_json(url, "/v1/batch", {"cells": bodies})
    if status != 200 or not isinstance(doc, dict):
        report.cold_misses = -1
        return
    served = doc.get("served", {})
    report.cold_misses = served.get("computed", 0) + served.get("degraded", 0)
    for result, want in zip(doc.get("results", []), expected):
        report.final_checked += 1
        matched = (
            result.get("seconds") == want["seconds"]
            and result.get("kernel_seconds") == want["kernel_seconds"]
            and result.get("key") == want["key"]
        )
        if not matched:
            report.final_mismatches += 1


def run_chaos_drill(
    shards: int = 2,
    duration_s: float = 8.0,
    concurrency: int = 4,
    plan: str = DEFAULT_CHAOS_PLAN,
    seed: int = DEFAULT_CHAOS_SEED,
    store: str | None = None,
    settle_timeout_s: float = 60.0,
    max_error_rate: float = 0.01,
    max_queue: int = 256,
    policy: SupervisionPolicy | None = None,
    router: RouterConfig | None = None,
    echo=None,
) -> ChaosReport:
    """Run one full drill; blocking (boots and tears down a tier).

    Without ``store`` the drill uses a temporary store and removes it
    when the tier is down.
    """
    log = obs_logging.get_logger("chaos")
    say = echo if echo is not None else (lambda *_: None)
    owned = None if store else tempfile.TemporaryDirectory(prefix="repro-chaos-store-")
    store = store or owned.name
    bodies = chaos_bodies()
    say(f"pricing the {len(bodies)}-cell oracle locally ...")
    expected = expected_responses(bodies)

    tier = ShardedTier(
        ServeConfig(max_queue=max_queue, store_path=store, warm="load"),
        shards=shards,
        router=router if router is not None else DRILL_ROUTER,
        policy=policy if policy is not None else DRILL_POLICY,
    )

    os.environ[ENV_SERVE_FAULTS] = plan
    os.environ[ENV_SERVE_SEED] = str(seed)
    try:
        say(f"starting {shards}-shard tier (store {store}) with "
            f"faults armed: {plan} (seed {seed})")
        with owned or nullcontext(), tier:
            report = ChaosReport(
                plan=plan, seed=seed, shards=shards, store=store,
                max_error_rate=max_error_rate,
                load=LoadResult(mode="closed", duration_s=0.0,
                                concurrency=concurrency, rate=None),
            )
            url = tier.url
            say(f"storm: {duration_s:g} s of closed-loop load "
                f"(concurrency {concurrency}) + bit-identity checker")

            async def storm() -> LoadResult:
                load_coro = run_load(
                    url, bodies, mode="closed", concurrency=concurrency,
                    duration_s=duration_s, warmup=False,
                )
                load, _ = await asyncio.gather(
                    load_coro,
                    _checker(url, bodies, expected, duration_s, report, log),
                )
                return load

            report.load = asyncio.run(storm())
            for status, count in report.load.status_counts.items():
                report.status_counts[status] = (
                    report.status_counts.get(status, 0) + count
                )

            # Disarm *before* the settle: respawns from here boot clean.
            os.environ.pop(ENV_SERVE_FAULTS, None)
            os.environ.pop(ENV_SERVE_SEED, None)
            say("storm over; disarming and waiting for convergence ...")
            report.converged, report.settle_s = asyncio.run(
                _settle(url, bodies, settle_timeout_s)
            )
            asyncio.run(_final_sweep(url, bodies, expected, report))

            metrics_text = asyncio.run(fetch_text(url, "/metrics"))
            report.respawns = _metric_total(
                metrics_text, "repro_shard_respawns_total"
            )
            report.quarantines = _metric_total(
                metrics_text, "repro_shard_quarantines_total"
            )
            report.breaker_opens = _metric_total(
                metrics_text, "repro_router_breaker_transitions_total",
                label_filter='to="open"',
            )
            report.degraded = _metric_total(
                metrics_text, "repro_router_degraded_total"
            )
            report.rehomed = _metric_total(
                metrics_text, "repro_router_rehomed_total"
            )
    finally:
        os.environ.pop(ENV_SERVE_FAULTS, None)
        os.environ.pop(ENV_SERVE_SEED, None)
    log.info("chaos-drill-done", ok=report.ok, **report.row())
    return report
