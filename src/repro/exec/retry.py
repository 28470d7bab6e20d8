"""Retry policy: attempts, deterministic backoff, per-run watchdog.

The executor's unit of recovery is one :class:`~repro.exec.plan.RunSpec`
attempt.  :func:`run_with_retry` wraps :func:`~repro.exec.executor.execute_run`
with the full ladder:

1. classify the failure (:func:`classify`) into the
   :class:`~repro.exec.faults.ErrorKind` taxonomy;
2. retry ``TRANSIENT``/``POISONED`` failures up to
   :attr:`RetryPolicy.max_attempts`, sleeping a *deterministically*
   jittered exponential backoff between attempts — the jitter comes
   from a content hash of ``(spec key, attempt)``, not from a shared
   RNG, so retry schedules are reproducible and independent of plan
   order;
3. enforce the per-run watchdog (:attr:`RetryPolicy.run_timeout`): an
   attempt that comes back over budget is treated as a timeout and
   retried (its result is suspect by definition of the budget);
4. validate the result (:func:`validate_result`) so corrupted output
   is caught at the attempt boundary, not in a figure three layers up;
5. give up with a :class:`~repro.exec.faults.RunError` carrying the
   whole attempt history — the caller quarantines the spec and keeps
   the rest of the study.

Sleeping is injectable (``sleep=``) so tests can run a thousand
simulated backoffs in microseconds.
"""

from __future__ import annotations

import math
import time
import traceback as traceback_module
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from .faults import (
    ErrorKind,
    FaultAttempt,
    FaultPlan,
    InjectedCrash,
    InjectedPoison,
    ResultValidationError,
    RunError,
    RunTimeout,
    _hash01,
)
from .plan import RunSpec

if TYPE_CHECKING:  # circular at runtime: executor imports this module
    from .executor import RunOutcome


def backoff_delay(
    key: str,
    attempt: int,
    base: float = 0.02,
    factor: float = 2.0,
    cap: float = 1.0,
) -> float:
    """Deterministically jittered exponential backoff (seconds).

    The jitter multiplier lies in [0.5, 1.0) and is a pure function of
    ``(key, attempt)`` — two callers retrying the same key sleep the
    same schedule, and a re-run reproduces its backoffs exactly.
    Shared by the exec retry ladder and the shard supervisor's respawn
    schedule, so every backoff in the system obeys one discipline.
    """
    if base <= 0:
        return 0.0
    step = min(cap, base * factor**attempt)
    return step * (0.5 + 0.5 * _hash01(f"backoff:{key}:{attempt}"))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights for each run.

    ``max_attempts`` counts *total* attempts (1 disables retries).
    ``run_timeout`` is the per-run watchdog in wall seconds (``None``
    disables it).  It is checked after the attempt returns: an attempt
    that never returns is not interrupted.
    """

    max_attempts: int = 3
    run_timeout: float | None = None
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ValueError(f"run_timeout must be positive, got {self.run_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.backoff_factor < 1:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministically jittered exponential backoff (seconds).

        The jitter multiplier lies in [0.5, 1.0) and is a pure
        function of ``(key, attempt)``, so a re-run of the same study
        reproduces its backoffs exactly.
        """
        return backoff_delay(
            key, attempt, base=self.backoff_base,
            factor=self.backoff_factor, cap=self.backoff_cap,
        )


def classify(exc: BaseException) -> ErrorKind:
    """Map an exception to the retry taxonomy.

    The default is ``PERMANENT``: an unrecognized error is assumed
    deterministic (a bug in a port or config), where retrying only
    triples the time to the failure table.  Environment-shaped errors
    are listed explicitly as transient.
    """
    if isinstance(exc, (InjectedPoison, ResultValidationError)):
        return ErrorKind.POISONED
    if isinstance(exc, (InjectedCrash, RunTimeout, TimeoutError)):
        return ErrorKind.TRANSIENT
    if isinstance(exc, (MemoryError, ConnectionError, BrokenPipeError, OSError)):
        return ErrorKind.TRANSIENT
    return ErrorKind.PERMANENT


def validate_result(result: object) -> None:
    """Sanity-check a run result before it is accepted.

    Catches corrupted output (injected or real) at the attempt
    boundary: simulated times must be finite and non-negative and the
    checksum finite, or the attempt is treated as ``POISONED`` and
    retried.
    """
    seconds = getattr(result, "seconds", None)
    kernel_seconds = getattr(result, "kernel_seconds", None)
    checksum = getattr(result, "checksum", None)
    for name, value in (("seconds", seconds), ("kernel_seconds", kernel_seconds)):
        if value is None or not math.isfinite(value) or value < 0:
            raise ResultValidationError(f"result field {name}={value!r} is not a valid time")
    if checksum is None or not math.isfinite(checksum):
        raise ResultValidationError(f"result checksum {checksum!r} is not finite")


def run_with_retry(
    spec: RunSpec,
    policy: RetryPolicy,
    faults: FaultPlan | None = None,
    telemetry: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> "RunOutcome | RunError":
    """Execute one spec under the retry ladder.

    Returns the successful :class:`~repro.exec.executor.RunOutcome`
    (with ``attempts``/``retry_history`` filled in) or a
    :class:`~repro.exec.faults.RunError`.  ``KeyboardInterrupt`` is
    never swallowed — checkpoint flushing on Ctrl-C happens above.
    """
    from .executor import execute_run

    key = spec.content_key()
    history: list[FaultAttempt] = []
    attempt = 0
    while True:
        started = time.perf_counter()
        try:
            outcome = execute_run(spec, telemetry=telemetry, faults=faults, attempt=attempt)
            elapsed = time.perf_counter() - started
            if policy.run_timeout is not None and elapsed > policy.run_timeout:
                raise RunTimeout(
                    f"{spec.label}: attempt {attempt} took {elapsed:.3f} s "
                    f"(watchdog budget {policy.run_timeout:g} s)"
                )
            validate_result(outcome.result)
            if attempt == 0:
                return outcome  # a first try: its defaults already say so
            return replace(outcome, attempts=attempt + 1, retry_history=tuple(history))
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            kind = classify(exc)
            retryable = kind is not ErrorKind.PERMANENT and attempt + 1 < policy.max_attempts
            delay = policy.backoff(key, attempt) if retryable else 0.0
            history.append(
                FaultAttempt(
                    attempt=attempt,
                    kind=kind,
                    error=f"{type(exc).__name__}: {exc}",
                    backoff_seconds=delay,
                )
            )
            if not retryable:
                return RunError(
                    label=spec.label,
                    key=key,
                    kind=kind,
                    message=str(exc) or type(exc).__name__,
                    traceback=traceback_module.format_exc(),
                    attempts=tuple(history),
                )
            if delay > 0:
                sleep(delay)
            attempt += 1
