"""Error taxonomy and deterministic fault injection for study runs.

A paper-scale study is hundreds of independent simulations; at that
scale *something* eventually goes wrong — a run crashes, overruns its
watchdog, or returns a mangled result.  This module gives the
executor a vocabulary for those events and a way to rehearse them:

* :class:`ErrorKind` / :class:`RunError` — the classification the
  retry layer (:mod:`repro.exec.retry`) acts on.  ``TRANSIENT`` errors
  are retried with backoff, ``PERMANENT`` errors fail fast, and
  ``POISONED`` runs (bad output) are quarantined so one bad cell
  cannot abort the study.
* :class:`FaultPlan` — a seeded chaos harness.  Faults are drawn per
  run from a content-addressed hash of ``(seed, kind, spec key)``, so
  an injection campaign is reproducible bit-for-bit: same seed, same
  faults, on every machine.  Injected faults fire on
  the first :attr:`FaultPlan.attempts` attempts of a drawn spec and
  then stand down, which is what makes the core invariant testable —
  a study under transient injection must produce results bit-identical
  to a fault-free run.

The ``kind:rate`` grammar, environment arming and hash draw live once,
in :class:`SeededFaultPlan`, which the serve tier's plan
(:class:`repro.serve.faults.ServeFaultPlan`) subclasses too.  Plans
come from the CLI (``--inject-faults crash:0.2,timeout:0.1``) or
the ``REPRO_INJECT_FAULTS`` / ``REPRO_FAULT_SEED`` environment
variables (which reach entry points that do not take a plan).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Mapping


class ErrorKind(str, Enum):
    """What a run failure means for the rest of the study."""

    #: Environment-induced and worth retrying: a crashed attempt or a
    #: watchdog timeout.
    TRANSIENT = "transient"
    #: Deterministic — the same spec will fail the same way again, so
    #: retrying only wastes the budget.  Fails fast.
    PERMANENT = "permanent"
    #: The run produced output that fails validation.  Retried
    #: cautiously, then quarantined.
    POISONED = "poisoned"


class RunTimeout(TimeoutError):
    """A run exceeded the per-run watchdog budget."""


class ResultValidationError(RuntimeError):
    """A run completed but its result fails sanity validation."""


class InjectedFault(RuntimeError):
    """Base class for faults raised by a :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """Injected transient crash (a run dying mid-attempt)."""


class InjectedPoison(InjectedFault):
    """Injected permanent failure (a run that can never succeed)."""


@dataclass(frozen=True)
class FaultAttempt:
    """One failed attempt in a run's retry history."""

    attempt: int
    kind: ErrorKind
    error: str
    backoff_seconds: float = 0.0


@dataclass(frozen=True)
class RunError:
    """A run that exhausted its attempts, with its full history.

    Carried in ``ExecStats.failures`` (and the ``failures`` field of
    study/sweep results) instead of being raised: the study keeps its
    completed work and reports what it lost.
    """

    label: str
    key: str
    kind: ErrorKind
    message: str
    traceback: str = ""
    attempts: tuple[FaultAttempt, ...] = ()

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def summary_row(self) -> tuple[str, str, str, str]:
        """(label, kind, attempts, message) for the CLI failure table."""
        return (self.label, self.kind.value, str(self.n_attempts), self.message)


#: Injectable fault kinds and what each rehearses:
#:
#: ``crash``     — the attempt raises (a segfault/OOM-kill seen from
#:                 inside); transient, retried.
#: ``timeout``   — the attempt trips the watchdog; transient, retried.
#: ``corrupt``   — the attempt returns a result with a non-finite
#:                 checksum; caught by validation, retried.
#: ``poison``    — every attempt raises a poisoned-output error; the
#:                 spec exhausts its retry budget and is quarantined.
#: ``interrupt`` — the attempt raises ``KeyboardInterrupt``; exercises
#:                 the Ctrl-C checkpoint-flush path deterministically.
FAULT_KINDS = ("crash", "timeout", "corrupt", "poison", "interrupt")

ENV_FAULTS = "REPRO_INJECT_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"


def _hash01(token: str) -> float:
    """Map a token to [0, 1) through a stable content hash.

    ``hashlib`` rather than ``hash()``: Python string hashing is
    salted per process, and fault draws must agree across processes
    (serve shards and their respawns) and across runs.
    """
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class SeededFaultPlan:
    """The ``kind:rate`` grammar and seeded draw every fault plan shares.

    ``rates`` maps fault kind -> draw probability (a sorted tuple of
    pairs, so plans are hashable, picklable into shard processes and
    round-trippable).  A subclass names its injectable :attr:`KINDS`,
    the :attr:`LABEL` its errors carry, its environment variables, and
    the pseudo-keys (:attr:`OPTIONS`: token -> field name and type)
    that set its extra fields; ``seed`` is a pseudo-key of every plan.
    Draws hash ``f"{seed}:{kind}:{key}"``, so no RNG state is involved.
    """

    KINDS: ClassVar[tuple[str, ...]] = ()
    LABEL: ClassVar[str] = "fault"
    OPTIONS: ClassVar[dict[str, tuple[str, type]]] = {}
    ENV_FAULTS: ClassVar[str] = ""
    ENV_SEED: ClassVar[str] = ""

    seed: int = 0
    rates: tuple[tuple[str, float], ...] = ()
    #: Whether any kind can be drawn; computed once, because a server
    #: checks it on every request.
    active: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for kind, rate in self.rates:
            if kind not in self.KINDS:
                raise ValueError(
                    f"unknown {self.LABEL} kind {kind!r}: known kinds are "
                    f"{', '.join(self.KINDS)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate for {kind!r} must be in [0, 1], got {rate}")
        object.__setattr__(self, "active", any(rate > 0 for _, rate in self.rates))

    def rate(self, kind: str) -> float:
        return dict(self.rates).get(kind, 0.0)

    def drawn(self, kind: str, key: str) -> bool:
        """Whether ``kind`` is drawn for the draw key ``key`` (a run
        spec's content key, or a serve request's shard and ordinal)."""
        rate = self.rate(kind)
        return rate > 0.0 and _hash01(f"{self.seed}:{kind}:{key}") < rate

    def spec_string(self) -> str:
        """Round-trippable ``kind:rate,...`` form (see :meth:`parse`)."""
        parts = [f"{kind}:{rate:g}" for kind, rate in self.rates]
        fields = self.__dataclass_fields__
        for token, (name, convert) in self.OPTIONS.items():
            value = getattr(self, name)
            if value != fields[name].default:
                parts.append(f"{token}:{value:g}" if convert is float else f"{token}:{value}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str, seed: int = 0):
        """Parse ``kind:rate,...`` tokens, plus ``seed:N`` and the
        subclass's pseudo-keys, into a plan."""
        rates: dict[str, float] = {}
        options: dict[str, object] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition(":")
            name = name.strip()
            if not sep:
                raise ValueError(
                    f"malformed {cls.LABEL} token {token!r}: expected kind:rate"
                )
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"malformed {cls.LABEL} rate in {token!r}") from None
            if name == "seed":
                seed = int(number)
            elif name in cls.OPTIONS:
                field_name, convert = cls.OPTIONS[name]
                options[field_name] = convert(number)
            else:
                rates[name] = number
        return cls(seed=seed, rates=tuple(sorted(rates.items())), **options)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ):
        """The ambient plan, if chaos was requested via the environment."""
        spec = environ.get(cls.ENV_FAULTS)
        if not spec:
            return None
        return cls.parse(spec, seed=int(environ.get(cls.ENV_SEED, "0")))


@dataclass(frozen=True)
class FaultPlan(SeededFaultPlan):
    """Seeded, per-spec fault injections (reproducible chaos).

    A kind is drawn per run spec, keyed on the spec's content key.  A
    drawn fault fires on the first ``attempts`` attempts of that spec
    and then stands down, so a retry budget larger than ``attempts``
    always recovers; raise ``attempts`` past the retry budget to
    rehearse quarantine instead.
    """

    KINDS: ClassVar[tuple[str, ...]] = FAULT_KINDS
    OPTIONS: ClassVar[dict[str, tuple[str, type]]] = {"attempts": ("attempts", int)}
    ENV_FAULTS: ClassVar[str] = ENV_FAULTS
    ENV_SEED: ClassVar[str] = ENV_SEED

    attempts: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def injects(self, kind: str, key: str, attempt: int) -> bool:
        """Whether ``kind`` fires on this attempt of this spec."""
        return attempt < self.attempts and self.drawn(kind, key)

    def faults_for(self, key: str) -> tuple[str, ...]:
        """All fault kinds drawn for one spec, in canonical order."""
        return tuple(kind for kind in FAULT_KINDS if self.drawn(kind, key))

    def apply(self, key: str, label: str, attempt: int) -> None:
        """Raise for every process fault drawn on this attempt.

        Result corruption is not raised here — it mangles the produced
        outcome instead; the executor asks :meth:`injects` for
        ``"corrupt"`` after the run.
        """
        # Poison fires on *every* attempt: it rehearses a run that can
        # never succeed, so standing down after ``attempts`` would just
        # let the retry ladder paper over it.
        if self.drawn("poison", key):
            raise InjectedPoison(f"injected permanent failure: {label}")
        if self.injects("interrupt", key, attempt):
            raise KeyboardInterrupt(f"injected interrupt: {label}")
        if self.injects("crash", key, attempt):
            raise InjectedCrash(f"injected crash: {label} (attempt {attempt})")
        if self.injects("timeout", key, attempt):
            raise RunTimeout(f"injected timeout: {label} (attempt {attempt})")


#: ``crash:0.2,timeout:0.1[,attempts:2][,seed:N]`` -> :class:`FaultPlan`.
parse_fault_plan = FaultPlan.parse

#: The plan armed by ``REPRO_INJECT_FAULTS`` / ``REPRO_FAULT_SEED``;
#: this is how an injection campaign reaches entry points that do not
#: thread a plan through explicitly.
fault_plan_from_env = FaultPlan.from_env
