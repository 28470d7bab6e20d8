"""Checkpoint journal: completed run outcomes, content-addressed, JSONL.

A paper-scale study that dies at 95% — crash, OOM, Ctrl-C — should
not re-price 95% of its matrix.  The executor journals every
completed :class:`~repro.exec.executor.RunOutcome` to an append-only
JSONL file keyed by the spec's content digest
(:meth:`~repro.exec.plan.RunSpec.content_key`); resuming a study
against the same journal restores those outcomes and executes only
what is missing.  Because specs are content-addressed, the journal is
robust to plan edits: only cells whose content actually matches are
skipped, anything changed re-runs.

The format is one JSON object per line — a header line first, then
``{"key", "label", "outcome"}`` records where ``outcome`` is the
pickled, base64-wrapped outcome (results hold nested frozen
dataclasses; pickle round-trips them exactly, which is what the
bit-identity guarantee needs).  Each record is flushed and fsynced as
it is written, and a truncated final line — the signature of dying
mid-write — is ignored on load.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, IO

if TYPE_CHECKING:
    from .executor import RunOutcome

#: Header ``format`` value; bump on incompatible layout changes.
CHECKPOINT_FORMAT = "repro-checkpoint/3"


class CheckpointError(ValueError):
    """The file exists but is not a usable checkpoint journal."""


class CheckpointJournal:
    """Append-only journal of completed outcomes, keyed by spec content.

    Use :meth:`open` to load-or-create; :meth:`record` appends one
    outcome durably; :meth:`restore` answers the executor's "has this
    spec already run?" question.  The journal keeps outcomes for specs
    that are not in the current plan — resuming a narrowed study is
    fine — and ignores duplicate records (first write wins, matching
    the executor's dedup rule).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._outcomes: dict[str, "RunOutcome"] = {}
        self._handle: IO[str] | None = None

    # -- loading -------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "CheckpointJournal":
        """Open a journal, loading any outcomes it already holds."""
        journal = cls(path)
        if journal.path.exists() and journal.path.stat().st_size > 0:
            journal._load()
        return journal

    def _load(self) -> None:
        lines = self.path.read_text().splitlines()
        try:
            header = json.loads(lines[0])
            if header.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"{self.path}: not a checkpoint journal "
                    f"(format {header.get('format')!r}, expected {CHECKPOINT_FORMAT!r})"
                )
        except (json.JSONDecodeError, AttributeError, IndexError) as exc:
            raise CheckpointError(f"{self.path}: unreadable checkpoint header") from exc
        for line in lines[1:]:
            try:
                record = json.loads(line)
                key = record["key"]
                outcome = pickle.loads(base64.b64decode(record["outcome"]))
            except Exception:
                # A torn tail from dying mid-write: everything before
                # it is intact, so stop here and keep what we have.
                break
            self._outcomes.setdefault(key, outcome)

    # -- querying ------------------------------------------------------

    @property
    def outcomes(self) -> dict[str, "RunOutcome"]:
        return dict(self._outcomes)

    def restore(self, key: str) -> "RunOutcome | None":
        return self._outcomes.get(key)

    def __len__(self) -> int:
        return len(self._outcomes)

    def __contains__(self, key: str) -> bool:
        return key in self._outcomes

    # -- writing -------------------------------------------------------

    def _ensure_handle(self) -> IO[str]:
        if self._handle is None:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
            if fresh:
                self._handle.write(json.dumps({"format": CHECKPOINT_FORMAT}) + "\n")
                self._handle.flush()
        return self._handle

    def record(self, outcome: "RunOutcome") -> None:
        """Durably append one completed outcome (idempotent per key)."""
        key = outcome.spec.content_key()
        if key in self._outcomes:
            return
        handle = self._ensure_handle()
        payload = base64.b64encode(pickle.dumps(outcome)).decode("ascii")
        handle.write(
            json.dumps({"key": key, "label": outcome.spec.label, "outcome": payload}) + "\n"
        )
        handle.flush()
        os.fsync(handle.fileno())
        self._outcomes[key] = outcome

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
