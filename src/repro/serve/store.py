"""Disk-backed content-addressed result store shared across processes.

The serve tier's in-memory :data:`~repro.engine.memo.RESULT_CACHE`
dies with its process: every restart re-prices the whole working set,
and N shard processes each pay their own cold start.  This module
makes run results *durable and shared*:

* :class:`ResultStore` — one file per result under
  ``<root>/objects/<k[:2]>/<key>.json``, where ``key`` is the spec's
  content digest (:meth:`~repro.exec.plan.RunSpec.content_key`).  The
  value is the pickled :class:`~repro.apps.base.RunResult` — pickle
  round-trips the nested frozen dataclasses exactly, which is what the
  bit-identity guarantee needs (the same discipline as the checkpoint
  journal of :mod:`repro.exec.checkpoint`).
* **Atomic, durable writes** — each entry is written to a temp file in
  the same directory, flushed, fsynced, then :func:`os.replace`'d into
  place, so readers only ever see whole entries and a crash mid-write
  leaves at worst an ignorable temp file.
* **Torn/corrupt tolerance on read** — every entry carries a sha256 of
  its payload; a truncated, garbled, or wrong-format file reads as a
  miss (and is unlinked best-effort), never as an exception or a wrong
  answer.
* **Cross-process single-flight** — :meth:`ResultStore.fetch_or_compute`
  elects one leader per key across *processes* via an ``O_EXCL`` lock
  file; followers poll for the leader's result instead of recomputing,
  so N shards warming the same lattice price each spec once.  Stale
  locks (a leader that died) are broken after ``lock_stale_s``.

:class:`PersistentResultCache` stacks the store under the in-memory
:class:`~repro.engine.memo.SingleFlightCache`: memory first, then
disk (loading hits into memory), then compute-and-persist.  A restart
therefore serves its first request from disk — zero cold misses.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from ..engine.memo import SingleFlightCache
from ..obs import tracing

if TYPE_CHECKING:
    from ..apps.base import RunResult

T = TypeVar("T")

#: Entry ``format`` value; bump on incompatible layout changes.
STORE_FORMAT = "repro-result-store/2"

#: Provenance label for results served from the persistent store.
STORED = "store"


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store at one point in time."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    lock_waits: int = 0

    def since(self, earlier: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            writes=self.writes - earlier.writes,
            corrupt=self.corrupt - earlier.corrupt,
            lock_waits=self.lock_waits - earlier.lock_waits,
        )


class ResultStore:
    """Content-addressed run results on disk, safe for N processes.

    Keys are hex content digests (file-name safe by construction).
    All methods are thread-safe; cross-process safety comes from
    atomic replaces (readers) and ``O_EXCL`` lock files (writers who
    want single-flight).
    """

    def __init__(
        self,
        root: str | Path,
        lock_timeout_s: float = 60.0,
        lock_stale_s: float = 120.0,
    ) -> None:
        self.root = Path(root)
        self.lock_timeout_s = lock_timeout_s
        self.lock_stale_s = lock_stale_s
        self._objects = self.root / "objects"
        self._locks = self.root / "locks"
        self._mutex = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._lock_waits = 0

    # -- layout --------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    def _lock_path(self, key: str) -> Path:
        return self._locks / f"{key}.lock"

    def keys(self) -> Iterator[str]:
        """Every key currently resident (a directory scan)."""
        if not self._objects.is_dir():
            return
        for bucket in sorted(self._objects.iterdir()):
            if not bucket.is_dir():
                continue
            for entry in sorted(bucket.iterdir()):
                if entry.suffix == ".json":
                    yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    # -- reading -------------------------------------------------------

    def get(self, key: str) -> "RunResult | None":
        """The stored result for ``key``, or ``None``.

        Any defect — missing file, truncated JSON, format or key
        mismatch, checksum failure, unpicklable payload — reads as a
        miss; a defective file is additionally unlinked (best-effort)
        so the next write repairs it.
        """
        path = self.path_for(key)
        started = time.perf_counter()
        try:
            raw = path.read_bytes()
        except OSError:
            with self._mutex:
                self._misses += 1
            return None
        value = self._decode(key, raw)
        with self._mutex:
            if value is None:
                self._corrupt += 1
                self._misses += 1
            else:
                self._hits += 1
        if value is None:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        ctx = tracing.current()
        if ctx is not None:
            tracing.TRACER.record(
                "store_read", started, time.perf_counter(),
                parent=ctx, attrs={"key": key[:16]},
            )
        return value

    @staticmethod
    def _decode(key: str, raw: bytes) -> "RunResult | None":
        import pickle

        try:
            doc = json.loads(raw.decode())
            if doc.get("format") != STORE_FORMAT or doc.get("key") != key:
                return None
            payload = base64.b64decode(doc["payload"])
            if hashlib.sha256(payload).hexdigest() != doc["sha256"]:
                return None
            return pickle.loads(payload)
        except Exception:
            return None

    # -- writing -------------------------------------------------------

    def put(self, key: str, result: "RunResult", label: str = "") -> bool:
        """Durably store one result; ``False`` if the key already held
        a valid entry (first write wins, like the checkpoint journal)."""
        import pickle

        path = self.path_for(key)
        started = time.perf_counter()
        if path.exists() and self._decode(key, self._read_quiet(path)) is not None:
            return False
        payload = pickle.dumps(result)
        doc = {
            "format": STORE_FORMAT,
            "key": key,
            "label": label,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii"),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        with tmp.open("w") as handle:
            json.dump(doc, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        with self._mutex:
            self._writes += 1
        ctx = tracing.current()
        if ctx is not None:
            tracing.TRACER.record(
                "store_write", started, time.perf_counter(),
                parent=ctx, attrs={"key": key[:16]},
            )
        return True

    @staticmethod
    def _read_quiet(path: Path) -> bytes:
        try:
            return path.read_bytes()
        except OSError:
            return b""

    # -- cross-process single-flight -----------------------------------

    def _try_lock(self, key: str) -> bool:
        self._locks.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self._lock_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, f"{os.getpid()} {time.time()}\n".encode())
        finally:
            os.close(fd)
        return True

    def _unlock(self, key: str) -> None:
        try:
            self._lock_path(key).unlink()
        except OSError:
            pass

    def _lock_is_stale(self, key: str) -> bool:
        try:
            age = time.time() - self._lock_path(key).stat().st_mtime
        except OSError:
            return False  # lock vanished: the leader finished
        return age > self.lock_stale_s

    def fetch_or_compute(
        self, key: str, compute: Callable[[], "RunResult"], label: str = ""
    ) -> tuple["RunResult", str]:
        """Return ``(result, source)`` computing at most once across
        all processes sharing this store.

        ``source`` is ``"store"`` for a disk hit or ``"computed"``
        when this process was the leader.  A follower that waits past
        ``lock_timeout_s`` computes anyway — progress beats strict
        dedup when a leader hangs.
        """
        value = self.get(key)
        if value is not None:
            return value, STORED
        deadline = time.monotonic() + self.lock_timeout_s
        while True:
            if self._try_lock(key):
                try:
                    # The winner re-checks: another process may have
                    # published between our miss and our lock.
                    value = self.get(key)
                    if value is not None:
                        return value, STORED
                    value = compute()
                    self.put(key, value, label=label)
                    return value, "computed"
                finally:
                    self._unlock(key)
            with self._mutex:
                self._lock_waits += 1
            while time.monotonic() < deadline:
                time.sleep(0.005)
                value = self.get(key)
                if value is not None:
                    return value, STORED
                if not self._lock_path(key).exists():
                    break  # leader released without publishing: re-elect
                if self._lock_is_stale(key):
                    self._unlock(key)  # break a dead leader's lock
                    break
            else:
                # Timed out: compute without the lock rather than hang.
                value = compute()
                self.put(key, value, label=label)
                return value, "computed"

    # -- accounting ----------------------------------------------------

    def snapshot(self) -> StoreStats:
        with self._mutex:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                lock_waits=self._lock_waits,
            )


class PersistentResultCache(SingleFlightCache):
    """The in-memory single-flight result memo backed by a
    :class:`ResultStore`.

    Lookup tiers: process memory, then disk (a hit is seeded into
    memory for next time), then compute — in-process single-flight via
    the base class, cross-process via the store's lock files.  Every
    computed value is persisted before it is returned, so anything this
    process ever served survives its restart.
    """

    def __init__(self, store: ResultStore, enabled: bool = True) -> None:
        super().__init__(enabled)
        self.store = store

    def peek_tiered(self, key: str) -> tuple[object | None, str | None]:
        """Non-computing lookup across both tiers: ``(value, source)``
        with source ``"memory"``, ``"store"``, or ``(None, None)``."""
        found, value = self.peek(key)
        if found:
            return value, "memory"
        value = self.store.get(key)
        if value is not None:
            self.seed(key, value)
            return value, STORED
        return None, None

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        return super().get_or_compute(
            key, lambda: self.store.fetch_or_compute(key, compute)[0]
        )
