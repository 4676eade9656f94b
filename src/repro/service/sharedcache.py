"""The one durable verdict store: a sqlite file plus a journal.

Every persisted verdict — a ``repro batch`` run's, the solve daemon's,
a warm-started corpus entry's — lives in one :class:`SharedCache` file
(``cache.sqlite`` in the run directory).  Two kinds of row share it: a
*task row* under a task's content key (what the batch resumes and the
daemon's journal points at) and a *query record* under a query's
content key (the :class:`repro.engine.cache.ResultCache` backend,
reused only through its soundness gating).  The rows keep these
disciplines:

* **Checksummed rows** — every row carries the SHA-256 of its payload's
  canonical JSON; a row is only believed after re-verification at read
  time, so bit rot, torn writes that somehow survived sqlite's
  journaling, or hand-edited rows can never flow onward as a verdict.
* **Corruption quarantine** — a row that fails verification is moved to
  a ``quarantine`` table (with the failure reason, for the post-mortem)
  and reported as a miss, so it is recomputed and **never trusted**.
* **Semantics stamp** — every row records the
  :data:`SEMANTICS_VERSION` of the code that wrote it.  A row with any
  other stamp (or none: files written before stamping existed) is
  *stale*: a counted miss, neither served nor quarantined, and
  overwritten when the verdict is recomputed.
* **Single-writer locking** — writes run under ``BEGIN IMMEDIATE`` so
  sqlite's own locking serializes concurrent writers; in-process access
  is additionally serialized by a lock so the daemon's executor threads
  and event loop cannot interleave half-written state.
* **Crash safety** — WAL journaling with ``synchronous=FULL``: a
  ``kill -9`` mid-write leaves either the old row or the new row,
  never a torn one.

**Journal** — a :class:`Journal` is an fsync'd JSONL event log beside
the rows.  A ``verdict`` line is written only after its task row, so it
marks "this task's verdict is safely stored".  Replay is tolerant by
construction: a line that does not parse (the torn tail a ``kill -9``
leaves behind) is skipped and counted, and every journaled row is
re-read through the checksum and stamp checks before it is believed,
so a lying journal line can at worst cause recomputation, never a
wrong verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..runtime import faults
from .protocol import canonical_json

__all__ = ["SEMANTICS_VERSION", "Journal", "SharedCache", "payload_digest"]

#: Stamp of the code that decides verdicts.  Bump it whenever a change
#: can alter a verdict or the content of a result, so no row written
#: by the old code is ever served; ``tests/test_semantics_fingerprint.py``
#: fails until a change to the verdict-relevant sources bumps it.
#: 2: the exact (Myhill–Nerode) tree-automaton minimizer; 3: the
#: compiler's shape memo with rename-served track families; version-1
#: rows carry no stamp at all.
SEMANTICS_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    sha256 TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_s REAL NOT NULL,
    semantics INTEGER
);
CREATE TABLE IF NOT EXISTS quarantine (
    key TEXT NOT NULL,
    sha256 TEXT,
    payload TEXT,
    reason TEXT NOT NULL,
    quarantined_s REAL NOT NULL
);
"""


def payload_digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class SharedCache:
    """Checksummed, stamped, quarantining, crash-safe sqlite
    key→payload store."""

    def __init__(self, path: Path, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=timeout_s,
            check_same_thread=False,
            isolation_level=None,  # explicit BEGIN IMMEDIATE below
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(_SCHEMA)
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(records)")
        }
        if "semantics" not in columns:
            # A file from before stamping: its rows read as stale.
            try:
                self._conn.execute(
                    "ALTER TABLE records ADD COLUMN semantics INTEGER"
                )
            except sqlite3.OperationalError:  # another opener added it
                pass
        #: Keys quarantined by this instance (observability mirror of
        #: the ``quarantine`` table).
        self.quarantined: List[str] = []
        #: Reads that found a row stamped by other code.
        self.stale = 0

    # -- writes ----------------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = payload_digest(payload)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO records (key, sha256, payload, "
                    "created_s, semantics) VALUES (?, ?, ?, ?, ?)",
                    (key, digest, text, time.time(), SEMANTICS_VERSION),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- reads -----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified payload for ``key``, or ``None``.

        A row stamped by other code is a miss counted in :attr:`stale`.
        A row that fails to parse or to checksum is quarantined and
        treated as a miss (the ``cache-row-corrupt`` fault probe can
        substitute a corrupted payload here to prove that path).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT sha256, payload, semantics FROM records "
                "WHERE key = ?",
                (key,),
            ).fetchone()
            if row is not None and row[2] != SEMANTICS_VERSION:
                self.stale += 1
                return None
        if row is None:
            return None
        digest, text, _semantics = row
        if faults.ARMED:
            try:
                text = faults.fire("cache-row-corrupt", text)
            except faults.InjectedFault as e:
                # action="raise" models an unreadable row; same
                # discipline as a checksum failure.
                self._quarantine(key, digest, text, f"injected: {e}")
                return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("row payload is not an object")
            if payload_digest(payload) != digest:
                raise ValueError("row checksum mismatch")
        except ValueError as e:
            self._quarantine(key, digest, text, str(e))
            return None
        return payload

    def _quarantine(
        self, key: str, digest: str, text: str, reason: str
    ) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO quarantine "
                    "(key, sha256, payload, reason, quarantined_s) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, digest, text, reason, time.time()),
                )
                self._conn.execute(
                    "DELETE FROM records WHERE key = ?", (key,)
                )
                self._conn.execute("COMMIT")
            except BaseException:  # pragma: no cover - defensive
                self._conn.execute("ROLLBACK")
                raise
        self.quarantined.append(key)

    # -- maintenance / observability -------------------------------------

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
        return int(n)

    def quarantine_count(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM quarantine"
            ).fetchone()
        return int(n)

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "rows": len(self),
            "quarantined": self.quarantine_count(),
            "stale": self.stale,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()


@dataclass
class JournalReplay:
    records: List[Dict[str, Any]]
    skipped_lines: int = 0


class Journal:
    """Append-only JSONL event log, durable per append."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fp:
                fp.write(line)
                fp.flush()
                os.fsync(fp.fileno())

    def replay(self) -> JournalReplay:
        """Every parseable record, skipping (and counting) torn lines."""
        if not self.path.exists():
            return JournalReplay(records=[])
        records: List[Dict[str, Any]] = []
        skipped = 0
        with open(self.path, "r", encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
                else:
                    skipped += 1
        return JournalReplay(records=records, skipped_lines=skipped)
