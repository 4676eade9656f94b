"""Content-addressed result cache with soundness-aware reuse.

Records are keyed by :meth:`query.key` — the hash of *what* is asked,
never of the limits — and held in memory plus (optionally) a durable
``backend=``: any object with a ``get(key)``/``put(key, payload)``
surface, in practice :class:`repro.service.sharedcache.SharedCache`,
the one checksummed, stamped, quarantining sqlite file behind a batch
run directory and the solve daemon.  The record format lives here
alone: :meth:`ResultCache.store` takes the wire result dict and derives
the verdict and the deciding engine from it.

Reuse is governed by the deciding engine's declared
:class:`~repro.engine.engines.Capabilities`, not by the verdict alone:

* ``"unknown"`` is never reusable (and never stored) — a bigger budget
  might decide it;
* a **counterexample** (``race`` / ``not-equivalent``) is reusable iff
  the deciding engine is *sound* for the query kind — the evidence
  stands regardless of scope or budget;
* a **clean** verdict (``race-free`` / ``equivalent``) is reusable iff
  the deciding engine is *complete* for what the query asks: over all
  trees, or exhaustive on the same scope (the scope is part of the
  key, and re-checked here as belt and braces).  A sampled engine's
  clean verdict is never reused;
* the deciding engine must be one the current plan would run — a
  bounded verdict must not satisfy an ``engine="mso"`` caller;
* a ``bisim`` verdict (the equivalence fast path) counts as sound and
  complete, but is only reused when the caller still enables the
  bisimulation gate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .engines import get_engine

__all__ = ["CacheStats", "ResultCache"]

#: Verdicts that carry a counterexample (sound-direction evidence).
_FOUND_VERDICTS = frozenset({"race", "not-equivalent"})


@dataclass
class CacheStats:
    """Observable cache counters (mirrored into ``SolverStats``, the
    batch ``report.json`` and the daemon ``status``)."""

    hits: int = 0
    misses: int = 0
    stored: int = 0
    #: tasks a driver could not turn into a query (malformed source,
    #: mapping or engine name) and so solved without the cache.
    uncacheable: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "uncacheable": self.uncacheable,
        }


def _decided_engine(
    decided_by: Optional[str], attempts: List[Dict[str, Any]]
) -> Optional[str]:
    """The engine name behind a ``decided_by`` rung (``"bisim"`` for the
    equivalence fast path, which records no attempt)."""
    if decided_by is None:
        return None
    if decided_by == "bisim":
        return "bisim"
    for a in attempts:
        if a.get("rung") == decided_by:
            return a.get("engine")
    return None


class ResultCache:
    """In-memory + optional durable verdict cache keyed by query hash."""

    def __init__(self, backend=None) -> None:
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self.backend = backend

    # -- reuse policy ----------------------------------------------------

    @staticmethod
    def _reusable(record: Dict[str, Any], query, plan,
                  allow_bisim: bool) -> bool:
        verdict = record.get("verdict")
        decided_engine = record.get("decided_engine")
        if verdict in (None, "unknown") or decided_engine is None:
            return False
        if record.get("kind") != query.kind:
            return False
        if decided_engine == "bisim":
            return allow_bisim and query.kind == "equiv"
        if decided_engine not in plan.engine_names():
            return False
        try:
            caps = get_engine(decided_engine).capabilities
        except ValueError:
            return False
        if verdict in _FOUND_VERDICTS:
            return query.kind in caps.sound_for
        if caps.complete_for == "all-trees":
            return True
        if caps.complete_for == "scope":
            return record.get("scope") == query.scope
        return False

    # -- lookup / store --------------------------------------------------

    def lookup(self, query, plan,
               allow_bisim: bool = True) -> Optional[Dict[str, Any]]:
        """The reusable cache record for ``query`` under ``plan``, or
        ``None`` (counted as a miss)."""
        key = query.key()
        with self._lock:
            record = self._memory.get(key)
        if record is None and self.backend is not None:
            record = self.backend.get(key)
            if record is not None:
                with self._lock:
                    self._memory[key] = record
        if record is not None and self._reusable(
            record, query, plan, allow_bisim
        ):
            with self._lock:
                self.stats.hits += 1
            return record
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, query, result: Dict[str, Any]) -> bool:
        """Store the wire ``result`` of one decided verdict; refuses
        ``unknown`` (a bigger budget might decide it, so it must always
        be recomputed).  Storing the record already held is a no-op."""
        details = result.get("details") or {}
        decided_by = details.get("decided_by")
        decided_engine = _decided_engine(
            decided_by, details.get("attempts") or []
        )
        verdict = result.get("verdict", "unknown")
        if verdict == "unknown" or decided_engine is None:
            return False
        key = query.key()
        record = {
            "key": key,
            "kind": query.kind,
            "scope": query.scope,
            "verdict": verdict,
            "holds": bool(result.get("holds")),
            "decided_by": decided_by,
            "decided_engine": decided_engine,
            "result": result,
        }
        with self._lock:
            if self._memory.get(key) == record:
                return True
            self._memory[key] = record
            self.stats.stored += 1
        if self.backend is not None:
            self.backend.put(key, record)
        return True
