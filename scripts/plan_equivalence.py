"""Plan-equivalence acceptance: the cache must change nothing but speed.

Runs a fast corpus of Table-1 queries through ``engine="auto"`` three
ways and fails on any drift:

1. **baseline** — no cache: the plan executor alone;
2. **cold cache** — a fresh :class:`repro.engine.ResultCache` over a new
   :class:`repro.service.sharedcache.SharedCache` file:
   every verdict, ``decided_by`` and normalized attempt schema must be
   byte-identical to the baseline (the cache may only *observe* a cold
   run, never steer it);
3. **warm cache** — a *new* ``ResultCache`` over a new ``SharedCache``
   on the same file (so hits must come through the checksummed sqlite
   rows): every query
   must be decided with at least one cache hit, and every verdict must
   match the baseline.

Run from the repo root::

    PYTHONPATH=src python scripts/plan_equivalence.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.casestudies import cycletree, sizecount, treemutation  # noqa: E402
from repro.core.api import check_data_race, check_equivalence  # noqa: E402
from repro.engine import ResultCache, normalized_attempts  # noqa: E402
from repro.service.sharedcache import SharedCache  # noqa: E402


def corpus():
    """name -> callable(cache) producing a VerificationResult; all
    ``engine="auto"`` with ``mso_deadline_s=None`` so the recorded
    attempt limits are wall-clock independent."""
    return {
        "t1.2-race": lambda cache: check_data_race(
            sizecount.sequential_program(), mso_deadline_s=None,
            replay=False, cache=cache,
        ),
        "t1.3-race": lambda cache: check_data_race(
            sizecount.parallel_program(), mso_deadline_s=None,
            replay=False, cache=cache,
        ),
        "t1.7-race": lambda cache: check_data_race(
            cycletree.parallel_program(), max_internal=2,
            mso_deadline_s=None, replay=False, cache=cache,
        ),
        "t1.2-fusion": lambda cache: check_equivalence(
            sizecount.sequential_program(),
            sizecount.fused_invalid(),
            sizecount.invalid_fusion_correspondence(),
            mso_deadline_s=None, replay=False, cache=cache,
        ),
        "t1.4-fusion": lambda cache: check_equivalence(
            treemutation.original_program(),
            treemutation.fused_program(),
            treemutation.fusion_correspondence(),
            mso_deadline_s=None, replay=False, cache=cache,
        ),
    }


def snapshot(res):
    return {
        "verdict": res.verdict,
        "engine": res.engine,
        "decided_by": res.details.get("decided_by"),
        "attempts": normalized_attempts(res.details.get("attempts", [])),
    }


def main() -> int:
    failures = []
    queries = corpus()

    baseline = {name: snapshot(run(None)) for name, run in queries.items()}
    for name, snap in baseline.items():
        print(f"baseline  {name}: {snap['verdict']} "
              f"decided_by={snap['decided_by']}")
        if snap["verdict"] == "unknown":
            failures.append(f"{name}: baseline verdict is unknown")

    with tempfile.TemporaryDirectory(prefix="plan-equiv-") as tmp:
        cache_path = Path(tmp) / "cache.sqlite"

        cold = ResultCache(backend=SharedCache(cache_path))
        for name, run in queries.items():
            snap = snapshot(run(cold))
            if snap != baseline[name]:
                failures.append(
                    f"{name}: cold-cache run drifted from baseline\n"
                    f"  baseline: {baseline[name]}\n  cold:     {snap}"
                )
        print(f"cold cache: {cold.stats.as_dict()}")
        if cold.stats.hits:
            failures.append(
                f"cold cache reported {cold.stats.hits} hit(s); "
                "expected none on first sight of every query"
            )

        warm = ResultCache(backend=SharedCache(cache_path))  # disk hits only
        for name, run in queries.items():
            res = run(warm)
            cache_note = res.details.get("cache") or {}
            print(f"warm      {name}: {res.verdict} "
                  f"hit={cache_note.get('hit')}")
            if res.verdict != baseline[name]["verdict"]:
                failures.append(
                    f"{name}: warm-cache verdict {res.verdict!r} != "
                    f"baseline {baseline[name]['verdict']!r}"
                )
            if res.verdict == "unknown":
                failures.append(f"{name}: warm-cache verdict is unknown")
            if not cache_note.get("hit"):
                failures.append(f"{name}: warm-cache run missed the cache")
        if warm.stats.hits < len(queries):
            failures.append(
                f"warm cache: {warm.stats.hits} hit(s) for "
                f"{len(queries)} queries"
            )

    if failures:
        print("\nPLAN EQUIVALENCE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("plan equivalence: OK "
          f"({len(queries)} queries, cold == baseline, warm all hits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
