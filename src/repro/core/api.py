"""Top-level verification API: the Fig. 1 pipeline as two calls.

``check_data_race`` (Thm 2) and ``check_equivalence`` (Thm 3) are thin
façades over :mod:`repro.engine`: each call builds a Query-IR object
(:class:`~repro.engine.query.RaceQuery` /
:class:`~repro.engine.query.EquivalenceQuery`), resolves the ``engine=``
spec to a declarative :class:`~repro.engine.plan.Plan` through the
engine registry, and hands both to the
:class:`~repro.engine.plan.PlanExecutor`:

* ``engine="mso"`` — the paper's MSO/automata pipeline, deciding over
  all trees;
* ``engine="bounded"`` — exhaustive on every tree shape up to a bound;
* ``engine="auto"`` — the **degradation ladder** (DESIGN.md §7/§10):
  the lazy symbolic engine under a :class:`~repro.runtime.
  ResourceGuard`, one retry with escalated budgets when only the state
  budget was exhausted (wall clock permitting), then the bounded
  checker, shrinking its scope whenever a rung overruns its own limits;
* any other registered engine name resolves through the registry; an
  unknown name raises ``ValueError`` listing the known ones.

Every rung attempted is recorded in ``details["attempts"]`` and
``details["decided_by"]`` names the rung whose answer is reported.  A
query no rung could decide returns ``verdict="unknown"`` with
``holds=False`` — never a silent ``race-free``/``equivalent``.
Counterexamples are automatically replayed against the concrete
interpreter (:mod:`repro.core.witness`), automating the paper's manual
true-positive check.

Passing ``cache=`` a :class:`~repro.engine.cache.ResultCache` makes the
call consult and feed the content-addressed verdict cache; reuse is
gated on the deciding engine's declared capabilities (see
:mod:`repro.engine.cache`), and cache traffic is surfaced in
``details["cache"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..engine import (
    EquivalenceQuery,
    Limits as QueryLimits,
    PlanExecutor,
    RaceQuery,
    plan_for,
    program_fields,
)
from ..engine.plan import LADDER_ESCALATION
from ..lang import ast as A
from ..lang.validate import validate
from ..trees.heap import Tree
from .bisim import check_bisimulation
from .witness import ReplayOutcome, replay_conflict, replay_race

__all__ = [
    "VerificationResult",
    "check_data_race",
    "check_equivalence",
    "verification_to_dict",
    "verification_from_dict",
    "LADDER_ESCALATION",
]


@dataclass
class VerificationResult:
    """Uniform result of a verification query.

    ``details["attempts"]`` lists every ladder rung that ran (rung name,
    engine, limits, outcome, elapsed, and the rung's raw ``found``
    verdict — kept even when a later rung decides, so per-engine answers
    stay inspectable); ``details["decided_by"]`` names the rung whose
    verdict is reported (``None`` when ``unknown``).
    """

    query: str
    verdict: str  # "race-free"|"race"|"equivalent"|"not-equivalent"|"unknown"
    engine: str  # "mso" | "bounded" | "mso+bounded" | "bisim"
    elapsed: float
    holds: bool
    witness: Optional[object] = None
    witness_tree: Optional[Tree] = None
    replay: Optional[ReplayOutcome] = None
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = ""
        if self.replay is not None:
            extra = f"; replay: {'confirmed' if self.replay.confirmed else 'unconfirmed'}"
        decided_by = self.details.get("decided_by")
        if decided_by and decided_by != self.engine:
            extra += f"; decided by {decided_by}"
        return (
            f"{self.query}: {self.verdict} "
            f"[{self.engine}, {self.elapsed:.3f}s]{extra}"
        )


# ----------------------------------------------------------------------
# Wire format (shared by the worker protocol and the result cache)


def verification_to_dict(res: VerificationResult) -> Dict[str, object]:
    """JSON-plain rendering of a result (the worker wire format)."""
    from ..service.protocol import jsonable
    from ..trees.heap import tree_to_tuple

    return {
        "query": res.query,
        "verdict": res.verdict,
        "engine": res.engine,
        "elapsed": res.elapsed,
        "holds": res.holds,
        "witness": str(res.witness) if res.witness is not None else None,
        "witness_tree": (
            tree_to_tuple(res.witness_tree)
            if res.witness_tree is not None
            else None
        ),
        "replay": (
            {"confirmed": res.replay.confirmed, "detail": res.replay.detail}
            if res.replay is not None
            else None
        ),
        "details": jsonable(res.details),
    }


def verification_from_dict(
    value: Dict[str, object],
    default_query: str = "",
    default_engine: str = "process",
    elapsed: Optional[float] = None,
) -> VerificationResult:
    """Lift a wire-format result dict back into a
    :class:`VerificationResult` (witness becomes its string rendering;
    the witness tree is reconstructed)."""
    from ..trees.heap import tree_from_tuple

    replay_data = value.get("replay")
    return VerificationResult(
        query=value.get("query", default_query),
        verdict=value["verdict"],
        engine=value.get("engine", default_engine),
        elapsed=(
            elapsed if elapsed is not None else float(value.get("elapsed", 0.0))
        ),
        holds=bool(value["holds"]),
        witness=value.get("witness"),
        witness_tree=(
            tree_from_tuple(value["witness_tree"])
            if value.get("witness_tree") is not None
            else None
        ),
        replay=(
            ReplayOutcome(
                confirmed=bool(replay_data["confirmed"]),
                detail=replay_data["detail"],
            )
            if replay_data
            else None
        ),
        details=dict(value.get("details") or {}),
    )


# ----------------------------------------------------------------------
# Cache plumbing


def _cache_lookup(cache, query, plan, t0, allow_bisim=True):
    record = cache.lookup(query, plan, allow_bisim=allow_bisim)
    if record is None:
        return None
    res = verification_from_dict(
        record["result"],
        default_query=query.display(),
        elapsed=time.perf_counter() - t0,
    )
    res.details["cache"] = {
        "hit": True,
        "key": record["key"],
        "stats": cache.stats.as_dict(),
    }
    return res


def _cache_store(cache, query, res: VerificationResult) -> None:
    stored = cache.store(query, verification_to_dict(res))
    res.details["cache"] = {
        "hit": False,
        "key": query.key(),
        "stored": stored,
        "stats": cache.stats.as_dict(),
    }


# ----------------------------------------------------------------------
# Public entry points


def _build_task(
    kind: str,
    programs: Sequence[A.Program],
    options: Dict[str, object],
    mapping: Optional[Mapping[str, Set[str]]] = None,
):
    """The serializable worker :class:`~repro.service.protocol.Task`
    for a query (shared by process isolation and daemon dispatch).

    The program(s) are pretty-printed (:func:`repro.lang.printer.
    program_source` round-trips through the parser) so the task is
    plain data a child process — or a daemon on the far side of a
    socket — can solve without sharing any state with this caller.
    """
    from ..lang.printer import program_source
    from ..service import Limits
    from ..service.worker import task_for_fusion, task_for_race

    wall_s = options.pop("wall_s", None)
    cpu_s = options.pop("cpu_s", None)
    mem_bytes = options.pop("mem_bytes", None)
    limits = Limits(wall_s=wall_s, cpu_s=cpu_s, mem_bytes=mem_bytes)
    options = {k: v for k, v in options.items() if v is not None or k in (
        "mso_deadline_s", "bounded_deadline_s", "node_ceiling")}
    if kind == "check-race":
        return task_for_race(
            source=program_source(programs[0]),
            entry=programs[0].entry,
            options=options,
            limits=limits,
            name=programs[0].name,
        )
    return task_for_fusion(
        source=program_source(programs[0]),
        source2=program_source(programs[1]),
        entry=programs[0].entry,
        options=options,
        mapping={k: sorted(v) for k, v in (mapping or {}).items()},
        limits=limits,
        name=programs[0].name,
        name2=programs[1].name,
    )


def _isolated(
    kind: str,
    programs: Sequence[A.Program],
    options: Dict[str, object],
    mapping: Optional[Mapping[str, Set[str]]] = None,
) -> VerificationResult:
    """Route a query through a sandboxed worker (DESIGN.md §9).

    The query is solved in a child process under hard OS limits and the
    child's JSON result is lifted back into a
    :class:`VerificationResult`.  A child that dies without answering —
    crash, rlimit, wall-clock kill, even after the supervisor's retries
    — comes back as ``verdict="unknown"`` with the crashed attempts in
    ``details["attempts"]``, never as an exception and never as a
    silent wrong verdict.
    """
    from ..service import run_verification_isolated

    task = _build_task(kind, programs, options, mapping)
    return run_verification_isolated(task)


def _via_daemon(
    kind: str,
    programs: Sequence[A.Program],
    options: Dict[str, object],
    daemon_socket,
    mapping: Optional[Mapping[str, Set[str]]] = None,
    client_id: str = "api",
    priority: Optional[int] = None,
    retries: int = 0,
) -> VerificationResult:
    """Route a query through a running solve daemon (DESIGN.md §11).

    The daemon owns the supervisor pool and the shared cache tier, so
    concurrent callers across processes share verdicts, admission
    control, and crash isolation.  Admission rejections
    (:class:`~repro.service.scheduler.ServiceOverloaded`) propagate to
    the caller — by design, so backpressure is visible, not swallowed.
    """
    import time as _time

    from ..service.client import DaemonClient
    from ..service.scheduler import DEFAULT_PRIORITY

    t0 = _time.perf_counter()
    task = _build_task(kind, programs, options, mapping)
    with DaemonClient(daemon_socket, client_id=client_id) as client:
        reply = client.submit_task(
            task,
            priority=DEFAULT_PRIORITY if priority is None else priority,
            retries=retries,
        )
    if not reply.get("ok"):
        res = VerificationResult(
            query=task.name,
            verdict="unknown",
            engine="daemon",
            elapsed=_time.perf_counter() - t0,
            holds=False,
            details={
                "attempts": reply.get("attempts") or [],
                "decided_by": None,
                "daemon_failure": reply.get("detail"),
            },
        )
    else:
        res = verification_from_dict(
            reply["value"],
            default_query=task.name,
            default_engine="daemon",
            elapsed=_time.perf_counter() - t0,
        )
    res.details["isolation"] = "daemon"
    res.details["daemon"] = {
        "cached": bool(reply.get("cached")),
        "key": reply.get("key"),
    }
    return res


def _race_on_user_trees(
    program: A.Program,
    on_trees: Sequence[object],
    replay: bool,
    t0: float,
) -> VerificationResult:
    """The ``on_trees=`` path of :func:`check_data_race`: dynamic
    happens-before race detection on concrete user inputs (binary or
    n-ary), witness coordinates translated back to the input's arity."""
    from ..engine import get_engine
    from ..trees.lcrs import lcrs_path_to_nary_coords
    from ..trees.nary import as_binary, is_nary

    converted = [(is_nary(t), as_binary(t)) for t in on_trees]
    query = RaceQuery(program=program, scope=0)
    eng = get_engine("interp")
    hit = eng.first_race(query, [b for _, b in converted])
    details: Dict[str, object] = {
        "decided_by": "interp",
        "on_trees": len(converted),
    }
    rep = None
    witness_tree = None
    if hit is not None:
        index, seed, work, race = hit
        nary_input = converted[index][0]
        witness_tree = work
        details["evidence"] = str(race)
        details["witness_input"] = {"index": index, "seed": seed}
        details["witness_cell"] = f"{race.field}@{race.node}"
        if nary_input:
            details["witness_nary"] = {
                "field": race.field,
                "coords": lcrs_path_to_nary_coords(race.node),
            }
        if replay:
            # The race tree already carries the racing valuation; replay
            # it verbatim (no re-seeding).
            outcome = replay_race(program, work, field_names=())
            rep = outcome
    else:
        details["note"] = (
            "dynamic evidence only: no race on the supplied trees under "
            "their own fields or the seeded valuations (not a proof over "
            "all trees)"
        )
    found = hit is not None
    return VerificationResult(
        query=query.display(),
        verdict="race" if found else "race-free",
        engine="interp",
        elapsed=time.perf_counter() - t0,
        holds=not found,
        witness=hit[3] if hit is not None else None,
        witness_tree=witness_tree,
        replay=rep,
        details=details,
    )


def check_data_race(
    program: A.Program,
    engine: str = "auto",
    max_internal: int = 4,
    det_budget: int = 50_000,
    mso_deadline_s: Optional[float] = 600.0,
    node_ceiling: Optional[int] = None,
    bounded_deadline_s: Optional[float] = None,
    replay: bool = True,
    isolation: str = "inline",
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    mem_bytes: Optional[int] = None,
    cache=None,
    daemon_socket=None,
    on_trees: Optional[Sequence[object]] = None,
) -> VerificationResult:
    """Is the program data-race-free (paper Thm 2)?

    ``isolation="process"`` runs the whole query in a sandboxed,
    supervised child process (``wall_s``/``cpu_s``/``mem_bytes`` become
    hard OS limits on it); ``isolation="daemon"`` submits it to the
    long-lived solve daemon at ``daemon_socket=`` (shared cache tier,
    admission control — may raise
    :class:`~repro.service.scheduler.ServiceOverloaded`); the default
    ``"inline"`` solves in-process.  ``cache=`` an optional
    :class:`~repro.engine.cache.ResultCache`.

    ``on_trees=`` checks the program on *user-supplied input trees*
    instead of the engines' scope enumeration: each item may be an
    engine-native binary :class:`~repro.trees.heap.Tree` or an
    any-arity :class:`~repro.trees.lcrs.NaryNode` (converted through
    the LCRS encoding at this boundary).  This path runs the dynamic
    engine — happens-before detection over one execution per tree and
    valuation, depth-unbounded thanks to the explicit-stack machine —
    so a clean answer is dynamic evidence on those inputs, not a proof
    over all trees.  A race found on an n-ary input reports its witness
    node both as the LCRS path and, in ``details["witness_nary"]``, as
    n-ary child coordinates.
    """
    validate(program)
    t0 = time.perf_counter()
    if on_trees is not None:
        if isolation != "inline":
            raise ValueError("on_trees= only supports isolation='inline'")
        return _race_on_user_trees(program, on_trees, replay, t0)
    plan = plan_for(engine)
    query = RaceQuery(
        program=program,
        scope=max_internal,
        limits=QueryLimits(
            det_budget=det_budget,
            mso_deadline_s=mso_deadline_s,
            node_ceiling=node_ceiling,
            bounded_deadline_s=bounded_deadline_s,
        ),
    )
    if cache is not None:
        hit = _cache_lookup(cache, query, plan, t0)
        if hit is not None:
            return hit
    if isolation in ("process", "daemon"):
        opts = {
            "engine": engine,
            "max_internal": max_internal,
            "det_budget": det_budget,
            "mso_deadline_s": mso_deadline_s,
            "node_ceiling": node_ceiling,
            "bounded_deadline_s": bounded_deadline_s,
            "replay": replay,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "mem_bytes": mem_bytes,
        }
        if isolation == "daemon":
            if daemon_socket is None:
                raise ValueError(
                    "isolation='daemon' needs daemon_socket= "
                    "(the socket of a running `repro serve`)"
                )
            res = _via_daemon("check-race", (program,), opts, daemon_socket)
        else:
            res = _isolated("check-race", (program,), opts)
        if cache is not None:
            _cache_store(cache, query, res)
        return res
    if isolation != "inline":
        raise ValueError(f"unknown isolation mode {isolation!r}")

    outcome = PlanExecutor(cache=cache).execute(query, plan)
    verdict = "race" if outcome.found else "race-free"
    if outcome.undecided:
        verdict = "unknown"
    rep = None
    if replay and outcome.found and outcome.witness_tree is not None:
        rep = replay_race(
            program, outcome.witness_tree, program_fields(program)
        )
    res = VerificationResult(
        query=query.display(),
        verdict=verdict,
        engine=outcome.engine_label,
        elapsed=time.perf_counter() - t0,
        holds=not outcome.found and verdict != "unknown",
        witness=outcome.witness,
        witness_tree=outcome.witness_tree,
        replay=rep,
        details=outcome.details,
    )
    if cache is not None:
        _cache_store(cache, query, res)
    return res


def check_equivalence(
    p: A.Program,
    p_prime: A.Program,
    mapping: Mapping[str, Set[str]],
    engine: str = "auto",
    max_internal: int = 4,
    det_budget: int = 50_000,
    mso_deadline_s: Optional[float] = 600.0,
    node_ceiling: Optional[int] = None,
    bounded_deadline_s: Optional[float] = None,
    replay: bool = True,
    check_bisim: bool = True,
    isolation: str = "inline",
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    mem_bytes: Optional[int] = None,
    cache=None,
    daemon_socket=None,
) -> VerificationResult:
    """Are the two programs equivalent under the block correspondence
    (paper Thm 3: bisimilar and conflict-free)?

    Precondition per the paper: both programs are data-race-free (footnote
    7); check separately with :func:`check_data_race`.
    ``isolation="process"`` sandboxes the query and
    ``isolation="daemon"`` (+ ``daemon_socket=``) submits it to a
    running solve daemon, as in :func:`check_data_race`; ``cache=`` an
    optional :class:`~repro.engine.cache.ResultCache`.
    """
    validate(p)
    validate(p_prime)
    t0 = time.perf_counter()
    plan = plan_for(engine)
    query = EquivalenceQuery(
        program=p,
        program2=p_prime,
        mapping=mapping,
        scope=max_internal,
        limits=QueryLimits(
            det_budget=det_budget,
            mso_deadline_s=mso_deadline_s,
            node_ceiling=node_ceiling,
            bounded_deadline_s=bounded_deadline_s,
        ),
    )
    if cache is not None:
        hit = _cache_lookup(cache, query, plan, t0, allow_bisim=check_bisim)
        if hit is not None:
            return hit
    if isolation in ("process", "daemon"):
        opts = {
            "engine": engine,
            "max_internal": max_internal,
            "det_budget": det_budget,
            "mso_deadline_s": mso_deadline_s,
            "node_ceiling": node_ceiling,
            "bounded_deadline_s": bounded_deadline_s,
            "replay": replay,
            "check_bisim": check_bisim,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "mem_bytes": mem_bytes,
        }
        if isolation == "daemon":
            if daemon_socket is None:
                raise ValueError(
                    "isolation='daemon' needs daemon_socket= "
                    "(the socket of a running `repro serve`)"
                )
            res = _via_daemon(
                "check-fusion", (p, p_prime), opts, daemon_socket,
                mapping=mapping,
            )
        else:
            res = _isolated("check-fusion", (p, p_prime), opts, mapping=mapping)
        if cache is not None:
            _cache_store(cache, query, res)
        return res
    if isolation != "inline":
        raise ValueError(f"unknown isolation mode {isolation!r}")

    if check_bisim:
        bis = check_bisimulation(p, p_prime, mapping)
        if not bis.bisimilar:
            details: Dict[str, object] = {
                "attempts": [],
                "bisimulation": str(bis),
                "decided_by": "bisim",
            }
            res = VerificationResult(
                query=query.display(),
                verdict="not-equivalent",
                engine="bisim",
                elapsed=time.perf_counter() - t0,
                holds=False,
                details=details,
            )
            if cache is not None:
                _cache_store(cache, query, res)
            return res

    outcome = PlanExecutor(cache=cache).execute(query, plan)
    if check_bisim:
        outcome.details["bisimulation"] = str(bis)
    verdict = "not-equivalent" if outcome.found else "equivalent"
    if outcome.undecided:
        verdict = "unknown"
    rep = None
    if replay and outcome.found and outcome.witness_tree is not None:
        rep = replay_conflict(
            p, p_prime, outcome.witness_tree, query.fields()
        )
    res = VerificationResult(
        query=query.display(),
        verdict=verdict,
        engine=outcome.engine_label,
        elapsed=time.perf_counter() - t0,
        holds=not outcome.found and verdict != "unknown",
        witness=outcome.witness,
        witness_tree=outcome.witness_tree,
        replay=rep,
        details=outcome.details,
    )
    if cache is not None:
        _cache_store(cache, query, res)
    return res
