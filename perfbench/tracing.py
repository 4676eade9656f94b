"""In-memory span tracing for the benchmark's traced run.

The benchmark never edits the program: it wraps the public entry points
of the ``repro`` modules from here, records one span per call (name,
start, end, parent, request id) and restores the originals afterwards.

* A *layer* is a module-level name such as ``automata.minimize``; its
  ``_s`` metric is self time: span duration minus the time its child
  spans cover, summed over the run.
* A call that re-enters the layer it is already in (BDD ``apply_*``
  recursing into itself, ``satisfiable`` calling ``sat_of``) records no
  new span, so only the outermost call counts.
* Every binding site is patched, not only the defining module: a module
  that did ``from ..automata.minimize import minimize`` holds its own
  reference, so every loaded ``repro`` module whose global is the
  original function gets the wrapper too.  Methods are patched on their
  class.  :func:`uninstall` puts every original back and also repairs
  modules that were imported while tracing and bound a wrapper by name.
* Spans whose root is a ``request`` span give ``other_s``: request time
  that no layer span covers.

Child processes (the traced daemon and its workers) keep their own
:class:`Recorder` and write its summary as JSON when they exit; the
benchmark merges the summaries.
"""

from __future__ import annotations

import atexit
import contextvars
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Per-layer metric table (name, unit, better, and which end-to-end
#: metric it should move on which workload).
LAYER_METRICS: List[Dict[str, Any]] = json.loads(
    (HERE / "layers.json").read_text()
)["metrics"]

REQUEST = "request"
#: Finished spans kept in memory per process; totals stay exact beyond it.
KEEP_SPANS = 200_000


class Recorder:
    """Spans and counters of one process.

    ``spans`` keeps the first :data:`KEEP_SPANS` finished spans as
    ``(id, name, start, end, parent_id, request)``; the per-layer
    self-time and call totals are exact beyond that.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._ids = itertools.count()
        # Leaf layers (see Target.leaf): [time, calls] per layer, and all
        # leaf time of the process, which spans difference at entry and
        # exit to take leaf time out of their self time.
        self.leaf: Dict[str, List[float]] = {}
        self.leaf_total = [0.0]
        # BDD managers created while tracing, with their counters at
        # creation; harvest() turns them into cache_stats() deltas.
        self.managers: List[Tuple[Any, Dict[str, int]]] = []
        # (solver id, conjunction cache_key) -> first result object.
        self.conj_seen: Dict[Tuple[int, str], Any] = {}
        # scheduler submission id -> submit time (queue wait).
        self.queued: Dict[int, float] = {}

    # -- spans ----------------------------------------------------------

    def enter(self, name: str) -> list:
        # [name, start, parent, child span time, id, context token,
        #  leaf time at entry, leaf time inside child spans]
        frame = [name, self.clock(), self.current.get(), 0.0,
                 next(self._ids), None, self.leaf_total[0], 0.0]
        frame[5] = self.current.set(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        name, start, parent, child_s, sid, token, leaf0, child_leaf = frame
        self.current.reset(token)
        dur = end - start
        leaf_in = self.leaf_total[0] - leaf0
        self.self_s[name] += dur - child_s - (leaf_in - child_leaf)
        self.calls[name] += 1
        if parent is not None:
            parent[3] += dur
            parent[7] += leaf_in
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((sid, name, start, end,
                               None if parent is None else parent[4],
                               self.request.get()))
        else:
            self.dropped += 1
        return dur

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        token = self.request.set(request) if request is not None else None
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)
            if token is not None:
                self.request.reset(token)

    # -- counters gathered outside spans --------------------------------

    def harvest(self) -> None:
        """Fold the BDD managers' ``cache_stats()`` deltas into the
        counters and drop per-request state (call after each request)."""
        for mgr, base in self.managers:
            st = mgr.cache_stats()
            self.counters["bdd.nodes"] += st["nodes"] - base["nodes"]
            self.counters["bdd.cache_hits"] += st["cache_hits"] - base["cache_hits"]
            self.counters["bdd.cache_misses"] += (
                st["cache_misses"] - base["cache_misses"]
            )
        self.managers.clear()
        self.conj_seen.clear()

    def summary(self) -> Dict[str, Any]:
        self_s, calls = dict(self.self_s), dict(self.calls)
        for layer, (t, n) in self.leaf.items():
            self_s[layer] = self_s.get(layer, 0.0) + t
            calls[layer] = calls.get(layer, 0) + int(n)
        return {
            "self_s": self_s,
            "calls": calls,
            "counters": dict(self.counters),
            "spans": len(self.spans) + self.dropped,
        }


def self_times(spans: Sequence[Tuple]) -> Dict[str, float]:
    """Self time per span name from finished spans
    ``(id, name, start, end, parent_id, ...)``: each span's duration
    minus the durations of its direct children."""
    child: Dict[Any, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[1]] += (s[3] - s[2]) - child[s[0]]
    return dict(out)


def merge(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"self_s": defaultdict(float),
                           "calls": defaultdict(int),
                           "counters": defaultdict(float), "spans": 0}
    for s in summaries:
        for part in ("self_s", "calls", "counters"):
            for k, v in s[part].items():
                out[part][k] += v
        out["spans"] += s["spans"]
    return {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in out.items()}


# ----------------------------------------------------------------------
# Probes: counters read from a wrapped call's arguments and result.


def _states_in_out(layer):
    def post(rec, args, kwargs, result, dur):
        rec.counters[layer + ".in"] += args[0].n_states
        rec.counters[layer + ".out"] += result.n_states
    return post


def _count(counter, attr):
    def post(rec, args, kwargs, result, dur):
        rec.counters[counter] += getattr(result, attr)
    return post


def _explored(rec, args, kwargs, result, dur):
    rec.counters["automata.explore_reached"] += result.reached
    rec.counters["automata.explore_pruned"] += result.pruned


def _bdd_created(rec, args, kwargs, result, dur):
    mgr = args[0]
    rec.managers.append((mgr, mgr.cache_stats()))


def _conj_cached(key_pos):
    """A ``cache_key`` call is a conjunction-cache hit when it returns
    the very object the first call with that key on the same solver
    returned."""
    def post(rec, args, kwargs, result, dur):
        key = args[key_pos] if len(args) > key_pos else kwargs.get("cache_key")
        if key is None:
            return
        slot = (id(args[0]), key)
        hit = slot in rec.conj_seen and rec.conj_seen[slot] is result
        rec.conj_seen.setdefault(slot, result)
        rec.counters["solver.conj_cache_hits" if hit else
                     "solver.conj_cache_misses"] += 1
    return post


def _worker_overhead(rec, args, kwargs, result, dur):
    value = result.value if result.status == "ok" else None
    if isinstance(value, dict) and "elapsed" in value:
        rec.counters["service.worker_overhead_s"] += dur - float(value["elapsed"])


def _submitted(rec, args, kwargs, result, dur):
    rec.queued[id(result[0])] = rec.clock()


def _dispatched(rec, args, kwargs, result, dur):
    if result is not None:
        t0 = rec.queued.pop(id(result), None)
        if t0 is not None:
            rec.counters["service.queue_wait_s"] += rec.clock() - t0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``where`` is ``module:function`` or
    ``module:Class.method``; ``layer`` is the span name (``None`` for a
    probe that records counters but no span)."""

    where: str
    layer: Optional[str]
    post: Optional[Callable] = None
    #: A leaf layer calls no other traced layer and is called millions
    #: of times (BDD apply): it is timed into the totals without a span
    #: record, to keep the tracing overhead down.
    leaf: bool = False


_ENCODER_METHODS = (
    "preregister", "column_order", "next_formula", "prev_via",
    "configuration_parts", "current_parts", "current_any",
    "config_core_parts", "consistent", "ordered", "parallel",
    "dependence_geometry",
)
_BDD_OPS = ("apply_and", "apply_or", "apply_not", "apply_diff", "ite",
            "conj", "disj", "restrict", "exists")

#: Entry points wrapped in every traced process.
SOLVER_TARGETS: Tuple[Target, ...] = (
    Target("repro.core.api:check_data_race", REQUEST),
    Target("repro.core.api:check_equivalence", REQUEST),
    Target("repro.lang.parser:parse_program", "lang.parse"),
    Target("repro.lang.validate:validate", "lang.validate"),
    Target("repro.core.configurations:ProgramModel.__init__", "core.model"),
    *(Target(f"repro.core.encode:Encoder.{m}", "core.encode")
      for m in _ENCODER_METHODS),
    Target("repro.core.bisim:check_bisimulation", "core.bisim"),
    Target("repro.core.symbolic:check_data_race_mso", "core.symbolic"),
    Target("repro.core.symbolic:check_conflict_mso", "core.symbolic"),
    Target("repro.core.bounded:check_data_race_bounded", "core.bounded",
           _count("core.bounded_trees", "trees_checked")),
    Target("repro.core.bounded:check_conflict_bounded", "core.bounded",
           _count("core.bounded_trees", "trees_checked")),
    Target("repro.core.bounded:default_scope", "trees.generate"),
    Target("repro.core.witness:decode_labels", "core.witness.decode"),
    Target("repro.core.witness:match_configuration", "core.witness.decode"),
    Target("repro.core.witness:replay_race", "core.witness.replay"),
    Target("repro.core.witness:replay_conflict", "core.witness.replay"),
    Target("repro.engine.plan:PlanExecutor.execute", "engine.execute"),
    Target("repro.engine.cache:ResultCache.lookup", "engine.cache.lookup"),
    Target("repro.engine.cache:ResultCache.store", "engine.cache.store"),
    Target("repro.solver.solver:MSOSolver.satisfiable", "solver.sat"),
    Target("repro.solver.solver:MSOSolver.sat_of", "solver.sat"),
    Target("repro.solver.solver:MSOSolver.satisfiable_conj", "solver.sat"),
    Target("repro.solver.solver:MSOSolver.valid", "solver.sat"),
    Target("repro.solver.solver:MSOSolver.automaton_conj", "solver.conj",
           _conj_cached(2)),
    Target("repro.solver.solver:MSOSolver.interface_conj", "solver.conj",
           _conj_cached(3)),
    Target("repro.mso.compile:Compiler.compile", "mso.compile"),
    Target("repro.mso.compile:Compiler.compile_product", "mso.compile"),
    Target("repro.automata.minimize:minimize", "automata.minimize",
           _states_in_out("automata.minimize")),
    Target("repro.automata.minimize:reduce_nfta", "automata.reduce_nfta",
           _states_in_out("automata.reduce_nfta")),
    Target("repro.automata.minimize:prune_unreachable", "automata.prune"),
    Target("repro.automata.minimize:prune_dead", "automata.prune"),
    Target("repro.automata.tta:TreeAutomaton.product", "automata.product",
           _count("automata.product_states", "n_states")),
    Target("repro.automata.determinize:determinize", "automata.determinize",
           _count("automata.determinize_states", "n_states")),
    Target("repro.automata.tta:TreeAutomaton.complemented",
           "automata.complement"),
    Target("repro.automata.tta:TreeAutomaton.projected", "automata.project"),
    Target("repro.automata.product:ProductAutomaton.projected",
           "automata.project"),
    Target("repro.automata.product:ProductAutomaton.explore",
           "automata.explore", _explored),
    Target("repro.automata.antichain:upward_simulation", "automata.antichain"),
    Target("repro.automata.antichain:cached_upward_simulation",
           "automata.antichain"),
    Target("repro.automata.emptiness:find_witness", "automata.witness"),
    Target("repro.automata.emptiness:witness_from_exploration",
           "automata.witness"),
    Target("repro.bdd.bdd:BDDManager.__init__", None, _bdd_created),
    *(Target(f"repro.bdd.bdd:BDDManager.{op}", "bdd.apply", leaf=True)
      for op in _BDD_OPS),
    Target("repro.interp.interpreter:run", "interp.run"),
    Target("repro.interp.races:program_races_on", "interp.races"),
    Target("repro.interp.races:find_races", "interp.races"),
    Target("repro.trees.lcrs:to_lcrs", "trees.lcrs"),
    Target("repro.trees.lcrs:from_lcrs", "trees.lcrs"),
    *(Target(f"repro.trees.generators:{f}", "trees.generate")
      for f in ("full_tree", "random_tree", "assign_fields", "nary_chain",
                "nary_full_tree", "random_nary_tree")),
)

#: Entry points of the solve daemon's own process.
SERVICE_TARGETS: Tuple[Target, ...] = (
    Target("repro.service.supervisor:Supervisor.run_one", REQUEST),
    Target("repro.service.worker:run_task", "service.worker",
           _worker_overhead),
    Target("repro.service.sharedcache:SharedCache.get",
           "service.sharedcache.get"),
    Target("repro.service.sharedcache:SharedCache.put",
           "service.sharedcache.put"),
    Target("repro.service.scheduler:FairScheduler.submit", None, _submitted),
    Target("repro.service.scheduler:FairScheduler.next_ready", None,
           _dispatched),
)


# ----------------------------------------------------------------------
# Installing and removing wrappers


def _make_leaf_wrapper(rec: Recorder, orig: Callable, layer: str,
                       busy: List[bool]) -> Callable:
    """Outermost-call timing for a leaf layer; ``busy`` is shared by all
    entry points of the layer.  Leaf time is process-wide, so a leaf
    layer must run in one thread at a time (BDD managers do).  Leaf
    entry points take positional arguments only, which keeps the
    per-call cost low."""
    clock, total = rec.clock, rec.leaf_total
    acc = rec.leaf.setdefault(layer, [0.0, 0])

    def wrapper(*args):
        if busy[0]:
            return orig(*args)
        busy[0] = True
        t0 = clock()
        try:
            result = orig(*args)
        except BaseException:
            busy[0] = False
            raise
        dur = clock() - t0
        busy[0] = False
        acc[0] += dur
        acc[1] += 1
        total[0] += dur
        return result

    return wrapper


def _make_wrapper(rec: Recorder, orig: Callable, layer: Optional[str],
                  post: Optional[Callable]) -> Callable:
    if layer is None:
        def probe(*args, **kwargs):
            result = orig(*args, **kwargs)
            post(rec, args, kwargs, result, 0.0)
            return result
        return probe

    def wrapper(*args, **kwargs):
        cur = rec.current.get()
        if cur is not None and cur[0] == layer:
            return orig(*args, **kwargs)  # re-entry: outermost call only
        frame = rec.enter(layer)
        try:
            result = orig(*args, **kwargs)
        finally:
            dur = rec.exit(frame)
        if post is not None:
            post(rec, args, kwargs, result, dur)
        return result

    wrapper.__wrapped__ = orig
    wrapper.__name__ = getattr(orig, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(orig, "__qualname__", wrapper.__name__)
    return wrapper


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Callable
    wrapper: Callable


def install(rec: Recorder, targets: Sequence[Target]) -> List[Patch]:
    """Wrap every target at every binding site; returns the patches for
    :func:`uninstall`."""
    patches: List[Patch] = []
    busy: Dict[str, List[bool]] = {}

    def wrap(t: Target, orig: Callable) -> Callable:
        if not inspect.isfunction(orig):
            raise TypeError(f"{t.where} is not a plain function")
        if t.leaf:
            return _make_leaf_wrapper(rec, orig, t.layer,
                                      busy.setdefault(t.layer, [False]))
        return _make_wrapper(rec, orig, t.layer, t.post)

    for t in targets:
        modname, qual = t.where.split(":")
        module = importlib.import_module(modname)
        if "." in qual:
            clsname, attr = qual.split(".")
            owner = getattr(module, clsname)
            orig = owner.__dict__[attr]
            wrapper = wrap(t, orig)
            setattr(owner, attr, wrapper)
            patches.append(Patch(owner, attr, orig, wrapper))
            continue
        orig = getattr(module, qual)
        wrapper = wrap(t, orig)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    patches.append(Patch(mod, name, orig, wrapper))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    """Restore every original, including bindings made by modules that
    were first imported while the wrappers were in place."""
    by_wrapper = {id(p.wrapper): p for p in patches}
    for p in reversed(patches):
        setattr(p.owner, p.attr, p.original)
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            p = by_wrapper.get(id(value))
            if p is not None and value is p.wrapper:
                setattr(mod, name, p.original)


def restored(patches: Sequence[Patch]) -> bool:
    """Every patched binding holds its original function again."""
    for p in patches:
        current = (p.owner.__dict__.get(p.attr) if isinstance(p.owner, type)
                   else getattr(p.owner, p.attr, None))
        if current is not p.original:
            return False
    wrappers = {id(p.wrapper) for p in patches}
    return not any(id(v) in wrappers
                   for mod in _repro_modules() for v in vars(mod).values())


def trace_process(trace_dir: Path, role: str,
                  targets: Sequence[Target]) -> Recorder:
    """Trace this whole process: install the wrappers now and write the
    recorder's summary to ``trace_dir/<role>-<pid>.json`` at exit."""
    rec = Recorder()
    install(rec, targets)
    path = Path(trace_dir) / f"{role}-{os.getpid()}.json"

    def dump() -> None:
        rec.harvest()
        path.write_text(json.dumps(rec.summary()))

    atexit.register(dump)
    return rec


def load_summaries(trace_dir: Path) -> List[Dict[str, Any]]:
    return [json.loads(p.read_text())
            for p in sorted(Path(trace_dir).glob("*.json"))]


# ----------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(summary: Dict[str, Any],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from a merged summary;
    ``extra`` supplies the ones measured outside the spans (daemon
    status, latencies, tracing overhead)."""
    self_s, calls, c = summary["self_s"], summary["calls"], summary["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for m in LAYER_METRICS:
        name = m["name"]
        if name in extra:
            out[name] = extra[name]
        elif name == "other_s":
            out[name] = self_s.get(REQUEST, 0.0)
        elif name.endswith("_state_ratio"):
            layer = name[: -len("_state_ratio")]
            out[name] = ratio(c.get(layer + ".out", 0), c.get(layer + ".in", 0))
        elif name.endswith("_calls"):
            out[name] = calls.get(name[: -len("_calls")], 0)
        elif name == "solver.queries":
            out[name] = calls.get("solver.sat", 0)
        elif name == "service.worker_round_trip_s":
            out[name] = self_s.get("service.worker", 0.0)
        elif name == "bdd.op_cache_hit_ratio":
            hits = c.get("bdd.cache_hits", 0)
            out[name] = ratio(hits, hits + c.get("bdd.cache_misses", 0))
        elif name == "solver.conj_cache_hit_ratio":
            hits = c.get("solver.conj_cache_hits", 0)
            out[name] = ratio(hits, hits + c.get("solver.conj_cache_misses", 0))
        elif name in c:
            out[name] = c[name]
        elif name.endswith("_s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = 0
    return out
