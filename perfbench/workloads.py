"""The three benchmark workloads: seeded inputs, references, runners.

* ``table1-mso``: T1.1-T1.5 and T1.7 as cold ``repro check-fusion`` /
  ``check-race --engine mso`` processes, one closed-loop client.
* ``bounded-dynamic``: all seven Table-1 tasks on ``--engine bounded
  --max-internal 6``, then the minimax ``Score`` (race-free) and
  ``Prune||Scan`` (race) programs on 20k-node ``--on-tree`` inputs.
* ``daemon-generated``: a ``repro serve`` daemon with two closed-loop
  clients sending ``repro.gen`` race and equivalence queries on the
  ``mso`` engine, every key once more from memory, then a restart that
  serves every key from SQLite.

Every verdict is checked against a reference that does not come from
the engine under test: the paper's Table-1 verdicts, the minimax case
study's documented verdicts, and, for generated queries, the dynamic
interpreter and the bounded engine at a small scope, computed before
the clock starts.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: No request starts later than this many seconds into a run; the ones
#: left count as failed, so a run ends well within three minutes.
RUN_BUDGET_S = 150.0


class WrongVerdict(Exception):
    """A verdict disagrees with its reference: the run fails outright."""


# ----------------------------------------------------------------------
# Requests and their outcomes


@dataclass
class Request:
    """One CLI request: ``repro <argv>`` and the verdict it must give."""

    rid: str
    argv: List[str]
    verdict: str
    engine: str
    replay: bool = False  # a counterexample whose replay must confirm


@dataclass
class Outcome:
    rid: str
    latency_s: float
    ok: bool  # False: errored, refused, timed out or came back unknown
    verdict: str = ""
    cached: bool = False
    detail: str = ""
    #: asks for a key the daemon has answered before (a cache hit);
    #: kept out of the latency metrics, see ``run_daemon_pass``
    repeat: bool = False


_FIRST_LINE = re.compile(
    r"^(?P<query>.+?): (?P<verdict>[a-z-]+) \[(?P<engine>[^,\]]+), "
)


def judge_cli(req: Request, returncode: int, stdout: str,
              latency_s: float) -> Outcome:
    """Check one CLI answer against its reference.  Exit codes other
    than 0 (holds) and 1 (violation) are failures; a decided answer that
    disagrees with the reference raises :class:`WrongVerdict`."""
    line = stdout.splitlines()[0] if stdout.strip() else ""
    m = _FIRST_LINE.match(line)
    if returncode not in (0, 1) or m is None:
        return Outcome(req.rid, latency_s, False,
                       detail=f"exit {returncode}: {line[:120]}")
    verdict, engine = m.group("verdict"), m.group("engine")
    holds = verdict in ("race-free", "equivalent")
    problems = []
    if verdict != req.verdict:
        problems.append(f"verdict {verdict!r}, reference {req.verdict!r}")
    if engine != req.engine:
        problems.append(f"decided by {engine!r}, expected {req.engine!r}")
    if returncode != (0 if holds else 1):
        problems.append(f"exit {returncode} for {verdict!r}")
    if req.replay and "; replay: confirmed" not in line:
        problems.append("counterexample replay not confirmed")
    if problems:
        raise WrongVerdict(f"{req.rid}: " + "; ".join(problems)
                           + f" ({line})")
    return Outcome(req.rid, latency_s, True, verdict=verdict)


# ----------------------------------------------------------------------
# Inputs


#: (task, kind, case study, original, fused, correspondence, verdict):
#: the paper's Table 1, with "valid" as ``equivalent`` and
#: "counterexample" as ``not-equivalent`` / ``race``.
TABLE1 = (
    ("T1.1", "sizecount", "sequential_program", "fused_valid",
     "fusion_correspondence", "equivalent"),
    ("T1.2", "sizecount", "sequential_program", "fused_invalid",
     "invalid_fusion_correspondence", "not-equivalent"),
    ("T1.3", "sizecount", "parallel_program", None, None, "race-free"),
    ("T1.4", "treemutation", "original_program", "fused_program",
     "fusion_correspondence", "equivalent"),
    ("T1.5", "css", "original_program", "fused_program",
     "fusion_correspondence", "equivalent"),
    ("T1.6", "cycletree", "sequential_program", "fused_program",
     "fusion_correspondence", "equivalent"),
    ("T1.7", "cycletree", "parallel_program", None, None, "race"),
)

#: Nodes of the minimax game trees of ``bounded-dynamic`` (about 10 s per
#: cold check, most of the workload's run).
MINIMAX_NODES = 20_000


def _write(path: Path, program) -> str:
    from repro.lang.printer import program_source

    path.write_text(program_source(program))
    return str(path)


def table1_requests(work: Path, engine: str, tasks: Sequence[str],
                    extra: Sequence[str] = ()) -> List[Request]:
    """CLI requests for the named Table-1 tasks, programs printed with
    ``repro.lang.printer`` and the correspondence passed as ``--map``."""
    import importlib

    out = []
    for tid, study, orig, fused, corr, verdict in TABLE1:
        if tid not in tasks:
            continue
        mod = importlib.import_module(f"repro.casestudies.{study}")
        p = _write(work / f"{tid}-p.retreet", getattr(mod, orig)())
        if fused is None:
            argv = ["check-race", "--engine", engine, *extra, p]
        else:
            q = _write(work / f"{tid}-q.retreet", getattr(mod, fused)())
            maps = []
            for sid, targets in sorted(getattr(mod, corr)().items()):
                maps += ["--map", f"{sid}={','.join(sorted(targets))}"]
            argv = ["check-fusion", "--engine", engine, *extra, p, q, *maps]
        out.append(Request(tid, argv, verdict, engine,
                           replay=verdict in ("race", "not-equivalent")))
    return out


def table1_mso_inputs(work: Path, seed: int) -> List[Request]:
    reqs = table1_requests(
        work, "mso", ("T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.7")
    )
    random.Random(seed).shuffle(reqs)
    return reqs


def bounded_dynamic_inputs(work: Path, seed: int) -> List[Request]:
    from repro.casestudies import minimax

    rng = random.Random(seed)
    reqs = table1_requests(work, "bounded", [t[0] for t in TABLE1],
                           extra=("--max-internal", "6"))
    rng.shuffle(reqs)
    score = _write(work / "minimax-score.retreet", minimax.parallel_program())
    prune = _write(work / "minimax-prune.retreet", minimax.pruned_program())
    # Score is race-free on any tree; a chain exercises depth, a random
    # tree breadth.  Prune||Scan races on the cut flag of any node with a
    # right sibling, which a random tree of this size always has.
    score_tree = rng.choice(
        [f"nchain:{MINIMAX_NODES}",
         f"nrandom:{MINIMAX_NODES}:{rng.randrange(10**6)}"]
    )
    prune_tree = f"nrandom:{MINIMAX_NODES}:{rng.randrange(10**6)}"
    minimax_reqs = [
        Request("minimax-score", ["check-race", score, "--on-tree",
                                  score_tree], "race-free", "interp"),
        Request("minimax-prune", ["check-race", prune, "--on-tree",
                                  prune_tree], "race", "interp",
                replay=True),
    ]
    rng.shuffle(minimax_reqs)
    return reqs + minimax_reqs


# ----------------------------------------------------------------------
# CLI runners


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts.  The hash seed
    is pinned: set and dict iteration order moves the solver's work
    (T1.4 took 11.3 s to 15.2 s across hash seeds on a 2-core host,
    Python 3.11), and a run should compare code, not hash layouts.
    Temporary files (worker stderr, SQLite spill) go to ``tmp``, inside
    the checkout."""
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("REPRO_FAULT", "REPRO_FAULT_ONCE"):
        env.pop(var, None)
    return env


def cli_startup_s(env: Dict[str, str], repeats: int) -> List[float]:
    """Wall time of no-op ``python -m repro --help`` starts (import plus
    argument parsing), after one unmeasured start that fills the
    bytecode cache."""
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", "--help"], cwd=ROOT,
                       env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return times


@dataclass
class PassResult:
    wall_s: float
    outcomes: List[Outcome]
    setup_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


def run_cli_pass(reqs: Sequence[Request], env: Dict[str, str],
                 deadline: float, log: Callable[[str], None]) -> PassResult:
    """One closed-loop client: each request is a cold process."""
    outcomes = []
    t_start = time.perf_counter()
    for req in reqs:
        left = deadline - time.perf_counter()
        if left <= 0:
            outcomes.append(Outcome(req.rid, 0.0, False,
                                    detail="not sent: run budget spent"))
            continue
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *req.argv], cwd=ROOT,
                env=env, capture_output=True, text=True, timeout=left,
            )
            latency = time.perf_counter() - t0
            out = judge_cli(req, proc.returncode, proc.stdout, latency)
        except subprocess.TimeoutExpired:
            out = Outcome(req.rid, time.perf_counter() - t0, False,
                          detail="timed out")
        log(f"  {req.rid:<14} {out.latency_s:8.3f} s  "
            f"{out.verdict or 'FAILED ' + out.detail}")
        outcomes.append(out)
    return PassResult(time.perf_counter() - t_start, outcomes)


def run_inprocess_pass(reqs: Sequence[Request], deadline: float,
                       log: Callable[[str], None],
                       recorder=None) -> PassResult:
    """The same requests through ``repro.cli.main(argv)`` in this
    process (the traced path; no interpreter start).  With a recorder,
    each request is a ``request`` span."""
    import contextlib
    import io

    from repro import cli

    outcomes = []
    t_start = time.perf_counter()
    for req in reqs:
        if time.perf_counter() >= deadline:
            outcomes.append(Outcome(req.rid, 0.0, False,
                                    detail="not sent: run budget spent"))
            continue
        buf = io.StringIO()
        span = (recorder.span("request", req.rid) if recorder is not None
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(req.argv)
        latency = time.perf_counter() - t0
        if recorder is not None:
            recorder.harvest()
        out = judge_cli(req, rc, buf.getvalue(), latency)
        log(f"  {req.rid:<14} {latency:8.3f} s  {out.verdict}")
        outcomes.append(out)
    return PassResult(time.perf_counter() - t_start, outcomes)


def peak_child_rss_mb() -> float:
    """Peak RSS of the largest waited-for child (or its descendants)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# daemon-generated


#: The generated query pool: race queries from these ``repro.gen`` seeds
#: and identity equivalence pairs from these (even) seeds.  Independent
#: pairs (odd seeds) have no block correspondence, so ``check-fusion``
#: refuses them.  The pool is fixed so every run does the same solve
#: work; the benchmark seed picks the order of the first asks, of the
#: repeats and of the replays after the restart in each daemon life.
RACE_GEN_SEEDS = tuple(range(10))
EQUIV_GEN_SEEDS = tuple(range(0, 12, 2))
CLIENTS = 2
SCOPE_REF = 3


@dataclass
class GenQuery:
    rid: str
    kind: str  # "race" | "equiv"
    task: Any  # repro.service.protocol.Task
    must_find: bool  # the reference found a race / a difference


def _reference(kind: str, programs) -> bool:
    """Did the interpreter or the bounded engine (scope ``SCOPE_REF``)
    find a race / an observable difference?"""
    from repro.core.transform import correspondence_by_key
    from repro.engine import get_engine
    from repro.engine.query import EquivalenceQuery, RaceQuery

    if kind == "race":
        query = RaceQuery(programs[0], scope=SCOPE_REF)
    else:
        p, q = programs
        query = EquivalenceQuery(p, q, correspondence_by_key(p, q),
                                 scope=SCOPE_REF)
    return any(get_engine(name).run(query, scope=SCOPE_REF).found
               for name in ("interp", "bounded"))


def daemon_pool() -> List[GenQuery]:
    """The generated queries, each with its reference."""
    from repro.gen import gen_equivalence_query, gen_race_query
    from repro.service.worker import task_for_fusion, task_for_race

    opts = {"engine": "mso"}
    pool: List[GenQuery] = []
    for s in RACE_GEN_SEEDS:
        q = gen_race_query(s)
        pool.append(GenQuery(
            f"race-{s}", "race",
            task_for_race(q.source, options=opts, name=f"race-{s}"),
            _reference("race", (q.program(),)),
        ))
    for s in EQUIV_GEN_SEEDS:
        q = gen_equivalence_query(s)
        pool.append(GenQuery(
            f"equiv-{s}", "equiv",
            task_for_fusion(q.source, q.source2, options=opts,
                            name=f"equiv-{s}-p", name2=f"equiv-{s}-q"),
            _reference("equiv", q.programs()),
        ))
    return pool


def daemon_order(pool: Sequence[GenQuery],
                 rng: random.Random) -> Dict[str, Any]:
    """One daemon life's request stream, in an order drawn from ``rng``.

    The life runs in barrier-separated phases that both clients drain
    from one shared queue (so the solve work splits evenly whatever the
    order): both clients ask for one key at once (one request is
    coalesced); every other key once (solved: spawn, solve, cache
    write); every key again (memory-tier hits).  After a drain and
    restart every key once more: SQLite-tier hits.  The coalesced key is
    the smallest program, the same in every order, because one worker
    idles while it is solved."""
    shared = min(pool, key=lambda q: len(json.dumps(q.task.payload)))
    rest = [q for q in pool if q is not shared]
    rng.shuffle(rest)
    repeats, replay = list(pool), list(pool)
    rng.shuffle(repeats)
    rng.shuffle(replay)
    return {"phases": [[shared] * CLIENTS, rest], "repeats": repeats,
            "replay": replay}


class DaemonRun:
    """One daemon's life on a run directory: boot, serve, drain."""

    def __init__(self, run_dir: Path, env: Dict[str, str],
                 trace_dir: Optional[Path]) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout root (every process runs there), which
        # keeps the socket path short of the AF_UNIX limit.
        self.socket = os.path.relpath(run_dir / "d.sock", ROOT)
        serve = ["serve", os.path.relpath(run_dir, ROOT), "--socket",
                 self.socket, "--jobs", "2", "--quiet"]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    str(trace_dir), *serve]
        self.stderr_path = run_dir / "daemon.stderr"
        with open(self.stderr_path, "ab") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=err)
        try:
            self.boot_s = self._wait_ready(t0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_ready(self, t0: float) -> float:
        from repro.service.client import DaemonClient, DaemonError

        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited during boot: "
                    + self.stderr_path.read_text(errors="replace")[-500:]
                )
            try:
                with DaemonClient(Path(self.socket), client_id="boot",
                                  timeout_s=10.0) as c:
                    c.status()
                return time.perf_counter() - t0
            except DaemonError:
                if time.perf_counter() - t0 > 60.0:
                    raise
                time.sleep(0.005)

    def status(self) -> Dict[str, Any]:
        from repro.service.client import DaemonClient

        with DaemonClient(Path(self.socket), client_id="bench") as c:
            return c.status()

    def stop(self) -> None:
        """Drain and wait for a clean exit."""
        from repro.service.client import DaemonClient

        try:
            with DaemonClient(Path(self.socket), client_id="bench") as c:
                c.shutdown()
            rc = self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if rc != 0:
            raise RuntimeError(f"daemon drain exited {rc}")


def _send_all(socket: str, client_id: str, queue: List[GenQuery],
              lock: threading.Lock, deadline: float, results: List) -> None:
    """A closed-loop client: takes the next query from the shared queue
    once the previous verdict is back."""
    from repro.service.client import DaemonClient, DaemonError
    from repro.service.scheduler import ServiceOverloaded

    with DaemonClient(Path(socket), client_id=client_id,
                      timeout_s=max(1.0, deadline - time.perf_counter())) as c:
        while True:
            with lock:
                if not queue:
                    return
                q = queue.pop(0)
            if time.perf_counter() >= deadline:
                results.append((q, Outcome(q.rid, 0.0, False,
                                           detail="not sent: run budget spent"), None))
                continue
            t0 = time.perf_counter()
            try:
                reply = c.submit_task(q.task, max_wait_s=5.0)
            except (ServiceOverloaded, DaemonError) as e:
                results.append((q, Outcome(q.rid, time.perf_counter() - t0,
                                           False, detail=str(e)), None))
                continue
            latency = time.perf_counter() - t0
            results.append((q, Outcome(q.rid, latency, True,
                                       cached=bool(reply.get("cached"))),
                            reply))


def judge_daemon(results, first: Dict[str, str]) -> List[Outcome]:
    """Check replies against the references; ``first`` maps each key to
    its first verdict, which every repeat must return."""
    outcomes = []
    for q, out, reply in results:
        if reply is not None:
            value = reply.get("value") or {}
            verdict = value.get("verdict", "")
            if not reply.get("ok") or verdict in ("", "unknown"):
                out.ok = False
                out.detail = str(reply.get("detail") or verdict or "no verdict")
            else:
                out.verdict = verdict
                if value.get("engine") != "mso":
                    raise WrongVerdict(f"{q.rid}: decided by "
                                       f"{value.get('engine')!r}, not mso")
                if q.must_find and verdict in ("race-free", "equivalent"):
                    raise WrongVerdict(
                        f"{q.rid}: {verdict!r}, but the interpreter or the "
                        f"bounded engine (scope {SCOPE_REF}) found a "
                        f"{'race' if q.kind == 'race' else 'difference'}")
                if first.setdefault(q.rid, verdict) != verdict:
                    raise WrongVerdict(f"{q.rid}: repeat returned {verdict!r}"
                                       f", first answer {first[q.rid]!r}")
        outcomes.append(out)
    return outcomes


def _phase(daemon: DaemonRun, queries: Sequence[GenQuery],
           deadline: float):
    """Both clients drain ``queries``; returns (wall time, results)."""
    queue, lock, results = list(queries), threading.Lock(), []
    threads = [
        threading.Thread(target=_send_all,
                         args=(daemon.socket, f"c{i}", queue, lock,
                               deadline, results))
        for i in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=max(1.0, deadline - time.perf_counter() + 30.0))
    wall = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("daemon client did not finish")
    return wall, results


def _status_counts(status: Dict[str, Any]) -> Dict[str, float]:
    counters = status["queue"]["counters"]
    return {
        "cache_hits": status["cache_hits"],
        "coalesced": status["coalesced"],
        "retries": status["retry_budget"]["spent_total"],
        "rejected": (counters.get("rejected_full", 0)
                     + counters.get("rejected_quota", 0)
                     + counters.get("shed", 0)),
    }


def run_daemon_pass(inputs: Dict[str, Any], run_dir: Path,
                    env: Dict[str, str], deadline: float,
                    log: Callable[[str], None],
                    trace_dir: Optional[Path] = None) -> PassResult:
    """Boot, first asks, repeats, drain; reboot on the same run
    directory, replay.  Repeats and replays are marked ``repeat``: a
    cache hit takes a few milliseconds and its run-to-run spread on a
    shared two-core host (about 20%) would otherwise set the latency
    metrics, so those cover the first asks and the hits are reported on
    their own (``service.hit_latency_p50_s``)."""
    first: Dict[str, str] = {}
    counts = {"cache_hits": 0, "coalesced": 0, "retries": 0, "rejected": 0}
    results, wall = [], 0.0
    daemon = DaemonRun(run_dir, env, trace_dir)
    try:
        for queries in inputs["phases"]:
            t, res = _phase(daemon, queries, deadline)
            wall += t
            results += res
        t, repeats = _phase(daemon, inputs["repeats"], deadline)
        wall += t
        for k, v in _status_counts(daemon.status()).items():
            counts[k] += v
    finally:
        daemon.stop()
    boots = [daemon.boot_s]
    daemon = DaemonRun(run_dir, env, trace_dir)
    try:
        t, replayed = _phase(daemon, inputs["replay"], deadline)
        wall += t
        for k, v in _status_counts(daemon.status()).items():
            counts[k] += v
    finally:
        daemon.stop()
    boots.append(daemon.boot_s)
    for _q, o, _r in repeats + replayed:
        o.repeat = True
    results += repeats + replayed
    outcomes = judge_daemon(results, first)
    hits = sum(1 for o in outcomes if o.ok and o.cached)
    log(f"  boots {boots[0]:.3f} s + {boots[1]:.3f} s; {len(outcomes)} "
        f"requests, {hits} cache hits, {counts['coalesced']} coalesced; "
        f"{wall:.3f} s")
    unconfirmed = sorted({
        q.rid for q, o, r in results
        if o.verdict in ("race", "not-equivalent")
        and not ((r["value"].get("replay") or {}).get("confirmed"))
    })
    if unconfirmed:
        # Allowed by the reference (only clean verdicts are checked): the
        # symbolic encoding is conservative, so a counterexample may not
        # replay on a concrete run.
        log(f"  counterexamples not confirmed by replay: "
            f"{', '.join(unconfirmed)}")
    missed = [q.rid for q, o, _r in replayed if not o.cached]
    if missed:
        log(f"  the restarted daemon solved again: {', '.join(missed)}")
    counts["cache_hit_ratio"] = hits / len(outcomes)
    return PassResult(wall, outcomes, sum(boots),
                      {f"service.{k}": v for k, v in counts.items()})
