"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- statistics ----------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.median(xs) == 3.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_of_ten_samples_sits_between_the_top_two():
    xs = list(range(1, 11))
    assert stats.percentile(xs, 90) == pytest.approx(9.1)


def test_geomean_weighs_inputs_equally():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert stats.geomean([0.5]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# -- spans and self time ---------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_from_nested_spans():
    # request [0, 10] > compile [1, 7] > minimize [2, 5]; parse [8, 9]
    spans = [
        (2, "automata.minimize", 2.0, 5.0, 1, "r"),
        (1, "mso.compile", 1.0, 7.0, 0, "r"),
        (3, "lang.parse", 8.0, 9.0, 0, "r"),
        (0, "request", 0.0, 10.0, None, "r"),
    ]
    assert tracing.self_times(spans) == {
        "automata.minimize": 3.0,
        "mso.compile": 3.0,
        "lang.parse": 1.0,
        "request": 3.0,
    }


def test_recorder_self_time_matches_span_log():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    with rec.span("request", "r1"):
        clock.t = 1.0
        with rec.span("mso.compile"):
            clock.t = 2.0
            with rec.span("automata.minimize"):
                clock.t = 5.0
            clock.t = 7.0
        clock.t = 10.0
    assert dict(rec.self_s) == tracing.self_times(rec.spans)
    assert rec.self_s["request"] == 4.0
    assert rec.self_s["mso.compile"] == 3.0
    assert {s[5] for s in rec.spans} == {"r1"}
    parent_of = {s[1]: s[4] for s in rec.spans}
    ids = {s[1]: s[0] for s in rec.spans}
    assert parent_of["automata.minimize"] == ids["mso.compile"]
    assert parent_of["request"] is None


def test_leaf_time_leaves_the_enclosing_self_time():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)

    def leaf_op(x):
        clock.t += 2.0
        return x

    wrapped = tracing._make_leaf_wrapper(rec, leaf_op, "bdd.apply", [False])
    with rec.span("automata.product"):
        clock.t = 1.0
        with rec.span("automata.minimize"):
            wrapped(1)
        wrapped(2)
        clock.t += 1.0
    s = rec.summary()
    assert s["self_s"]["bdd.apply"] == 4.0
    assert s["calls"]["bdd.apply"] == 2
    assert s["self_s"]["automata.minimize"] == 0.0
    assert s["self_s"]["automata.product"] == 2.0


def test_merge_sums_process_summaries():
    a = {"self_s": {"x": 1.0}, "calls": {"x": 2}, "counters": {"c": 3},
         "spans": 4}
    b = {"self_s": {"x": 0.5, "y": 1.0}, "calls": {"y": 1}, "counters": {},
         "spans": 1}
    m = tracing.merge([a, b])
    assert m["self_s"] == {"x": 1.5, "y": 1.0}
    assert m["calls"] == {"x": 2, "y": 1}
    assert m["spans"] == 5


# -- wrappers ----------------------------------------------------------------


def _installed():
    rec = tracing.Recorder()
    return rec, tracing.install(rec, tracing.SOLVER_TARGETS
                                + tracing.SERVICE_TARGETS)


def test_wrappers_patch_every_binding_site_and_restore_identity():
    import repro.mso.compile  # binds minimize by name at import time
    import repro.solver.solver  # noqa: F401  imports it lazily

    minimize_mod = sys.modules["repro.automata.minimize"]
    original = minimize_mod.minimize
    original_product = repro.automata.tta.TreeAutomaton.product
    rec, patches = _installed()
    try:
        assert minimize_mod.minimize is not original
        assert repro.mso.compile.minimize is minimize_mod.minimize
        assert minimize_mod.minimize.__wrapped__ is original
        assert repro.automata.tta.TreeAutomaton.product is not original_product
    finally:
        tracing.uninstall(patches)
    assert minimize_mod.minimize is original
    assert repro.mso.compile.minimize is original
    assert repro.automata.tta.TreeAutomaton.product is original_product
    assert tracing.restored(patches)


def test_uninstall_repairs_modules_imported_while_tracing():
    minimize_mod = sys.modules.get("repro.automata.minimize")
    if minimize_mod is None:
        import repro.automata.minimize  # noqa: F401
        minimize_mod = sys.modules["repro.automata.minimize"]
    original = minimize_mod.minimize
    rec, patches = _installed()
    late = types.ModuleType("repro._late_import")
    late.minimize = minimize_mod.minimize  # `from ... import` while traced
    sys.modules[late.__name__] = late
    try:
        tracing.uninstall(patches)
        assert late.minimize is original
        assert tracing.restored(patches)
    finally:
        del sys.modules[late.__name__]


def test_wrapped_calls_record_spans_and_counters():
    from repro.bdd.bdd import BDDManager
    from repro.lang import parser

    rec, patches = _installed()
    try:
        with rec.span("request", "q"):
            parser.parse_program("Main(n) { return 0 }")
            mgr = BDDManager()
            a, b = mgr.var(0), mgr.var(1)
            mgr.apply_and(mgr.apply_or(a, b), mgr.apply_not(a))
        rec.harvest()
    finally:
        tracing.uninstall(patches)
    s = rec.summary()
    assert s["calls"]["lang.parse"] == 1
    assert s["calls"]["bdd.apply"] == 3  # outermost calls only
    assert s["counters"]["bdd.nodes"] > 0
    parse = next(sp for sp in rec.spans if sp[1] == "lang.parse")
    request = next(sp for sp in rec.spans if sp[1] == "request")
    assert parse[4] == request[0] and parse[5] == "q"


# -- metric tables -------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in tracing.LAYER_METRICS
    ]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in tracing.LAYER_METRICS}
    for m in tracing.LAYER_METRICS:
        assert set(m["moves"]) <= end_to_end | layer_names
        assert set(m["on"]) | set(m["still"]) <= set(run.WORKLOADS)


def test_layer_metrics_reports_every_layer_metric():
    summary = {"self_s": {"request": 2.0, "automata.minimize": 1.5},
               "calls": {"automata.minimize": 3, "solver.sat": 4},
               "counters": {"automata.minimize.in": 10,
                            "automata.minimize.out": 4,
                            "bdd.cache_hits": 3, "bdd.cache_misses": 1},
               "spans": 9}
    out = tracing.layer_metrics(summary, {"trace.overhead": 1.25})
    assert list(out) == [m["name"] for m in tracing.LAYER_METRICS]
    assert out["other_s"] == 2.0
    assert out["automata.minimize_s"] == 1.5
    assert out["automata.minimize_calls"] == 3
    assert out["automata.minimize_state_ratio"] == pytest.approx(0.4)
    assert out["bdd.op_cache_hit_ratio"] == pytest.approx(0.75)
    assert out["solver.queries"] == 4
    assert out["trace.overhead"] == 1.25
    assert out["automata.reduce_nfta_state_ratio"] == 0.0


# -- verdict checking ------------------------------------------------------------


def test_judge_cli_accepts_the_reference_and_rejects_the_rest():
    req = workloads.Request("T1.7", [], "race", "mso", replay=True)
    ok = workloads.judge_cli(
        req, 1, "data-race(p): race [mso, 4.7s]; replay: confirmed\n", 4.7)
    assert ok.ok and ok.verdict == "race"
    with pytest.raises(workloads.WrongVerdict):
        workloads.judge_cli(req, 0, "data-race(p): race-free [mso, 1s]\n", 1)
    with pytest.raises(workloads.WrongVerdict):  # replay not confirmed
        workloads.judge_cli(
            req, 1, "data-race(p): race [mso, 1s]; replay: unconfirmed\n", 1)
    with pytest.raises(workloads.WrongVerdict):  # another engine decided
        workloads.judge_cli(req, 1, "data-race(p): race [bounded, 1s]; "
                            "replay: confirmed\n", 1)
    unknown = workloads.judge_cli(req, 3, "data-race(p): unknown [mso, 1s]\n", 1)
    assert not unknown.ok


def test_daemon_stream_is_a_function_of_the_seed():
    pool = workloads.daemon_pool()
    a, b, c = (workloads.daemon_order(pool, random.Random(s))
               for s in (5, 5, 6))

    def rids(inputs):
        return ([[q.rid for q in ph] for ph in inputs["phases"]],
                [q.rid for q in inputs["replay"]])

    assert rids(a) == rids(b)
    assert rids(a) != rids(c)
    first, once = a["phases"]
    keys = sorted(q.rid for q in first[:1] + once)
    assert len(set(q.rid for q in first)) == 1
    assert len(set(keys)) == len(keys)
    assert sorted(q.rid for q in a["repeats"]) == keys
    assert sorted(q.rid for q in a["replay"]) == keys
