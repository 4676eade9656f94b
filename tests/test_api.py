"""Tests for the top-level verification API (engines, replay, fallback)."""

import pytest

from repro import check_data_race, check_equivalence
from repro.casestudies import cycletree, sizecount, treemutation


class TestDataRaceApi:
    def test_bounded_race_free(self, sizecount_par):
        r = check_data_race(sizecount_par, engine="bounded")
        assert r.verdict == "race-free" and r.holds
        assert r.engine == "bounded"

    def test_bounded_race_found_and_replayed(self, cycletree_par):
        r = check_data_race(cycletree_par, engine="bounded")
        assert r.verdict == "race" and not r.holds
        assert r.replay is not None and r.replay.confirmed
        assert "race" in r.replay.detail

    def test_invalid_program_rejected(self):
        from repro.lang import ValidationError, parse_program

        p = parse_program("F(n) { x = F(n); return x }")
        with pytest.raises(ValidationError):
            check_data_race(p, engine="bounded")

    def test_result_str(self, sizecount_par):
        r = check_data_race(sizecount_par, engine="bounded")
        assert "race-free" in str(r) and "bounded" in str(r)


class TestEquivalenceApi:
    def test_valid_fusion(self, sizecount_seq, sizecount_fused):
        r = check_equivalence(
            sizecount_seq,
            sizecount_fused,
            sizecount.fusion_correspondence(),
            engine="bounded",
        )
        assert r.verdict == "equivalent" and r.holds
        assert "bisimulation" in r.details

    def test_invalid_fusion_replay_confirms(
        self, sizecount_seq, sizecount_fused_bad
    ):
        r = check_equivalence(
            sizecount_seq,
            sizecount_fused_bad,
            sizecount.invalid_fusion_correspondence(),
            engine="bounded",
        )
        assert r.verdict == "not-equivalent"
        assert r.replay is not None and r.replay.confirmed
        assert "differ" in r.replay.detail

    def test_bisim_gate(self):
        """Programs failing bisimulation are rejected before the conflict
        query runs."""
        from repro.core.transform import correspondence_by_key
        from repro.lang import parse_program

        p = parse_program(
            "F(n) { if (n == nil) { return 0 } else { a = F(n.l); "
            "return a + 1 } }\nMain(n) { x = F(n); return x }",
            name="left",
        )
        q = parse_program(
            "F(n) { if (n == nil) { return 0 } else { a = F(n.r); "
            "return a + 1 } }\nMain(n) { x = F(n); return x }",
            name="right",
        )
        r = check_equivalence(
            p, q, correspondence_by_key(p, q), engine="bounded"
        )
        assert r.verdict == "not-equivalent" and r.engine == "bisim"

    def test_bisim_gate_can_be_skipped(self, sizecount_seq, sizecount_fused):
        r = check_equivalence(
            sizecount_seq,
            sizecount_fused,
            sizecount.fusion_correspondence(),
            engine="bounded",
            check_bisim=False,
        )
        assert "bisimulation" not in r.details

    def test_treemutation_equivalent(
        self, treemutation_orig, treemutation_fused
    ):
        r = check_equivalence(
            treemutation_orig,
            treemutation_fused,
            treemutation.fusion_correspondence(),
            engine="bounded",
        )
        assert r.verdict == "equivalent"


class TestDegradationLadder:
    def test_unknown_verdict_does_not_hold(self, sizecount_par):
        """An exhausted mso-only run is ``unknown`` with holds=False —
        never silently ``race-free``."""
        r = check_data_race(
            sizecount_par, engine="mso", mso_deadline_s=0.05, replay=False
        )
        assert r.verdict == "unknown"
        assert not r.holds
        assert r.details["mso_status"] == "deadline"
        assert r.details["decided_by"] is None
        assert r.details["attempts"][0]["rung"] == "mso"
        assert r.details["attempts"][0]["outcome"] == "deadline"

    def test_auto_degrades_to_bounded(self, sizecount_par):
        r = check_data_race(
            sizecount_par,
            engine="auto",
            mso_deadline_s=0.05,
            max_internal=2,
            replay=False,
        )
        assert r.verdict == "race-free" and r.holds
        assert r.engine == "mso+bounded"
        assert r.details["decided_by"] == "bounded@2"
        rungs = [a["rung"] for a in r.details["attempts"]]
        assert rungs == ["mso", "bounded@2"]

    def test_attempts_record_decided_rung(self, sizecount_par):
        r = check_data_race(sizecount_par, engine="auto", replay=False)
        assert r.verdict == "race-free"
        assert r.details["decided_by"] == "mso"
        (attempt,) = r.details["attempts"]
        assert attempt["outcome"] == "decided"
        assert attempt["limits"]["det_budget"] == 50_000
        assert attempt["elapsed"] > 0

    def test_bounded_scope_shrinks_on_overrun(self, sizecount_par):
        """A bounded deadline too tight for the big scopes shrinks until a
        scope fits; the result names the scope that decided."""
        r = check_data_race(
            sizecount_par,
            engine="bounded",
            max_internal=4,
            bounded_deadline_s=0.15,
            replay=False,
        )
        assert r.verdict in ("race-free", "unknown")
        if r.verdict == "race-free":
            assert r.details["decided_by"].startswith("bounded@")
        else:
            assert not r.holds and r.details["decided_by"] is None

    def test_merge_race_ignores_undecided_symbolic_witness(self):
        """Regression: an undecided symbolic verdict carrying stale witness
        state must never out-vote a completed bounded verdict."""
        from repro.core.api import _merge_race
        from repro.core.bounded import BoundedVerdict
        from repro.core.symbolic import SymbolicVerdict

        stale = SymbolicVerdict(query="q", found=True, status="budget")
        stale.witness = object()
        clean = BoundedVerdict(query="q", found=False)
        found, tree, witness = _merge_race(stale, clean)
        assert found is False and tree is None and witness is None
        # And with no bounded verdict at all, nothing is reported.
        found, tree, witness = _merge_race(stale, None)
        assert found is False and tree is None and witness is None

    def test_symbolic_retry_rung_escalates_budgets(self):
        """Stubbed ladder: budget exhaustion triggers exactly one retry
        with LADDER_ESCALATION'd budgets sharing the remaining deadline."""
        from repro.core.api import LADDER_ESCALATION, _symbolic_ladder
        from repro.core.symbolic import SymbolicVerdict

        calls = []

        def run_sym(solver, guard):
            calls.append((solver.compiler.det_budget, solver.product_budget))
            status = "budget" if len(calls) == 1 else "decided"
            return SymbolicVerdict(query="q", found=False, status=status)

        attempts, details = [], {}
        sym, rung = _symbolic_ladder(
            run_sym, "auto", 1000, 60.0, None, attempts, details
        )
        assert sym.status == "decided" and rung == "mso-retry"
        assert calls == [
            (1000, calls[0][1]),
            (1000 * LADDER_ESCALATION, calls[0][1] * LADDER_ESCALATION),
        ]
        assert [a["outcome"] for a in attempts] == ["budget", "decided"]

    def test_symbolic_retry_skipped_when_no_time_left(self):
        from repro.core.api import _symbolic_ladder
        from repro.core.symbolic import SymbolicVerdict

        calls = []

        def run_sym(solver, guard):
            calls.append(1)
            return SymbolicVerdict(query="q", found=False, status="budget")

        attempts, details = [], {}
        sym, rung = _symbolic_ladder(
            run_sym, "auto", 1000, 0.2, None, attempts, details
        )
        assert len(calls) == 1 and rung == "mso"
        assert sym.status == "budget"

    def test_internal_error_recorded_and_falls_back(self, racy_par):
        from repro.runtime import SolverInternalError
        from repro.runtime import faults

        faults.disarm_all()
        spec = faults.arm("emptiness.fixpoint", hit=1, action="raise")
        try:
            r = check_data_race(
                racy_par, engine="auto", max_internal=2, replay=False
            )
        finally:
            faults.disarm_all()
        assert spec.fired
        assert r.verdict == "race"
        assert "mso_error" in r.details
        assert r.details["decided_by"] == "bounded@2"
