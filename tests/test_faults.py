"""Fault-injection harness tests (DESIGN.md §7).

The soundness claim: an injected failure at any probe point either
surfaces as a typed :class:`ReproError` (``engine="mso"``) or is
absorbed by the degradation ladder, which re-decides through a lower
rung — it must NEVER flip a verdict.  Parallel ``sizecount`` is
race-free and its fusion is valid, so any ``"race"``/``"not-equivalent"``
under injection is a silent wrong verdict and fails the sweep.
"""

import os

import pytest

from repro import check_data_race, check_equivalence
from repro.casestudies import sizecount
from repro.runtime import ReproError, SolverInternalError
from repro.runtime import faults
from repro.runtime.faults import InjectedFault


@pytest.fixture(autouse=True)
def _disarm():
    faults.disarm_all()
    yield
    faults.disarm_all()


class TestHarness:
    def test_arm_validates(self):
        with pytest.raises(ValueError):
            faults.arm("no.such.probe")
        with pytest.raises(ValueError):
            faults.arm("bdd.apply", action="explode")
        with pytest.raises(ValueError):
            faults.arm("bdd.apply", hit=0)

    def test_armed_flag_tracks_specs(self):
        assert faults.ARMED is False
        faults.arm("bdd.apply")
        assert faults.ARMED is True
        faults.disarm_all()
        assert faults.ARMED is False
        assert faults.active() == []

    def test_fire_counts_hits_and_is_one_shot(self):
        faults.arm("product.expand", hit=3)
        assert faults.fire("product.expand", "v1") == "v1"
        assert faults.fire("product.expand", "v2") == "v2"
        with pytest.raises(InjectedFault) as ei:
            faults.fire("product.expand", "v3")
        assert ei.value.phase == "product.expand"
        # One-shot: subsequent hits pass through untouched.
        assert faults.fire("product.expand", "v4") == "v4"

    def test_unarmed_probe_passes_through(self):
        faults.arm("bdd.apply", hit=10)
        assert faults.fire("emptiness.fixpoint", ("q",)) == ("q",)

    def test_injected_fault_is_typed(self):
        assert issubclass(InjectedFault, SolverInternalError)
        assert issubclass(InjectedFault, ReproError)

    def test_install_from_env_parses(self):
        specs = faults.install_from_env(
            {"REPRO_FAULT": "bdd.apply:7:corrupt, emptiness.fixpoint:2"}
        )
        assert [(s.probe, s.hit, s.action) for s in specs] == [
            ("bdd.apply", 7, "corrupt"),
            ("emptiness.fixpoint", 2, "raise"),
        ]
        assert faults.ARMED is True

    def test_install_from_env_empty(self):
        assert faults.install_from_env({}) == []
        assert faults.ARMED is False


# The sweep covers the solver-internal probes only: the service-layer
# probes (queue-full, cache-row-corrupt, drain-interrupt, worker-abort)
# fire in admission/cache/daemon code that an in-process solve never
# reaches, and have their own tests in test_daemon.py / test_service.py.
SWEEP = [
    (probe, action, hit)
    for probe in faults.SOLVER_PROBES
    for action in ("raise", "corrupt")
    for hit in ((1, 97) if action == "raise" else (1,))
]


class TestNoSilentWrongVerdicts:
    """The acceptance sweep: every probe, raise and corrupt."""

    @pytest.mark.parametrize("probe,action,hit", SWEEP)
    def test_race_query_survives_injection(
        self, sizecount_par, probe, action, hit
    ):
        faults.arm(probe, hit=hit, action=action)
        try:
            r = check_data_race(
                sizecount_par,
                engine="auto",
                mso_deadline_s=20,
                max_internal=2,
                replay=False,
            )
        except ReproError:
            return  # typed failure is an accepted outcome
        # The query completed: the verdict must be the true one.
        assert r.verdict == "race-free", (
            f"fault {probe}:{hit}:{action} flipped the verdict to {r.verdict!r}"
        )
        fired = any(s.fired for s in faults.active())
        if fired:
            # The ladder must have recorded the failed symbolic rung and
            # decided through the bounded rung instead.
            outcomes = {a["rung"]: a["outcome"] for a in r.details["attempts"]}
            assert outcomes.get("mso") == "error"
            assert r.details["decided_by"].startswith("bounded@")

    @pytest.mark.parametrize("probe", faults.SOLVER_PROBES)
    def test_equivalence_query_survives_injection(
        self, sizecount_seq, sizecount_fused, probe
    ):
        faults.arm(probe, hit=1, action="raise")
        try:
            r = check_equivalence(
                sizecount_seq,
                sizecount_fused,
                sizecount.fusion_correspondence(),
                engine="auto",
                mso_deadline_s=20,
                max_internal=2,
                replay=False,
            )
        except ReproError:
            return
        assert r.verdict == "equivalent", (
            f"fault at {probe} flipped the verdict to {r.verdict!r}"
        )

    @pytest.mark.parametrize("action", ["raise", "corrupt"])
    def test_mso_engine_surfaces_typed_error(self, sizecount_par, action):
        """With no fallback rung, the failure must escape *typed*."""
        faults.arm("bdd.apply", hit=1, action=action)
        with pytest.raises(SolverInternalError):
            check_data_race(sizecount_par, engine="mso", replay=False)


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULT"),
    reason="REPRO_FAULT not set (CI fault-injection job sets it)",
)
def test_env_armed_probe_is_sound(sizecount_par):
    """CI entry point: arm whatever REPRO_FAULT names, assert soundness."""
    specs = faults.install_from_env()
    assert specs, "REPRO_FAULT set but parsed to no specs"
    try:
        r = check_data_race(
            sizecount_par, engine="auto", mso_deadline_s=20,
            max_internal=2, replay=False,
        )
    except ReproError:
        return
    assert r.verdict == "race-free"


class TestRefactoredHotPaths:
    """Sweep re-run pinned to the refactored decision hot path.

    The int-table BDD core, the batched antichain fixpoint, and the
    recorded interface saturations of the conflict engine moved the code
    the solver probes sit on; these re-assert the no-silent-wrong-verdict
    contract on the new paths, with deeper hit counts so the probes fire
    mid-saturation (not on the first op) and with the corrupt action on
    the equivalence path too.
    """

    def test_int_table_corrupt_handle_trips_index_error(self):
        """The 1 << 62 stand-in can never be a valid int-table index."""
        from repro.bdd import BDDManager

        mgr = BDDManager()
        bad = faults._corrupted("bdd.apply", mgr.true)
        assert bad == 1 << 62
        with pytest.raises(IndexError):
            mgr.level(bad)
        with pytest.raises(IndexError):
            mgr.apply_and(bad, mgr.var(0))

    @pytest.mark.parametrize(
        "probe,action,hit",
        [
            ("bdd.apply", "raise", 5001),
            ("bdd.apply", "corrupt", 5001),
            ("emptiness.fixpoint", "raise", 33),
            ("emptiness.fixpoint", "corrupt", 33),
            ("product.expand", "raise", 33),
            ("product.expand", "corrupt", 33),
        ],
    )
    def test_conflict_query_survives_mid_run_injection(
        self, sizecount_seq, sizecount_fused, probe, action, hit
    ):
        faults.arm(probe, hit=hit, action=action)
        try:
            r = check_equivalence(
                sizecount_seq,
                sizecount_fused,
                sizecount.fusion_correspondence(),
                engine="auto",
                mso_deadline_s=30,
                max_internal=2,
                replay=False,
            )
        except ReproError:
            return  # typed failure is an accepted outcome
        assert r.verdict == "equivalent", (
            f"fault {probe}:{hit}:{action} flipped the verdict "
            f"to {r.verdict!r}"
        )

    @pytest.mark.parametrize("antichain", [True, False])
    def test_antichain_paths_survive_fixpoint_injection(
        self, sizecount_par, antichain, monkeypatch
    ):
        """The probe sits on the batch drain both with and without
        subsumption pruning; neither path may mis-answer under fire."""
        from repro.automata.product import ProductAutomaton

        monkeypatch.setattr(ProductAutomaton, "ANTICHAIN", antichain)
        faults.arm("emptiness.fixpoint", hit=17, action="corrupt")
        try:
            r = check_data_race(
                sizecount_par,
                engine="auto",
                mso_deadline_s=20,
                max_internal=2,
                replay=False,
            )
        except ReproError:
            return
        assert r.verdict == "race-free"

    @pytest.mark.parametrize("action", ["raise", "corrupt"])
    def test_minimize_of_trimmed_conjunction_survives_bdd_fault(
        self, sizecount_seq, sizecount_fused, action, monkeypatch
    ):
        """``bdd.apply`` fires inside ``minimize`` of a trimmed
        ``Compiler._combine`` product (the only compiler call site that
        passes an incomplete automaton)."""
        import repro.mso.compile as compile_mod

        real = compile_mod.minimize
        fired = []

        def armed_minimize(a, *args, **kw):
            if fired or a.complete:
                return real(a, *args, **kw)
            spec = faults.arm("bdd.apply", hit=1, action=action)
            try:
                return real(a, *args, **kw)
            finally:
                if spec.fired:
                    fired.append(a.n_states)
                else:
                    faults.disarm_all()

        monkeypatch.setattr(compile_mod, "minimize", armed_minimize)
        try:
            r = check_equivalence(
                sizecount_seq,
                sizecount_fused,
                sizecount.fusion_correspondence(),
                engine="auto",
                mso_deadline_s=30,
                max_internal=2,
                replay=False,
            )
        except ReproError:
            r = None
        assert fired, "no trimmed conjunction minimize applied a BDD op"
        if r is not None:
            assert r.verdict == "equivalent"

    @pytest.mark.parametrize("phase", ["minimize", "reduce"])
    def test_expired_guard_cancels_refinement(self, phase):
        import time

        from repro.automata.minimize import minimize, prune_dead, reduce_nfta
        from repro.mso import syntax as S
        from repro.mso.compile import Compiler
        from repro.runtime import DeadlineExceeded, ResourceGuard

        conj = S.And((S.Sing("X"), S.Sing("Y"), S.Subset("X", "Y")))
        a = prune_dead(Compiler().compile(conj, already_fresh=True))
        assert a.n_states > 1 and not a.complete
        if phase == "reduce":
            a = a.projected(["Y"])
        reduce = minimize if phase == "minimize" else reduce_nfta
        guard = ResourceGuard(deadline=time.perf_counter() - 1.0)
        with pytest.raises(DeadlineExceeded) as ei:
            reduce(a, guard=guard)
        assert ei.value.phase == phase
