"""Lockstep differential test for the compiler's rename path.

The shape memo of :mod:`repro.mso.compile` serves a formula whose shape
it has compiled before, over other tracks, by relabelling the cached
automaton's guards (``TreeAutomaton.renamed`` → ``BDDManager.rename``)
instead of building it.  The reference is a fresh :class:`Compiler` over
the same registry, which has never seen the shape: every
``config_core_parts`` conjunct of the second configuration family must
come out of both with the same state count, the same determinism flag,
and the same language (symmetric difference empty: complement, product,
emptiness).
"""

import pytest

from repro.automata.emptiness import is_empty
from repro.automata.tta import TrackRegistry, TreeAutomaton
from repro.bdd import BDDManager
from repro.bdd.reference import ReferenceBDDManager
from repro.casestudies import css, cycletree, sizecount, treemutation
from repro.core.configurations import ProgramModel
from repro.core.encode import Encoder
from repro.gen import GenConfig, RandomSource, gen_program_source
from repro.lang import parse_program
from repro.mso import syntax as S
from repro.mso.compile import Compiler

# The programs of Table 1's T1.1–T1.5 and T1.7.
TABLE1_PROGRAMS = {
    "sizecount-seq": sizecount.sequential_program,
    "sizecount-fused": sizecount.fused_valid,
    "sizecount-fused-bad": sizecount.fused_invalid,
    "sizecount-par": sizecount.parallel_program,
    "treemutation-orig": treemutation.original_program,
    "treemutation-fused": treemutation.fused_program,
    "css-orig": css.original_program,
    "css-fused": css.fused_program,
    "cycletree-par": cycletree.parallel_program,
}
GEN_SEEDS = (0, 1, 2, 3, 5, 11)


def _program(name):
    if name.startswith("gen-"):
        seed = int(name[4:])
        src = gen_program_source(RandomSource(seed), GenConfig())
        return parse_program(src, name=name)
    return TABLE1_PROGRAMS[name]()


def _families(program, registry):
    enc = Encoder(ProgramModel(program), "P")
    ct1, ct2 = enc.tracks(1), enc.tracks(2)
    enc.preregister(registry, (ct1, ct2))
    return enc, ct1, ct2


def _language_equal(a: TreeAutomaton, b: TreeAutomaton) -> bool:
    def conj(x, y):
        return x and y

    return is_empty(a.product(b.complemented(), conj)) and is_empty(
        a.complemented().product(b, conj)
    )


@pytest.mark.parametrize(
    "name", list(TABLE1_PROGRAMS) + [f"gen-{s}" for s in GEN_SEEDS]
)
def test_renamed_core_matches_fresh_build(name):
    registry = TrackRegistry()
    enc, ct1, ct2 = _families(_program(name), registry)
    warm = Compiler(registry)
    for part in enc.config_core_parts(ct1):
        warm.compile(part)
    fresh = Compiler(registry)
    for part in enc.config_core_parts(ct2):
        built, renamed = warm.stats.built, warm.stats.renamed
        served = warm.compile(part)
        assert warm.stats.built == built, "family 2 rebuilt a family-1 shape"
        assert warm.stats.renamed == renamed + 1, "rename path not taken"
        ref = fresh.compile(part)
        assert served.tracks == ref.tracks
        assert served.n_states == ref.n_states
        assert served.deterministic == ref.deterministic
        assert _language_equal(served, ref), str(part)[:200]


def test_same_tracks_hit_returns_identical_object():
    comp = Compiler()
    f = S.And((S.Sing("X"), S.Subset("X", "Y")))
    first = comp.compile(f)
    hits = comp.stats.memo_hits
    assert comp.compile(f) is first
    assert comp.stats.memo_hits == hits + 1
    # An alpha-variant over other tracks is served by renaming, and
    # asking for those tracks again returns that renamed object.
    g = S.And((S.Sing("U"), S.Subset("U", "W")))
    other = comp.compile(g)
    assert other is not first and other.tracks == {"U", "W"}
    assert comp.stats.renamed == 1
    assert comp.compile(g) is other


def test_rank_order_is_part_of_the_key():
    """Tracks whose level order differs from the cached family's are a
    different key: built, never renamed through a non-monotone map."""
    comp = Compiler()
    for name in ("A", "B", "C"):
        comp.registry.level(name)
    comp.compile(S.Subset("A", "B"))
    comp.compile(S.Subset("B", "C"))  # same rank order: renamed
    assert comp.stats.renamed == 1
    comp.compile(S.Subset("C", "A"))  # order flipped: built
    assert comp.stats.renamed == 1 and comp.stats.built == 2


@pytest.mark.parametrize("manager_cls", [BDDManager, ReferenceBDDManager])
def test_rename_rejects_non_monotone_maps(manager_cls):
    mgr = manager_cls()
    u = mgr.apply_and(mgr.var(0), mgr.nvar(1))
    with pytest.raises(ValueError):
        mgr.rename(u, {0: 3, 1: 2})
    with pytest.raises(ValueError):
        mgr.rename(u, {0: 2})  # level 1 unmapped
    v = mgr.rename(u, {0: 2, 1: 3})
    assert mgr.level(v) == 2 and mgr.support(v) == {2, 3}
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        want = mgr.evaluate(u, lambda lvl: bits[lvl])
        got = mgr.evaluate(v, lambda lvl: bits[lvl - 2])
        assert want == got


def test_renamed_automaton_rejects_order_swapping_track_map():
    comp = Compiler()
    a = comp.compile(S.Subset("X", "Y"))
    with pytest.raises(ValueError):
        a.renamed({"X": "Y", "Y": "X"})


def test_mso_stats_show_the_memo(sizecount_par, monkeypatch):
    """T1.3 through the public API: ``details["mso_stats"]`` reports the
    memo, every ``_compile`` call is counted exactly once, and the second
    configuration family is served by renaming."""
    from repro import check_data_race

    calls = []
    real = Compiler._compile

    def counting(self, f):
        calls.append(1)
        return real(self, f)

    monkeypatch.setattr(Compiler, "_compile", counting)
    res = check_data_race(sizecount_par, engine="mso", replay=False)
    assert res.verdict == "race-free"
    st = res.details["mso_stats"]
    assert st["compile_renamed"] > 0
    assert st["compile_memo_hits"] > 0 and st["compile_built"] > 0
    assert (
        st["compile_memo_hits"] + st["compile_renamed"] + st["compile_built"]
        == len(calls)
    )
