"""Tests for the symbolic tree-automata library.

The operations are validated against set semantics: for each construction,
acceptance on every small labelled tree must match the expected boolean
combination of the operands' acceptance.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    TrackRegistry,
    TreeAutomaton,
    determinize,
    find_witness,
    is_empty,
    minimize,
    prune_unreachable,
    split_guards,
)
from repro.automata.determinize import StateBudgetExceeded
from repro.automata.minimize import prune_dead, reduce_nfta
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.trees.generators import all_shapes


@pytest.fixture(scope="module")
def compiler():
    return Compiler()


@pytest.fixture(scope="module")
def trees():
    return [t for n in range(4) for t in all_shapes(n)]


def _labelings(tree, tracks, limit=None):
    """All labelings of the tree over the given tracks (or a sample)."""
    paths = tree.paths(include_nil=True)
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(paths, r) for r in range(len(paths) + 1)
        )
    )
    combos = itertools.product(subsets, repeat=len(tracks))
    out = []
    for i, combo in enumerate(combos):
        if limit is not None and i >= limit:
            break
        out.append({t: frozenset(s) for t, s in zip(tracks, combo)})
    return out


@pytest.fixture(scope="module")
def a_sing(compiler):
    return compiler.compile(S.Sing("X"), already_fresh=True)


@pytest.fixture(scope="module")
def a_empty(compiler):
    return compiler.compile(S.Empty("X"), already_fresh=True)


@pytest.fixture(scope="module")
def a_subset(compiler):
    return compiler.compile(S.Subset("X", "Y"), already_fresh=True)


class TestRun:
    def test_sing_accepts_singletons(self, a_sing, trees):
        for t in trees:
            for lab in _labelings(t, ["X"], limit=40):
                want = len(lab["X"]) == 1
                assert a_sing.run(t, lab) == want

    def test_empty(self, a_empty, trees):
        for t in trees[:5]:
            for lab in _labelings(t, ["X"], limit=30):
                assert a_empty.run(t, lab) == (len(lab["X"]) == 0)

    def test_describe(self, a_sing):
        out = a_sing.describe()
        assert "states" in out and "tracks" in out


class TestProduct:
    def test_intersection_semantics(self, compiler, a_sing, a_subset, trees):
        prod = a_sing.product(a_subset, lambda x, y: x and y)
        for t in trees[:6]:
            for lab in _labelings(t, ["X", "Y"], limit=40):
                assert prod.run(t, lab) == (
                    a_sing.run(t, lab) and a_subset.run(t, lab)
                )

    def test_union_semantics_product(self, a_sing, a_empty, trees):
        u = a_sing.completed().product(a_empty.completed(), lambda x, y: x or y)
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert u.run(t, lab) == (
                    a_sing.run(t, lab) or a_empty.run(t, lab)
                )

    def test_union_sum_semantics(self, a_sing, a_empty, trees):
        u = a_sing.union_sum(a_empty)
        assert u.n_states == a_sing.n_states + a_empty.n_states
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert u.run(t, lab) == (
                    a_sing.run(t, lab) or a_empty.run(t, lab)
                )

    def test_product_tracks_union(self, a_sing, a_subset):
        prod = a_sing.product(a_subset, lambda x, y: x and y)
        assert prod.tracks == {"X", "Y"}


class TestComplement:
    def test_complement_semantics(self, a_sing, trees):
        comp = a_sing.complemented()
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert comp.run(t, lab) == (not a_sing.run(t, lab))

    def test_double_complement(self, a_sing, trees):
        cc = a_sing.complemented().complemented()
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=30):
                assert cc.run(t, lab) == a_sing.run(t, lab)


class TestProjection:
    def test_projection_is_exists(self, compiler, trees):
        # project X out of Sing(X): "some singleton labelling exists" —
        # true on every tree that has at least one node (incl. nil root).
        a = compiler.compile(S.Sing("X"), already_fresh=True)
        p = a.projected(["X"])
        for t in trees:
            assert p.run(t, {})  # every tree has >= 1 position

    def test_projection_nondeterministic(self, a_sing):
        assert not a_sing.projected(["X"]).deterministic


class TestDeterminize:
    def test_preserves_language(self, a_sing, trees):
        nfta = a_sing.projected([])  # mark nondeterministic, same language
        det = determinize(nfta)
        assert det.deterministic and det.complete
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=30):
                assert det.run(t, lab) == a_sing.run(t, lab)

    def test_budget_raises(self, compiler):
        f = S.Exists1(("x", "y"), S.And((S.Reach("x", "y"), S.Reach("x", "y"))))
        a = compiler.compile(f)
        with pytest.raises(StateBudgetExceeded):
            determinize(a, max_states=1)


class TestMinimize:
    def test_preserves_language(self, a_subset, trees):
        m = minimize(a_subset.completed())
        for t in trees[:6]:
            for lab in _labelings(t, ["X", "Y"], limit=40):
                assert m.run(t, lab) == a_subset.run(t, lab)

    def test_does_not_grow(self, a_sing):
        assert minimize(a_sing.completed()).n_states <= a_sing.completed().n_states

    def test_rejects_nondeterministic(self, a_sing):
        with pytest.raises(ValueError):
            minimize(a_sing.projected([]))

    def test_prune_unreachable(self, a_sing):
        # Add an unreachable state manually.
        bloated = TreeAutomaton(
            registry=a_sing.registry,
            tracks=a_sing.tracks,
            n_states=a_sing.n_states + 1,
            leaf=a_sing.leaf,
            delta=a_sing.delta,
            accepting=a_sing.accepting,
            deterministic=a_sing.deterministic,
        )
        assert prune_unreachable(bloated).n_states == a_sing.n_states


def _leaf_code(reg, a, b):
    """Guard of the label with bit ``a`` on track a and ``b`` on track b."""
    return reg.manager.apply_and(reg.bit("a", a), reg.bit("b", b))


def _swap_dfta():
    """Leaves P/Q/R1/R2 by two label bits; δ(P,R1) = δ(Q,R2) = ACC.

    Every other cell goes to SINK.  P and Q (and R1 and R2) have rows
    that are permutations of each other across same-class peers, so a
    signature keyed by peer *class* merges them; all six states are in
    fact distinct."""
    reg = TrackRegistry()
    P, Q, R1, R2, ACC, SINK = range(6)
    leaf = [
        (_leaf_code(reg, False, False), P),
        (_leaf_code(reg, False, True), Q),
        (_leaf_code(reg, True, False), R1),
        (_leaf_code(reg, True, True), R2),
    ]
    t = reg.manager.true
    delta = {(l, r): [(t, SINK)] for l in range(6) for r in range(6)}
    delta[(P, R1)] = [(t, ACC)]
    delta[(Q, R2)] = [(t, ACC)]
    return TreeAutomaton(
        registry=reg,
        tracks=frozenset({"a", "b"}),
        n_states=6,
        leaf=leaf,
        delta=delta,
        accepting=frozenset({ACC}),
        deterministic=True,
        complete=True,
    )


def _leaf_labels(codes):
    """Labelling that puts the (a, b) bit pair ``codes[path]`` on each
    listed leaf path."""
    return {
        "a": frozenset(p for p, (a, _) in codes.items() if a),
        "b": frozenset(p for p, (_, b) in codes.items() if b),
    }


def _tree(n_internal, paths):
    return next(
        t
        for t in all_shapes(n_internal)
        if set(paths) <= set(t.paths(include_nil=True))
    )


class TestMinimizeIsMyhillNerode:
    """``minimize`` computes the congruence over peer *states*; keying a
    state's signature by peer class merges inequivalent states."""

    P, Q, R1, R2 = (False, False), (False, True), (True, False), (True, True)

    def test_swap_dfta_keeps_six_states_and_its_language(self):
        a = _swap_dfta()
        m = minimize(a)
        assert m.n_states == 6
        tree = _tree(1, ["l", "r"])
        for left in (self.P, self.Q, self.R1, self.R2):
            for right in (self.P, self.Q, self.R1, self.R2):
                lab = _leaf_labels({"l": left, "r": right})
                assert m.run(tree, lab) == a.run(tree, lab), (left, right)
        assert not m.run(tree, _leaf_labels({"l": self.P, "r": self.R2}))
        assert not m.run(tree, _leaf_labels({"l": self.Q, "r": self.R1}))
        assert m.run(tree, _leaf_labels({"l": self.P, "r": self.R1}))

    def test_swap_dfta_trimmed_minimizes_to_five(self):
        # The trim automaton drops only the sink.
        m = minimize(prune_dead(_swap_dfta()))
        assert m.n_states == 5
        assert m.completed().n_states == 6

    def test_reduce_nfta_keeps_crossed_pairs_apart(self):
        """S1..S4 are leaves; S1·S1→P, S2·S2→Q, S3·S3→R1, S4·S4→R2 and
        P·R1, Q·R2 → ACC.  No two states are bisimilar."""
        reg = TrackRegistry()
        t = reg.manager.true
        S1, S2, S3, S4, P, Q, R1, R2, ACC = range(9)
        codes = [(False, False), (False, True), (True, False), (True, True)]
        a = TreeAutomaton(
            registry=reg,
            tracks=frozenset({"a", "b"}),
            n_states=9,
            leaf=[(_leaf_code(reg, *c), s) for c, s in zip(codes, range(4))],
            delta={
                (S1, S1): [(t, P)],
                (S2, S2): [(t, Q)],
                (S3, S3): [(t, R1)],
                (S4, S4): [(t, R2)],
                (P, R1): [(t, ACC)],
                (Q, R2): [(t, ACC)],
            },
            accepting=frozenset({ACC}),
            deterministic=False,
        )
        r = reduce_nfta(a)
        assert r.n_states == 9
        tree = _tree(3, ["ll", "lr", "rl", "rr"])

        def lab(left, right):
            return _leaf_labels(
                {"ll": left, "lr": left, "rl": right, "rr": right}
            )

        for i, left in enumerate(codes):
            for j, right in enumerate(codes):
                want = (i, j) in ((0, 2), (1, 3))
                assert a.run(tree, lab(left, right)) == want
                assert r.run(tree, lab(left, right)) == want, (i, j)


@st.composite
def small_automata(draw, deterministic=True):
    """A random automaton over one track with 1–5 states.  Each label of
    each leaf and (state pair) cell goes to one drawn state (a complete
    DFTA) or to a drawn set of up to two states (an NFTA)."""
    n = draw(st.integers(1, 5))
    reg = TrackRegistry()
    mgr = reg.manager
    state = st.integers(0, n - 1)
    targets = (
        st.lists(state, min_size=1, max_size=1)
        if deterministic
        else st.lists(state, max_size=2, unique=True)
    )

    def cell():
        by_dest = {}
        for b in (False, True):
            for q in draw(targets):
                by_dest.setdefault(q, []).append(reg.bit("a", b))
        return [(mgr.disj(gs), q) for q, gs in by_dest.items()]

    cells = {(ql, qr): cell() for ql in range(n) for qr in range(n)}
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    return TreeAutomaton(
        registry=reg,
        tracks=frozenset({"a"}),
        n_states=n,
        leaf=cell(),
        delta={k: v for k, v in cells.items() if v},
        accepting=accepting,
        deterministic=deterministic,
        complete=deterministic,
    )


_SMALL_TREES = [t for n in range(4) for t in all_shapes(n)]
_SMALL_LABELLED = [
    (t, lab) for t in _SMALL_TREES for lab in _labelings(t, ["a"])
]


class TestMinimizeProperties:
    @given(small_automata())
    @settings(max_examples=120, deadline=None)
    def test_minimize_preserves_runs_complete_and_trimmed(self, a):
        trim = prune_dead(a)
        m, mt = minimize(a), minimize(trim)
        for tree, lab in _SMALL_LABELLED:
            want = a.run(tree, lab)
            assert m.run(tree, lab) == want
            assert trim.run(tree, lab) == want
            assert mt.run(tree, lab) == want
        # And on every tree: both symmetric-difference halves are empty.
        for b in (m, mt):
            assert is_empty(a.product(b.complemented(), lambda x, y: x and y))
            assert is_empty(b.product(a.complemented(), lambda x, y: x and y))

    @given(small_automata())
    @settings(max_examples=120, deadline=None)
    def test_trimmed_minimum_is_complete_minimum_less_sink(self, a):
        """The minimal DFTA is unique: minimizing the trim automaton and
        completing it gives exactly the minimal complete automaton."""
        trimmed = minimize(prune_dead(a)).completed()
        assert trimmed.n_states == minimize(a.completed()).n_states

    @given(small_automata())
    @settings(max_examples=60, deadline=None)
    def test_minimize_is_idempotent(self, a):
        m = minimize(a)
        assert minimize(m).n_states == m.n_states

    @given(small_automata(deterministic=False))
    @settings(max_examples=120, deadline=None)
    def test_reduce_nfta_preserves_runs(self, a):
        r = reduce_nfta(a)
        for tree, lab in _SMALL_LABELLED:
            assert r.run(tree, lab) == a.run(tree, lab)


class TestEmptiness:
    def test_nonempty_with_witness(self, a_sing):
        w = find_witness(a_sing)
        assert w is not None
        assert len(w.labels.get("X", ())) == 1
        assert a_sing.run(w.tree, w.labels)

    def test_empty_automaton(self, compiler):
        a = compiler.compile(S.FalseF())
        assert is_empty(a)
        assert find_witness(a) is None

    def test_witness_satisfies_formula(self, compiler):
        f = S.And(
            (
                S.Sing("X"),
                S.Exists1(("x",), S.And((S.In(S.NodeTerm("x"), "X"),
                                          S.Not(S.RootT(S.NodeTerm("x")))))),
            )
        )
        a = compiler.compile(f)
        w = find_witness(a)
        assert w is not None
        from repro.mso.semantics import evaluate

        env = {"X": w.labels["X"]}
        assert evaluate(S.Sing("X"), w.tree, env)
        assert "" not in w.labels["X"]


class TestSplitGuards:
    def test_partition_covers_and_disjoint(self):
        reg = TrackRegistry()
        mgr = reg.manager
        a, b = reg.bit("a"), reg.bit("b")
        parts = split_guards(mgr, [(a, 1), (b, 2), (mgr.apply_and(a, b), 3)])
        # Coverage: OR of all guards is true.
        assert mgr.disj([g for g, _ in parts]) == mgr.true
        # Disjoint: pairwise AND is false.
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert mgr.apply_and(parts[i][0], parts[j][0]) == mgr.false

    def test_destination_sets(self):
        reg = TrackRegistry()
        mgr = reg.manager
        a = reg.bit("a")
        parts = dict()
        for g, s in split_guards(mgr, [(a, 1), (mgr.true, 2)]):
            parts[s] = g
        assert frozenset({1, 2}) in parts and frozenset({2}) in parts


class TestRegistry:
    def test_levels_stable(self):
        reg = TrackRegistry()
        assert reg.level("a") == 0
        assert reg.level("b") == 1
        assert reg.level("a") == 0

    def test_name_of(self):
        reg = TrackRegistry()
        reg.level("t0")
        assert reg.name_of(0) == "t0"
        with pytest.raises(KeyError):
            reg.name_of(99)
