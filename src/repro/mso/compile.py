"""Compilation of MSO formulas to bottom-up tree automata.

The classical WS2S decision procedure (Thatcher–Wright, as engineered in
MONA): every variable owns a label track; atoms become small deterministic
automata; conjunction/disjunction become products; negation complements
(determinizing if needed); quantification projects the variable's track.
First-order variables are singleton tracks — ``Sing`` is conjoined at their
quantifier.

Three engineering choices keep the pipeline tractable in pure Python:

* **child-term atoms** (``x.l ∈ X``, ``isNil(x.r)``, ``y == x.l``) have
  direct automata, so the Retreet encoder emits no inner quantifiers for
  ``Next``/``PathCond``;
* automata are minimized after every complement and large product;
  conjunctions stay trim (useful states only, no sink) all the way, and
  determinization carries a state budget that converts blow-ups into a
  clean :class:`~repro.automata.determinize.StateBudgetExceeded` for the
  caller's fallback logic;
* **each formula shape compiles once** (MONA shares subformulas equal up
  to a renaming of free variables the same way).  :func:`freshen` names
  binders by scope depth, so sibling scopes (the per-triple
  ``∃z. Consistent(…)`` bodies, the ``∀u`` conjuncts of
  ``Configuration``) bind the same track and repeat the same text.  The
  memo is keyed by :class:`ShapeTable` shape — the formula with bound
  variables numbered locally and free tracks replaced by their rank in
  BDD level order.  A hit on the same tracks returns the cached
  automaton; a hit on other tracks (the second configuration family, a
  ``Next`` atom of another family) relabels the cached automaton's
  guards with :meth:`~repro.automata.tta.TreeAutomaton.renamed`.  Ranks
  follow level order, so every such level map is monotone and the
  renamed guards are ordered, reduced BDDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..automata.minimize import minimize, prune_dead, prune_unreachable
from ..automata.tta import TrackRegistry, TreeAutomaton
from ..runtime import ResourceGuard, as_guard
from . import syntax as S

__all__ = ["Compiler", "CompileStats", "ShapeTable", "freshen"]


# ---------------------------------------------------------------------------
# Bound-variable freshening
# ---------------------------------------------------------------------------

_BINDERS = (S.Exists1, S.Forall1, S.Exists2, S.Forall2)


def freshen(f: S.Formula) -> S.Formula:
    """Name every binder by its scope depth: ``x`` bound by the d-th
    quantifier on the path from the root becomes ``x#d``.

    Binders along one scope chain get distinct names; sibling scopes
    share them, which is sound because each scope's tracks are projected
    away before its siblings meet it.  A fresh name never captures a free
    variable: if one would (a free name of the form ``x#d``), the pass
    reruns with those names reserved.
    """
    free: Set[str] = set()
    made: Set[str] = set()
    g = _freshen(f, 0, {}, free, made, frozenset())
    if free & made:
        g = _freshen(f, 0, {}, set(), set(), frozenset(free))
    return g


def _freshen(f, depth, env, free, made, taken):
    def rn(name: str) -> str:
        new = env.get(name)
        if new is None:
            free.add(name)
            return name
        return new

    def term(t: S.NodeTerm) -> S.NodeTerm:
        return S.NodeTerm(rn(t.var), t.dirs)

    if isinstance(f, (S.TrueF, S.FalseF)):
        return f
    if isinstance(f, S.In):
        return S.In(term(f.term), rn(f.setvar))
    if isinstance(f, S.IsNilT):
        return S.IsNilT(term(f.term))
    if isinstance(f, S.RootT):
        return S.RootT(term(f.term))
    if isinstance(f, S.EqT):
        return S.EqT(term(f.a), term(f.b))
    if isinstance(f, S.Reach):
        return S.Reach(rn(f.a), rn(f.b))
    if isinstance(f, S.LeftOf):
        return S.LeftOf(rn(f.parent), rn(f.child))
    if isinstance(f, S.RightOf):
        return S.RightOf(rn(f.parent), rn(f.child))
    if isinstance(f, S.Subset):
        return S.Subset(rn(f.a), rn(f.b))
    if isinstance(f, S.Sing):
        return S.Sing(rn(f.setvar))
    if isinstance(f, S.Empty):
        return S.Empty(rn(f.setvar))
    if isinstance(f, S.ChildIs):
        return S.ChildIs(rn(f.xvar), f.dirs, rn(f.zvar))
    if isinstance(f, S.ParentRelIn):
        return S.ParentRelIn(rn(f.uvar), f.d, f.dirs, rn(f.setvar))
    if isinstance(f, S.ParentRelNil):
        return S.ParentRelNil(rn(f.uvar), f.d, f.dirs)
    if isinstance(f, S.AgreeUpTo):
        return S.AgreeUpTo(
            rn(f.zvar),
            tuple((rn(a), rn(b)) for a, b in f.pairs),
            tuple((rn(a), rn(b)) for a, b in f.strict_pairs),
        )
    if isinstance(f, S.Not):
        return S.Not(_freshen(f.body, depth, env, free, made, taken))
    if isinstance(f, (S.And, S.Or)):
        return type(f)(
            tuple(_freshen(p, depth, env, free, made, taken) for p in f.parts)
        )
    if isinstance(f, _BINDERS):
        depth += 1
        env2 = dict(env)
        fresh_names = []
        for n in f.names:
            fn = f"{n}#{depth}"
            while fn in taken:
                fn += "'"
            env2[n] = fn
            made.add(fn)
            fresh_names.append(fn)
        body = _freshen(f.body, depth, env2, free, made, taken)
        return type(f)(tuple(fresh_names), body)
    raise TypeError(f"unknown formula {f!r}")


# ---------------------------------------------------------------------------
# Formula shapes (the compile memo's key)
# ---------------------------------------------------------------------------

def _atom_vars(f: S.Formula) -> Tuple[tuple, Tuple[str, ...]]:
    """(name-free description, variable occurrences) of an atom."""
    if isinstance(f, (S.TrueF, S.FalseF)):
        return (type(f),), ()
    if isinstance(f, S.In):
        return (S.In, f.term.dirs), (f.term.var, f.setvar)
    if isinstance(f, (S.IsNilT, S.RootT)):
        return (type(f), f.term.dirs), (f.term.var,)
    if isinstance(f, S.EqT):
        return (S.EqT, f.a.dirs, f.b.dirs), (f.a.var, f.b.var)
    if isinstance(f, (S.Reach, S.Subset)):
        return (type(f),), (f.a, f.b)
    if isinstance(f, (S.LeftOf, S.RightOf)):
        return (type(f),), (f.parent, f.child)
    if isinstance(f, (S.Sing, S.Empty)):
        return (type(f),), (f.setvar,)
    if isinstance(f, S.ChildIs):
        return (S.ChildIs, f.dirs), (f.xvar, f.zvar)
    if isinstance(f, S.ParentRelIn):
        return (S.ParentRelIn, f.d, f.dirs), (f.uvar, f.setvar)
    if isinstance(f, S.ParentRelNil):
        return (S.ParentRelNil, f.d, f.dirs), (f.uvar,)
    if isinstance(f, S.AgreeUpTo):
        names = [f.zvar]
        for a, b in f.pairs + f.strict_pairs:
            names += (a, b)
        return (S.AgreeUpTo, len(f.pairs), len(f.strict_pairs)), tuple(names)
    raise TypeError(f"unknown formula {f!r}")


class ShapeTable:
    """Interned formula shapes: the compile memo's key, in one pass.

    :meth:`key` maps a formula to ``(shape, free)``: ``free`` lists its
    free variables in order of first occurrence, and ``shape`` is an
    interned int that identifies the formula up to a renaming of those
    variables — bound variables are numbered by their binder, free ones
    by their position in ``free``.  Two formulas with one shape compile
    to the same automaton over corresponding tracks.

    A shape is built from its children's shapes, and every formula
    object's key is remembered until :meth:`forget`, so keying a whole
    formula — and then each subformula the compiler reaches, including
    the ones it builds on the fly (``Forall`` as ``¬∃¬``, the ``Sing``
    conjuncts of ``Exists1``) — costs one pass over it.  The per-object
    entries hold their formula, so an ``id`` is never reused while it is
    remembered.
    """

    def __init__(self) -> None:
        self._ids: Dict[tuple, int] = {}
        self._seen: Dict[int, Tuple[S.Formula, int, Tuple[str, ...]]] = {}

    def forget(self) -> None:
        """Drop the per-object entries (interned shapes stay)."""
        self._seen.clear()

    def _intern(self, desc: tuple) -> int:
        sid = self._ids.get(desc)
        if sid is None:
            sid = self._ids[desc] = len(self._ids)
        return sid

    def key(self, f: S.Formula) -> Tuple[int, Tuple[str, ...]]:
        hit = self._seen.get(id(f))
        if hit is not None:
            return hit[1], hit[2]
        if isinstance(f, S.Not):
            sid, free = self.key(f.body)
            shape = self._intern((S.Not, sid))
        elif isinstance(f, (S.And, S.Or)):
            kids = [self.key(p) for p in f.parts]
            slot: Dict[str, int] = {}
            for _sid, kfree in kids:
                for v in kfree:
                    if v not in slot:
                        slot[v] = len(slot)
            free = tuple(slot)
            shape = self._intern((type(f),) + tuple(
                (sid, tuple(slot[v] for v in kfree)) for sid, kfree in kids
            ))
        elif isinstance(f, _BINDERS):
            sid, bfree = self.key(f.body)
            names = f.names
            free = tuple(v for v in bfree if v not in names)
            slot = {v: i for i, v in enumerate(free)}
            refs = tuple(
                -1 - names.index(v) if v in names else slot[v] for v in bfree
            )
            shape = self._intern((type(f), len(names), sid, refs))
        else:
            desc, occ = _atom_vars(f)
            slot = {}
            for v in occ:
                if v not in slot:
                    slot[v] = len(slot)
            free = tuple(slot)
            shape = self._intern(desc + tuple(slot[v] for v in occ))
        self._seen[id(f)] = (f, shape, free)
        return shape, free


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

@dataclass
class CompileStats:
    products: int = 0
    complements: int = 0
    projections: int = 0
    minimizations: int = 0
    max_states: int = 0
    # Every ``_compile`` call is exactly one of: a memo hit on the same
    # tracks, a memo hit served by renaming another track family's
    # automaton, or a build.
    memo_hits: int = 0
    renamed: int = 0
    built: int = 0

    def note(self, a: TreeAutomaton) -> TreeAutomaton:
        self.max_states = max(self.max_states, a.n_states)
        return a


class Compiler:
    """Stateful formula -> automaton compiler with a shape memo."""

    def __init__(
        self,
        registry: Optional[TrackRegistry] = None,
        minimize_always: bool = True,
        det_budget: int = 200_000,
    ) -> None:
        self.registry = registry or TrackRegistry()
        self.minimize_always = minimize_always
        self.det_budget = det_budget
        # Optional wall-clock deadline (time.perf_counter() value) checked
        # inside long-running constructions; superseded by ``guard`` when
        # a ResourceGuard is installed (the solver sets both).
        self.deadline: Optional[float] = None
        self.guard: Optional[ResourceGuard] = None
        self.stats = CompileStats()
        self._shapes = ShapeTable()
        # (shape, rank order of its free slots) -> {tracks in level
        # order -> automaton}; the first entry is the one renamed.
        self._cache: Dict[
            Tuple[int, Tuple[int, ...]], Dict[Tuple[str, ...], TreeAutomaton]
        ] = {}

    def _guard(self) -> Optional[ResourceGuard]:
        return as_guard(self.guard, self.deadline)

    # -- public API ---------------------------------------------------------
    def compile(self, formula: S.Formula, already_fresh: bool = False) -> TreeAutomaton:
        f = formula if already_fresh else freshen(formula)
        try:
            return self._compile(f)
        finally:
            self._shapes.forget()

    def compile_product(self, formula: S.Formula, already_fresh: bool = False):
        """Compile keeping a top-level conjunction *symbolic*.

        Returns a :class:`~repro.automata.product.ProductAutomaton` of
        the conjuncts' automata (each still compiled and minimized
        eagerly) instead of multiplying them out, so emptiness can run
        lazily on the implicit product.  Non-conjunctions compile as
        usual.
        """
        from ..automata.product import ProductAutomaton

        f = formula if already_fresh else freshen(formula)
        try:
            if isinstance(f, S.And):
                return ProductAutomaton([self._compile(p) for p in f.parts])
            return self._compile(f)
        finally:
            self._shapes.forget()

    # -- guard helpers --------------------------------------------------------
    def _bit(self, name: str, value: bool = True) -> int:
        return self.registry.bit(name, value)

    @property
    def _mgr(self):
        return self.registry.manager

    # -- main dispatch ------------------------------------------------------------
    def _compile(self, f: S.Formula) -> TreeAutomaton:
        shape, free = self._shapes.key(f)
        level = self.registry.level
        levels = [level(v) for v in free]
        order = tuple(sorted(range(len(free)), key=levels.__getitem__))
        tracks = tuple(free[i] for i in order)
        served = self._cache.get((shape, order))
        if served is None:
            a = self.stats.note(self._build(f))
            self.stats.built += 1
            self._cache[(shape, order)] = {tracks: a}
            return a
        a = served.get(tracks)
        if a is not None:
            self.stats.memo_hits += 1
            return a
        src_tracks, src = next(iter(served.items()))
        a = src.renamed(dict(zip(src_tracks, tracks)), guard=self._guard())
        self.stats.renamed += 1
        served[tracks] = self.stats.note(a)
        return a

    def _build(self, f: S.Formula) -> TreeAutomaton:
        if isinstance(f, S.TrueF):
            return self._const(True)
        if isinstance(f, S.FalseF):
            return self._const(False)
        if isinstance(f, S.In):
            return self._atom_in(f.term, f.setvar)
        if isinstance(f, S.IsNilT):
            return self._atom_isnil(f.term)
        if isinstance(f, S.RootT):
            return self._atom_root(f.term)
        if isinstance(f, S.EqT):
            return self._atom_eq(f)
        if isinstance(f, S.Reach):
            return self._atom_reach(f.a, f.b)
        if isinstance(f, S.LeftOf):
            return self._atom_childis(f.parent, "l", f.child)
        if isinstance(f, S.RightOf):
            return self._atom_childis(f.parent, "r", f.child)
        if isinstance(f, S.Subset):
            return self._atom_subset(f.a, f.b)
        if isinstance(f, S.Sing):
            return self._atom_sing(f.setvar)
        if isinstance(f, S.Empty):
            return self._atom_empty(f.setvar)
        if isinstance(f, S.Not):
            inner = self._compile(f.body)
            self.stats.complements += 1
            out = inner.complemented(guard=self._guard())
            return self._maybe_min(out)
        if isinstance(f, S.And):
            return self._combine(f.parts, union=False)
        if isinstance(f, S.Or):
            return self._combine(f.parts, union=True)
        if isinstance(f, S.Exists2):
            inner = self._compile(f.body)
            self.stats.projections += 1
            out = inner.projected(f.names)
            return prune_unreachable(out)
        if isinstance(f, S.Exists1):
            body = S.And(
                tuple(S.Sing(n) for n in f.names) + (f.body,)
            )
            inner = self._compile(body)
            self.stats.projections += 1
            return prune_unreachable(inner.projected(f.names))
        if isinstance(f, S.Forall1):
            return self._compile(
                S.Not(S.Exists1(f.names, S.Not(f.body)))
            )
        if isinstance(f, S.Forall2):
            return self._compile(
                S.Not(S.Exists2(f.names, S.Not(f.body)))
            )
        raise TypeError(f"unknown formula {f!r}")

    def _maybe_min(self, a: TreeAutomaton) -> TreeAutomaton:
        if self.minimize_always and a.deterministic:
            self.stats.minimizations += 1
            return minimize(a, guard=self._guard())
        return prune_unreachable(a)

    def _combine(self, parts: Tuple[S.Formula, ...], union: bool) -> TreeAutomaton:
        autos = [self._compile(p) for p in parts]
        # Combine smallest-first to keep intermediate products small.
        autos.sort(key=lambda a: a.n_states)
        if union:
            return self._union(autos)
        # A conjunction needs no sink: trimming every operand and every
        # intermediate product to its useful states keeps dead states
        # from being crossed with the next operand, and ``minimize`` is
        # exact on trim automata.  The result is incomplete; complements
        # and unions complete it themselves.
        guard = self._guard()
        acc = prune_dead(autos[0])
        for nxt in autos[1:]:
            self.stats.products += 1
            acc = acc.product(
                prune_dead(nxt), lambda x, y: x and y, guard=guard
            )
            acc = prune_dead(acc)
            if (
                acc.deterministic
                and acc.n_states > 8
                and self.minimize_always
            ):
                self.stats.minimizations += 1
                acc = minimize(acc, guard=guard)
        return acc

    # Unions of small deterministic automata go through the product (the
    # minimized DFTA keeps later complements cheap); anything larger uses
    # the linear disjoint sum (nondeterministic, and intersection products
    # against it still prune well).
    _UNION_PRODUCT_LIMIT = 24

    def _union(self, autos) -> TreeAutomaton:
        acc = autos[0]
        for nxt in autos[1:]:
            small = (
                acc.deterministic
                and nxt.deterministic
                and acc.n_states * nxt.n_states <= self._UNION_PRODUCT_LIMIT**2
            )
            if small:
                self.stats.products += 1
                acc = acc.completed().product(
                    nxt.completed(), lambda x, y: x or y
                )
                acc = prune_unreachable(acc)
                if acc.n_states > 8 and self.minimize_always:
                    self.stats.minimizations += 1
                    acc = minimize(acc.completed())
            else:
                acc = acc.union_sum(nxt)
        return prune_unreachable(acc)

    # ------------------------------------------------------------------
    # Atom automata.  State meanings documented per atom.
    # ------------------------------------------------------------------

    def _const(self, value: bool) -> TreeAutomaton:
        t = self._mgr.true
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset(),
            n_states=1,
            leaf=[(t, 0)],
            delta={(0, 0): [(t, 0)]},
            accepting=frozenset({0}) if value else frozenset(),
            deterministic=True,
            complete=True,
        )

    def _atom_subset(self, a: str, b: str) -> TreeAutomaton:
        """States: 0 ok so far, 1 violation seen."""
        mgr = self._mgr
        viol = mgr.apply_and(self._bit(a), self._bit(b, False))
        ok = mgr.apply_not(viol)
        delta = {}
        for l in (0, 1):
            for r in (0, 1):
                if l or r:
                    delta[(l, r)] = [(mgr.true, 1)]
                else:
                    delta[(l, r)] = [(ok, 0), (viol, 1)]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({a, b}),
            n_states=2,
            leaf=[(ok, 0), (viol, 1)],
            delta=delta,
            accepting=frozenset({0}),
            deterministic=True,
            complete=True,
        )

    def _atom_empty(self, x: str) -> TreeAutomaton:
        mgr = self._mgr
        has = self._bit(x)
        not_has = self._bit(x, False)
        delta = {}
        for l in (0, 1):
            for r in (0, 1):
                if l or r:
                    delta[(l, r)] = [(mgr.true, 1)]
                else:
                    delta[(l, r)] = [(not_has, 0), (has, 1)]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=2,
            leaf=[(not_has, 0), (has, 1)],
            delta=delta,
            accepting=frozenset({0}),
            deterministic=True,
            complete=True,
        )

    def _atom_sing(self, x: str) -> TreeAutomaton:
        """States count occurrences of the x bit: 0, 1, 2+ (=2)."""
        mgr = self._mgr
        has = self._bit(x)
        not_has = self._bit(x, False)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for l in (0, 1, 2):
            for r in (0, 1, 2):
                base = min(l + r, 2)
                delta[(l, r)] = [
                    (not_has, base),
                    (has, min(base + 1, 2)),
                ]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=3,
            leaf=[(not_has, 0), (has, 1)],
            delta=delta,
            accepting=frozenset({1}),
            deterministic=True,
            complete=True,
        )

    # -- generic descendant-tracking machinery ------------------------------------
    #
    # For a term x.dirs we track, per subtree, a boolean vector v of length
    # len(dirs)+1 where v[k] answers a per-node property P at the node
    # root.dirs[k:] (v[-1] = P at the subtree root itself, taken from the
    # label).  v[k] = v_child(dirs[k])[k+1]; at a leaf the descendant slots
    # take P's value on virtual nil nodes.
    #
    # Combined with an x-status {0 unseen, 1 seen-true, 2 seen-false,
    # 3 multiple}, this yields the In/IsNil/ChildIs atoms uniformly.

    def _descendant_atom(
        self,
        xvar: str,
        dirs: str,
        tracks: FrozenSet[str],
        leaf_prop,  # label-guard pairs: list of (guard, bool) partition for P on a leaf
        node_prop,  # same for an internal node
        virtual_value: bool,  # P on virtual nil nodes below the frontier
    ) -> TreeAutomaton:
        mgr = self._mgr
        k = len(dirs)
        xb = self._bit(xvar)
        nxb = self._bit(xvar, False)

        # State encoding: (xstat, v) with v a tuple of k+1 bools.
        states: Dict[Tuple[int, Tuple[bool, ...]], int] = {}

        def mk(xstat: int, v: Tuple[bool, ...]) -> int:
            key = (xstat, v)
            if key not in states:
                states[key] = len(states)
            return states[key]

        leaf: List[Tuple[int, int]] = []
        for guard, pval in leaf_prop:
            v = tuple([virtual_value] * k + [pval])
            # x on a leaf: the target is k below -> virtual; truth = v[0].
            res_true = 1 if (v[0] if k > 0 else pval) else 2
            leaf.append((mgr.apply_and(guard, nxb), mk(0, v)))
            leaf.append((mgr.apply_and(guard, xb), mk(res_true, v)))
        leaf = [(g, q) for g, q in leaf if g != mgr.false]

        # Build transitions over discovered states until closure.
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        done = set()
        while True:
            snapshot = list(states.items())
            new = False
            for (xl, vl), il in snapshot:
                for (xr, vr), ir in snapshot:
                    keypair = (il, ir)
                    if keypair in done:
                        continue
                    done.add(keypair)
                    entries: List[Tuple[int, int]] = []
                    for guard, pval in node_prop:
                        v = tuple(
                            (vl if dirs[i] == "l" else vr)[i + 1]
                            for i in range(k)
                        ) + (pval,)
                        # x-status merge of children.
                        if xl == 3 or xr == 3 or (xl and xr):
                            base = 3
                        else:
                            base = xl or xr
                        # without x here:
                        g0 = mgr.apply_and(guard, nxb)
                        if g0 != mgr.false:
                            entries.append((g0, mk(base, v)))
                        # with x here:
                        g1 = mgr.apply_and(guard, xb)
                        if g1 != mgr.false:
                            if base != 0:
                                xs = 3
                            else:
                                target_val = v[0] if k > 0 else pval
                                xs = 1 if target_val else 2
                            entries.append((g1, mk(xs, v)))
                    delta[keypair] = entries
            if len(states) == len(snapshot) and not new:
                if all(
                    (i, j) in done
                    for i in states.values()
                    for j in states.values()
                ):
                    break
        accepting = frozenset(i for (xs, _v), i in states.items() if xs == 1)
        return TreeAutomaton(
            registry=self.registry,
            tracks=tracks | frozenset({xvar}),
            n_states=len(states),
            leaf=leaf,
            delta=delta,
            accepting=accepting,
            deterministic=True,
            complete=True,
        )

    def _atom_in(self, term: S.NodeTerm, setvar: str) -> TreeAutomaton:
        inb = self._bit(setvar)
        ninb = self._bit(setvar, False)
        prop = [(inb, True), (ninb, False)]
        return self._descendant_atom(
            term.var,
            term.dirs,
            frozenset({setvar}),
            leaf_prop=prop,
            node_prop=prop,
            virtual_value=False,  # virtual nil nodes belong to no set
        )

    def _atom_isnil(self, term: S.NodeTerm) -> TreeAutomaton:
        t = self._mgr.true
        return self._descendant_atom(
            term.var,
            term.dirs,
            frozenset(),
            leaf_prop=[(t, True)],
            node_prop=[(t, False)],
            virtual_value=True,  # children of nil are nil
        )

    def _atom_childis(self, xvar: str, dirs: str, zvar: str) -> TreeAutomaton:
        """``x.dirs == z`` — implemented as In(x.dirs, {z}); singleton-ness
        of z is enforced by conjoining Sing at the quantifier level."""
        zb = self._bit(zvar)
        nzb = self._bit(zvar, False)
        prop = [(zb, True), (nzb, False)]
        return self._descendant_atom(
            xvar,
            dirs,
            frozenset({zvar}),
            leaf_prop=prop,
            node_prop=prop,
            virtual_value=False,
        )

    def _atom_root(self, term: S.NodeTerm) -> TreeAutomaton:
        """States: 0 no x; 1 x at subtree root; 2 x strictly inside; 3 bad."""
        if term.dirs:
            # A strict descendant can never be the root.
            return self._const(False)
        mgr = self._mgr
        x = term.var
        xb, nxb = self._bit(x), self._bit(x, False)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for l in (0, 1, 2, 3):
            for r in (0, 1, 2, 3):
                if l == 3 or r == 3 or (l and r):
                    base = 3
                elif l or r:
                    base = 2
                else:
                    base = 0
                entries = [(nxb, base)]
                entries.append((xb, 1 if base == 0 else 3))
                delta[(l, r)] = entries
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=4,
            leaf=[(nxb, 0), (xb, 1)],
            delta=delta,
            accepting=frozenset({1}),
            deterministic=True,
            complete=True,
        )

    def _atom_eq(self, f: S.EqT) -> TreeAutomaton:
        """``x.da == y.db``; direct automaton when both terms are bare
        variables, otherwise via a fresh witness variable."""
        if not f.a.dirs and not f.b.dirs:
            if f.a.var == f.b.var:
                return self._const(True)
            # x == y: both bits on the same (single) node.
            mgr = self._mgr
            x, y = f.a.var, f.b.var
            both = mgr.apply_and(self._bit(x), self._bit(y))
            nx = mgr.apply_and(self._bit(x, False), self._bit(y, False))
            other = mgr.apply_not(mgr.apply_or(both, nx))
            delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
            # states: 0 none seen; 1 pair seen; 2 bad.
            for l in (0, 1, 2):
                for r in (0, 1, 2):
                    if l == 2 or r == 2 or (l == 1 and r == 1):
                        base = 2
                    else:
                        base = max(l, r)
                    delta[(l, r)] = [
                        (nx, base),
                        (both, 1 if base == 0 else 2),
                        (other, 2),
                    ]
            return TreeAutomaton(
                registry=self.registry,
                tracks=frozenset({x, y}),
                n_states=3,
                leaf=[(nx, 0), (both, 1), (other, 2)],
                delta=delta,
                accepting=frozenset({1}),
                deterministic=True,
            )
        # General case via an auxiliary first-order witness; it is
        # bound right here, so one name (distinct from both terms' roots)
        # serves every such atom.
        z = "@eq"
        while z in (f.a.var, f.b.var):
            z += "'"
        body = S.And(
            (
                self._childis_formula(f.a, z),
                self._childis_formula(f.b, z),
            )
        )
        return self._compile(S.Exists1((z,), body))

    @staticmethod
    def _childis_formula(term: S.NodeTerm, z: str) -> S.Formula:
        if not term.dirs:
            return S.EqT(S.NodeTerm(term.var), S.NodeTerm(z))
        # In(term, {z}) via the ChildIs automaton — expressed through
        # LeftOf/RightOf chains would need intermediate nodes; instead reuse
        # the descendant atom by treating {z} as the set:
        return _ChildIs(term.var, term.dirs, z)

    def _atom_reach(self, a: str, b: str) -> TreeAutomaton:
        """Proper ancestry.  States:
        0 none; 1 only b seen; 2 only a seen (dead); 3 a above b (accept);
        4 both seen but not in ancestry / duplicates (dead)."""
        mgr = self._mgr
        ab = self._bit(a)
        nab = self._bit(a, False)
        bb = self._bit(b)
        nbb = self._bit(b, False)
        g_none = mgr.apply_and(nab, nbb)
        g_a = mgr.apply_and(ab, nbb)
        g_b = mgr.apply_and(nab, bb)
        g_both = mgr.apply_and(ab, bb)

        def step(l: int, r: int) -> List[Tuple[int, int]]:
            # Merge child statuses.
            seen_a = l in (2, 3, 4) or r in (2, 3, 4)
            seen_b = l in (1, 3, 4) or r in (1, 3, 4)
            dup = (l in (2, 3, 4) and r in (2, 3, 4)) or (
                l in (1, 3, 4) and r in (1, 3, 4)
            )
            ok = l == 3 or r == 3
            # combined child state:
            if dup:
                base = 4
            elif ok:
                base = 3
            elif seen_a and seen_b:
                base = 4  # a and b in different subtrees: not ancestry
            elif seen_a:
                base = 2
            elif seen_b:
                base = 1
            else:
                base = 0
            out = [(g_none, base)]
            # a at this node:
            if seen_a or base == 4:
                out.append((g_a, 4))
            else:
                out.append((g_a, 3 if base == 1 else 2))
            # b at this node: b must be *below* a; a processed later (above).
            if seen_b or base == 4:
                out.append((g_b, 4))
            else:
                # base is 0 or 2 or 3; if a already below, b above a: dead.
                out.append((g_b, 1 if base == 0 else 4))
            # both on this node: reach is proper -> dead.
            out.append((g_both, 4))
            return out

        delta = {
            (l, r): step(l, r) for l in range(5) for r in range(5)
        }
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({a, b}),
            n_states=5,
            leaf=[(g_none, 0), (g_a, 2), (g_b, 1), (g_both, 4)],
            delta=delta,
            accepting=frozenset({3}),
            deterministic=True,
            complete=True,
        )


# Alias kept for the local helper below.
_ChildIs = S.ChildIs


# ---------------------------------------------------------------------------
# Automata for the encoder atoms
# ---------------------------------------------------------------------------

def _atom_parent_rel(
    self: Compiler, uvar: str, d: str, dirs: str, prop, virtual_value: bool,
    extra_tracks: FrozenSet[str],
) -> TreeAutomaton:
    """Shared automaton for ParentRelIn / ParentRelNil.

    ``prop`` is a list of (guard, bool) partitioning labels by the tracked
    per-node property P.  Each subtree state carries (ustat, v) where v[k] =
    P at root.dirs[k:] (v[-1] = P at the root's own label) and ustat is
    {0 unseen, 1 pending (u at subtree root), 2 ok, 3 dead}.  The pending
    mark resolves at u's parent: u must be the ``d``-child and P must hold
    at parent.dirs (= v_parent[0], available at the parent step).
    """
    mgr = self.registry.manager
    k = len(dirs)
    ub = self._bit(uvar)
    nub = self._bit(uvar, False)
    states: Dict[Tuple[int, Tuple[bool, ...]], int] = {}

    def mk(ustat: int, v: Tuple[bool, ...]) -> int:
        key = (ustat, v)
        if key not in states:
            states[key] = len(states)
        return states[key]

    leaf: List[Tuple[int, int]] = []
    for guard, pval in prop:
        v = tuple([virtual_value] * k + [pval])
        g0 = mgr.apply_and(guard, nub)
        if g0 != mgr.false:
            leaf.append((g0, mk(0, v)))
        g1 = mgr.apply_and(guard, ub)
        if g1 != mgr.false:
            leaf.append((g1, mk(1, v)))

    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    done = set()
    while True:
        snapshot = list(states.items())
        for (ul, vl), il in snapshot:
            for (ur, vr), ir in snapshot:
                key = (il, ir)
                if key in done:
                    continue
                done.add(key)
                entries: List[Tuple[int, int]] = []
                for guard, pval in prop:
                    v = tuple(
                        (vl if dirs[i] == "l" else vr)[i + 1] for i in range(k)
                    ) + (pval,)
                    # Resolve a pending child mark at this (parent) node.
                    child_stat = ul if d == "l" else ur
                    other_stat = ur if d == "l" else ul
                    resolved: Optional[int] = None
                    if child_stat == 1:
                        target = v[0] if k > 0 else pval
                        resolved = 2 if target else 3
                        merged = _merge_ustat(resolved, _settle(other_stat))
                    else:
                        merged = _merge_ustat(_settle(ul), _settle(ur))
                    g0 = mgr.apply_and(guard, nub)
                    if g0 != mgr.false:
                        entries.append((g0, mk(merged, v)))
                    g1 = mgr.apply_and(guard, ub)
                    if g1 != mgr.false:
                        # u here too -> duplicate unless nothing below.
                        entries.append(
                            (g1, mk(1 if merged == 0 else 3, v))
                        )
                delta[key] = entries
        if len(states) == len(snapshot):
            if all(
                (i, j) in done
                for i in states.values()
                for j in states.values()
            ):
                break
    accepting = frozenset(i for (us, _v), i in states.items() if us == 2)
    return TreeAutomaton(
        registry=self.registry,
        tracks=extra_tracks | frozenset({uvar}),
        n_states=len(states),
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=True,
        complete=True,
    )


def _settle(ustat: int) -> int:
    """A pending mark whose parent step passed without resolution (u was in
    the non-``d`` child, or deeper) can never resolve: dead."""
    return 3 if ustat == 1 else ustat


def _merge_ustat(a: int, b: int) -> int:
    if a == 3 or b == 3:
        return 3
    if a and b:
        return 3  # duplicates
    return a or b


def _atom_agree_upto(self: Compiler, f: S.AgreeUpTo) -> TreeAutomaton:
    """States: 0 z not in subtree; 1 z inside & path so far agrees; 2 dead.

    At ``z`` itself only the inclusive pairs must agree; strictly above it
    both the inclusive and the strict pairs must."""
    mgr = self.registry.manager
    zb = self._bit(f.zvar)
    nzb = self._bit(f.zvar, False)

    def iff_all(pairs) -> int:
        g = mgr.true
        for a, b in pairs:
            ab, bb = self._bit(a), self._bit(b)
            iff = mgr.apply_or(
                mgr.apply_and(ab, bb),
                mgr.apply_and(mgr.apply_not(ab), mgr.apply_not(bb)),
            )
            g = mgr.apply_and(g, iff)
        return g

    agree_at_z = iff_all(f.pairs)
    agree_above = mgr.apply_and(agree_at_z, iff_all(f.strict_pairs))
    dis_at_z = mgr.apply_not(agree_at_z)
    dis_above = mgr.apply_not(agree_above)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for l in (0, 1, 2):
        for r in (0, 1, 2):
            if l == 2 or r == 2 or (l == 1 and r == 1):
                base = 2
            else:
                base = 1 if (l == 1 or r == 1) else 0
            entries = []
            if base == 0:
                # z could sit here; inclusive pairs must agree at z.
                entries.append((nzb, 0))
                entries.append((mgr.apply_and(zb, agree_at_z), 1))
                entries.append((mgr.apply_and(zb, dis_at_z), 2))
            elif base == 1:
                # On the path above z: full agreement; no second z.
                entries.append((mgr.apply_and(nzb, agree_above), 1))
                entries.append((mgr.apply_and(nzb, dis_above), 2))
                entries.append((zb, 2))
            else:
                entries.append((mgr.true, 2))
            delta[(l, r)] = entries
    tracks = (
        frozenset({f.zvar})
        | frozenset(t for pair in f.pairs for t in pair)
        | frozenset(t for pair in f.strict_pairs for t in pair)
    )
    return TreeAutomaton(
        registry=self.registry,
        tracks=tracks,
        n_states=3,
        leaf=[
            (nzb, 0),
            (mgr.apply_and(zb, agree_at_z), 1),
            (mgr.apply_and(zb, dis_at_z), 2),
        ],
        accepting=frozenset({1}),
        delta=delta,
        deterministic=True,
        complete=True,
    )


# Register the internal atoms in the compiler dispatch.
_original_build = Compiler._build


def _build_extended(self: Compiler, f: S.Formula) -> TreeAutomaton:
    if isinstance(f, _ChildIs):
        return self._atom_childis(f.xvar, f.dirs, f.zvar)
    if isinstance(f, S.ParentRelIn):
        xb = self._bit(f.setvar)
        nxb = self._bit(f.setvar, False)
        return _atom_parent_rel(
            self, f.uvar, f.d, f.dirs,
            prop=[(xb, True), (nxb, False)],
            virtual_value=False,
            extra_tracks=frozenset({f.setvar}),
        )
    if isinstance(f, S.ParentRelNil):
        t = self.registry.manager.true
        # P = "this node is nil": on leaves True, internal False.  The
        # prop partition differs between leaf and internal node, so build
        # with distinct leaf/node property tables via the descendant trick:
        return _atom_parent_rel_nil(self, f)
    if isinstance(f, S.AgreeUpTo):
        return _atom_agree_upto(self, f)
    return _original_build(self, f)


def _atom_parent_rel_nil(self: Compiler, f: S.ParentRelNil) -> TreeAutomaton:
    """ParentRel variant where the property is is-nil (leaf-dependent)."""
    # Reuse _atom_parent_rel twice is awkward because prop depends on
    # leafness; inline a tailored build: P(leaf)=True, P(internal)=False.
    mgr = self.registry.manager
    uvar, d, dirs = f.uvar, f.d, f.dirs
    k = len(dirs)
    ub = self._bit(uvar)
    nub = self._bit(uvar, False)
    states: Dict[Tuple[int, Tuple[bool, ...]], int] = {}

    def mk(ustat: int, v: Tuple[bool, ...]) -> int:
        key = (ustat, v)
        if key not in states:
            states[key] = len(states)
        return states[key]

    leaf = []
    v_leaf = tuple([True] * (k + 1))
    leaf.append((nub, mk(0, v_leaf)))
    leaf.append((ub, mk(1, v_leaf)))
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    done = set()
    while True:
        snapshot = list(states.items())
        for (ul, vl), il in snapshot:
            for (ur, vr), ir in snapshot:
                key = (il, ir)
                if key in done:
                    continue
                done.add(key)
                v = tuple(
                    (vl if dirs[i] == "l" else vr)[i + 1] for i in range(k)
                ) + (False,)
                child_stat = ul if d == "l" else ur
                other_stat = ur if d == "l" else ul
                if child_stat == 1:
                    target = v[0] if k > 0 else False
                    merged = _merge_ustat(
                        2 if target else 3, _settle(other_stat)
                    )
                else:
                    merged = _merge_ustat(_settle(ul), _settle(ur))
                entries = [(nub, mk(merged, v))]
                entries.append((ub, mk(1 if merged == 0 else 3, v)))
                delta[key] = entries
        if len(states) == len(snapshot):
            if all(
                (i, j) in done
                for i in states.values()
                for j in states.values()
            ):
                break
    accepting = frozenset(i for (us, _v), i in states.items() if us == 2)
    return TreeAutomaton(
        registry=self.registry,
        tracks=frozenset({uvar}),
        n_states=len(states),
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=True,
        complete=True,
    )


Compiler._build = _build_extended  # type: ignore[method-assign]
