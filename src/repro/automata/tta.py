"""Bottom-up tree automata over bit-vector-labelled binary trees.

Models are the finite binary trees of :mod:`repro.trees.heap`: internal
nodes have exactly two children, nil nodes are leaves, and *every* node
(including leaves) carries one bit per *track* (an MSO variable).  A
transition guard is a BDD over track levels, so the alphabet 2^k never
materializes — only states do (MONA's architecture).

An automaton is nondeterministic in general; products keep determinism,
projection loses it, and :mod:`repro.automata.determinize` restores it via
symbolic subset construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..bdd.bdd import BDDManager
from ..runtime import ResourceGuard, StateBudgetExceeded, as_guard
from ..trees.heap import Tree, TreeNode

__all__ = ["TreeAutomaton", "TrackRegistry", "split_guards"]

Guard = int  # a BDD node index
Trans = List[Tuple[Guard, int]]


class TrackRegistry:
    """Global track-name -> BDD-level mapping shared by a solver instance."""

    def __init__(self, manager: Optional[BDDManager] = None) -> None:
        self.manager = manager or BDDManager()
        self._levels: Dict[str, int] = {}

    def level(self, name: str) -> int:
        if name not in self._levels:
            self._levels[name] = len(self._levels)
        return self._levels[name]

    def bit(self, name: str, value: bool = True) -> Guard:
        lvl = self.level(name)
        return self.manager.var(lvl) if value else self.manager.nvar(lvl)

    def names(self) -> List[str]:
        return sorted(self._levels, key=self._levels.get)

    def name_of(self, level: int) -> str:
        for n, l in self._levels.items():
            if l == level:
                return n
        raise KeyError(level)


@dataclass
class TreeAutomaton:
    """A (possibly nondeterministic) bottom-up tree automaton."""

    registry: TrackRegistry
    tracks: FrozenSet[str]
    n_states: int
    leaf: Trans
    delta: Dict[Tuple[int, int], Trans]
    accepting: FrozenSet[int]
    deterministic: bool = False
    # ``complete``: every (state-pair, label) has at least one successor.
    # Products/projections preserve it; ``completed()`` is a no-op on it.
    complete: bool = False

    @property
    def manager(self) -> BDDManager:
        return self.registry.manager

    def describe(self) -> str:
        kind = "DFTA" if self.deterministic else "NFTA"
        edges = sum(len(v) for v in self.delta.values()) + len(self.leaf)
        return (
            f"{kind}({self.n_states} states, {edges} symbolic edges, "
            f"{len(self.accepting)} accepting, tracks={sorted(self.tracks)})"
        )

    # -- running on a concrete labelled tree --------------------------------------
    def run(self, tree: Tree, labels: Mapping[str, FrozenSet[str]]) -> bool:
        """Accept the tree under the labelling ``track name -> set of node
        paths carrying the bit``."""
        mgr = self.manager
        level_sets = {
            self.registry.level(t): labels.get(t, frozenset()) for t in self.tracks
        }

        def bits_at(path: str) -> Callable[[int], bool]:
            def f(level: int) -> bool:
                return path in level_sets.get(level, frozenset())

            return f

        def states(node: TreeNode) -> FrozenSet[int]:
            assign = bits_at(node.path)
            if node.is_nil:
                return frozenset(
                    q for g, q in self.leaf if mgr.evaluate(g, assign)
                )
            ls = states(node.left)  # type: ignore[arg-type]
            rs = states(node.right)  # type: ignore[arg-type]
            out = set()
            for ql in ls:
                for qr in rs:
                    for g, q in self.delta.get((ql, qr), ()):
                        if mgr.evaluate(g, assign):
                            out.add(q)
            return frozenset(out)

        return bool(states(tree.root) & self.accepting)

    # -- constructions ---------------------------------------------------------------
    def product(
        self,
        other: "TreeAutomaton",
        acc: Callable[[bool, bool], bool],
        max_states: Optional[int] = None,
        deadline: Optional[float] = None,
        guard: Optional[ResourceGuard] = None,
    ) -> "TreeAutomaton":
        """Synchronized product with acceptance combiner ``acc``.

        Sound for conjunction on arbitrary automata; for disjunction both
        sides must be complete (use :meth:`completed`).  Only reachable
        product states are built.  A guard (or legacy ``deadline`` float)
        cancels the construction with ``DeadlineExceeded`` on expiry.
        """
        assert self.registry is other.registry
        guard = as_guard(guard, deadline)
        mgr = self.manager
        index: Dict[Tuple[int, int], int] = {}
        leaf: Trans = []
        delta: Dict[Tuple[int, int], Trans] = {}

        def state(pair: Tuple[int, int]) -> int:
            if pair not in index:
                if max_states is not None and len(index) >= max_states:
                    raise StateBudgetExceeded(
                        f"product exceeded {max_states} states",
                        phase="automata.product",
                        counters={"states": len(index)},
                    )
                index[pair] = len(index)
            return index[pair]

        frontier: List[Tuple[int, int]] = []

        def discover(pair: Tuple[int, int]) -> int:
            known = pair in index
            idx = state(pair)
            if not known:
                frontier.append(pair)
            return idx

        for g1, q1 in self.leaf:
            for g2, q2 in other.leaf:
                g = mgr.apply_and(g1, g2)
                if g != mgr.false:
                    leaf.append((g, discover((q1, q2))))

        def expand(pl: Tuple[int, int], pr: Tuple[int, int]) -> None:
            key = (index[pl], index[pr])
            entries: Trans = []
            for g1, q1 in self.delta.get((pl[0], pr[0]), ()):
                for g2, q2 in other.delta.get((pl[1], pr[1]), ()):
                    g = mgr.apply_and(g1, g2)
                    if g != mgr.false:
                        entries.append((g, discover((q1, q2))))
            if entries:
                delta[key] = entries

        processed: List[Tuple[int, int]] = []
        while frontier:
            pair = frontier.pop()
            processed.append(pair)
            # Expand against every already-processed pair (both sides),
            # including itself.
            for peer in processed:
                if guard is not None:
                    guard.tick("automata.product")
                expand(pair, peer)
                if peer != pair:
                    expand(peer, pair)
        accepting = frozenset(
            idx
            for pair, idx in index.items()
            if acc(pair[0] in self.accepting, pair[1] in other.accepting)
        )
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks | other.tracks,
            n_states=len(index),
            leaf=leaf,
            delta=delta,
            accepting=accepting,
            deterministic=self.deterministic and other.deterministic,
            complete=self.complete and other.complete,
        )

    def union_sum(self, other: "TreeAutomaton") -> "TreeAutomaton":
        """Union by disjoint sum — linear in states, nondeterministic.

        Runs cannot mix components (no cross-component transitions), so the
        language is exactly L(self) ∪ L(other).  The cheap path for
        positive-context disjunctions; the product construction is only
        worthwhile when a small deterministic result is needed (e.g. before
        a complement)."""
        assert self.registry is other.registry
        off = self.n_states
        leaf = list(self.leaf) + [(g, q + off) for g, q in other.leaf]
        delta = {k: list(v) for k, v in self.delta.items()}
        for (ql, qr), entries in other.delta.items():
            delta[(ql + off, qr + off)] = [(g, q + off) for g, q in entries]
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks | other.tracks,
            n_states=self.n_states + other.n_states,
            leaf=leaf,
            delta=delta,
            accepting=self.accepting
            | frozenset(q + off for q in other.accepting),
            deterministic=False,
            complete=self.complete or other.complete,
        )

    def completed(self) -> "TreeAutomaton":
        """Add a non-accepting sink so every (state-pair, label) has at
        least one successor.  The sink is added only when some leaf label
        or cell is not already covered."""
        if self.complete:
            return self
        mgr = self.manager
        sink = self.n_states
        leaf = list(self.leaf)
        rest = mgr.apply_not(mgr.disj([g for g, _ in self.leaf]))
        needs_sink = rest != mgr.false
        if needs_sink:
            leaf.append((rest, sink))
        delta = {k: list(v) for k, v in self.delta.items()}
        for ql in range(self.n_states):
            for qr in range(self.n_states):
                entries = delta.get((ql, qr), [])
                rest = mgr.apply_not(mgr.disj([g for g, _ in entries]))
                if rest != mgr.false:
                    delta[(ql, qr)] = entries + [(rest, sink)]
                    needs_sink = True
        if needs_sink:
            for q in range(sink + 1):
                delta[(q, sink)] = [(mgr.true, sink)]
                delta[(sink, q)] = [(mgr.true, sink)]
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks,
            n_states=self.n_states + (1 if needs_sink else 0),
            leaf=leaf,
            delta=delta,
            accepting=self.accepting,
            deterministic=self.deterministic,
            complete=True,
        )

    def complemented(
        self, deadline=None, guard: Optional[ResourceGuard] = None
    ) -> "TreeAutomaton":
        """Complement; determinizes and completes first when needed."""
        from .determinize import determinize

        det = (
            self
            if self.deterministic
            else determinize(self, deadline=deadline, guard=guard)
        )
        det = det.completed()
        return TreeAutomaton(
            registry=det.registry,
            tracks=det.tracks,
            n_states=det.n_states,
            leaf=det.leaf,
            delta=det.delta,
            accepting=frozenset(range(det.n_states)) - det.accepting,
            deterministic=True,
            complete=True,
        )

    def projected(self, tracks: Iterable[str]) -> "TreeAutomaton":
        """Existentially quantify the given tracks out of every guard."""
        levels = frozenset(self.registry.level(t) for t in tracks)
        mgr = self.manager
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks - frozenset(tracks),
            n_states=self.n_states,
            leaf=[(mgr.exists(g, levels), q) for g, q in self.leaf],
            delta={
                k: [(mgr.exists(g, levels), q) for g, q in v]
                for k, v in self.delta.items()
            },
            accepting=self.accepting,
            deterministic=False,
            complete=self.complete,
        )

    def with_tracks(self, tracks: Iterable[str]) -> "TreeAutomaton":
        """Cylindrification: declare extra tracks (guards unchanged)."""
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks | frozenset(tracks),
            n_states=self.n_states,
            leaf=self.leaf,
            delta=self.delta,
            accepting=self.accepting,
            deterministic=self.deterministic,
            complete=self.complete,
        )


def split_guards(
    mgr: BDDManager, pairs: Iterable[Tuple[Guard, int]]
) -> List[Tuple[Guard, FrozenSet[int]]]:
    """Partition the label space by which transitions fire.

    Returns disjoint guards covering the whole space, each mapped to the set
    of destinations enabled there (possibly empty).
    """
    parts: List[Tuple[Guard, FrozenSet[int]]] = [(mgr.true, frozenset())]
    for g, d in pairs:
        nxt: List[Tuple[Guard, FrozenSet[int]]] = []
        for h, s in parts:
            both = mgr.apply_and(h, g)
            if both != mgr.false:
                nxt.append((both, s | {d}))
            rest = mgr.apply_diff(h, g)
            if rest != mgr.false:
                nxt.append((rest, s))
        parts = nxt
    # Merge regions with identical destination sets.
    merged: Dict[FrozenSet[int], Guard] = {}
    for h, s in parts:
        merged[s] = mgr.apply_or(merged.get(s, mgr.false), h)
    return [(g, s) for s, g in merged.items()]
