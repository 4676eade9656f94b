"""State reduction for bottom-up tree automata.

:func:`minimize` computes the Myhill–Nerode congruence of a deterministic
automaton by Moore-style partition refinement.  It starts from
{accepting, rejecting} and keeps two states ``p, q`` together only if, for
every peer *state* ``r``, the cells ``δ(p, r)`` and ``δ(q, r)`` (the row)
and ``δ(r, p)`` and ``δ(r, q)`` (the column) send every label to the same
class.  A cell's class-level map (class → BDD guard) is canonical because
guards are hash-consed; each round interns the maps to ints, so a state's
signature is its class plus its row and column of cell ids.  The peer must
be a state, not a class: two same-class peers are not yet known to be
equivalent, and a signature that forgets which peer a cell belongs to
cannot split states whose rows are permutations of each other.

The input may be complete, or trim (every state useful, see
:func:`prune_dead`).  A missing cell sends its whole label space to an
implicit sink that is a class of its own.  No useful state is equivalent to
that sink, so on a trim automaton the result is the minimal complete
automaton without its sink.  Unreachable states are pruned first.

:func:`reduce_nfta` runs the same refinement on nondeterministic automata,
with each state's leaf guard as an extra key.  The classes are forward
bisimulations, so the language is unchanged, but the result need not be
minimal (NFTA minimization is PSPACE-hard).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime import ResourceGuard, as_guard
from .tta import TreeAutomaton

__all__ = ["minimize", "prune_dead", "prune_unreachable", "reduce_nfta"]


def prune_unreachable(a: TreeAutomaton) -> TreeAutomaton:
    """Drop states that no labelled tree can reach (bottom-up)."""
    reach = set(q for _, q in a.leaf)
    changed = True
    while changed:
        changed = False
        for (ql, qr), entries in a.delta.items():
            if ql in reach and qr in reach:
                for _, q in entries:
                    if q not in reach:
                        reach.add(q)
                        changed = True
    if len(reach) == a.n_states:
        return a
    remap = {q: i for i, q in enumerate(sorted(reach))}
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): [
                (g, remap[q]) for g, q in entries if q in remap
            ]
            for (ql, qr), entries in a.delta.items()
            if ql in remap and qr in remap
        },
        accepting=frozenset(remap[q] for q in a.accepting if q in remap),
        deterministic=a.deterministic,
        complete=a.complete,
    )


def prune_dead(a: TreeAutomaton) -> TreeAutomaton:
    """Keep only *useful* states — those occurring in some accepting run.

    A state is useful iff it is bottom-up reachable AND co-reachable: an
    accepting root state, or a child position of a transition whose
    target is useful.  Dropping the rest preserves the language exactly
    (every accepting run consists of useful states only) but loses
    completeness.  Dead components doom every product tuple containing
    them, so conjunctions — eager and lazy — trim their operands first.

    Automata are immutable once built and heavily shared (compiler
    structural-key memo, conjunction cache), so the result rides on the
    instance and is marked as its own fixpoint: repeated and chained
    calls are free.
    """
    pruned = getattr(a, "_useful", None)
    if pruned is None:
        pruned = _useful_part(a)
        a._useful = pruned
        pruned._useful = pruned
    return pruned


def _useful_part(a: TreeAutomaton) -> TreeAutomaton:
    reach = set(q for _, q in a.leaf)
    changed = True
    while changed:
        changed = False
        for (ql, qr), entries in a.delta.items():
            if ql in reach and qr in reach:
                for _, q in entries:
                    if q not in reach:
                        reach.add(q)
                        changed = True
    useful = set(q for q in a.accepting if q in reach)
    changed = True
    while changed:
        changed = False
        for (ql, qr), entries in a.delta.items():
            if ql not in reach or qr not in reach:
                continue
            if any(q in useful for _, q in entries):
                if ql not in useful:
                    useful.add(ql)
                    changed = True
                if qr not in useful:
                    useful.add(qr)
                    changed = True
    if len(useful) == a.n_states:
        return a
    remap = {q: i for i, q in enumerate(sorted(useful))}
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): pruned
            for (ql, qr), entries in a.delta.items()
            if ql in remap and qr in remap
            for pruned in [
                [(g, remap[q]) for g, q in entries if q in remap]
            ]
            if pruned
        },
        accepting=frozenset(remap[q] for q in a.accepting if q in remap),
        deterministic=a.deterministic,
        complete=False,
    )


def _refine(
    a: TreeAutomaton,
    keys: Sequence,
    guard: Optional[ResourceGuard],
    phase: str,
) -> List[int]:
    """Coarsest partition that refines ``keys`` (one hashable per state)
    and is stable under every row and column of ``a.delta``."""
    mgr = a.manager
    n = a.n_states
    rows: List[List[int]] = [[] for _ in range(n)]
    cols: List[List[int]] = [[] for _ in range(n)]
    for ql, qr in a.delta:
        rows[ql].append(qr)
        cols[qr].append(ql)
    # Which peers a state has cells with never changes, so the peer lists
    # go into the initial key once; each round compares only cell ids.
    rows = [sorted(r) for r in rows]
    cols = [sorted(c) for c in cols]
    initial: Dict[Tuple, int] = {}
    cls = [
        initial.setdefault(
            (keys[p], tuple(rows[p]), tuple(cols[p])), len(initial)
        )
        for p in range(n)
    ]
    k = len(initial)
    while True:
        if guard is not None:
            guard.check_now(phase)
        cell_ids: Dict[Tuple, int] = {}
        cell: Dict[Tuple[int, int], int] = {}
        for key, entries in a.delta.items():
            merged: Dict[int, int] = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            cell[key] = cell_ids.setdefault(
                tuple(sorted(merged.items())), len(cell_ids)
            )
        table: Dict[Tuple, int] = {}
        new_cls = [
            table.setdefault(
                (
                    cls[p],
                    tuple([cell[(p, r)] for r in rows[p]]),
                    tuple([cell[(r, p)] for r in cols[p]]),
                ),
                len(table),
            )
            for p in range(n)
        ]
        # Signatures include the old class, so an unchanged class count
        # means nothing split: the partition is stable.
        if len(table) == k:
            return cls
        cls, k = new_cls, len(table)


def _quotient(
    a: TreeAutomaton, cls: List[int], deterministic: bool
) -> TreeAutomaton:
    """Merge each class of a stable partition into one state.

    Stability makes every cell between two classes carry the same
    class-level map, so one representative cell per class pair is the
    whole quotient transition."""
    mgr = a.manager
    leaf: Dict[int, int] = {}
    for g, q in a.leaf:
        c = cls[q]
        leaf[c] = mgr.apply_or(leaf.get(c, mgr.false), g)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        if key in delta:
            continue
        merged: Dict[int, int] = {}
        for g, q in entries:
            c = cls[q]
            merged[c] = mgr.apply_or(merged.get(c, mgr.false), g)
        delta[key] = [(g, c) for c, g in merged.items() if g != mgr.false]
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=max(cls) + 1,
        leaf=[(g, c) for c, g in leaf.items() if g != mgr.false],
        delta=delta,
        accepting=frozenset(cls[q] for q in a.accepting),
        deterministic=deterministic,
        complete=a.complete,
    )


def reduce_nfta(
    a: TreeAutomaton,
    deadline=None,
    guard: Optional[ResourceGuard] = None,
) -> TreeAutomaton:
    """Bisimulation-based state reduction for nondeterministic automata.

    Merges states with identical acceptance, identical leaf guard and
    identical class-level transition rows and columns.  Sound for NFTAs —
    merged states are forward-bisimilar, so the language is unchanged —
    but not necessarily minimal (NFTA minimization is PSPACE-hard)."""
    guard = as_guard(guard, deadline)
    a = prune_unreachable(a)
    n = a.n_states
    if n <= 1:
        return a
    mgr = a.manager
    leaf_by_state: Dict[int, List[int]] = {}
    for g, q in a.leaf:
        leaf_by_state.setdefault(q, []).append(g)
    keys = [
        (q in a.accepting, mgr.disj(leaf_by_state.get(q, [])))
        for q in range(n)
    ]
    cls = _refine(a, keys, guard, "reduce")
    if max(cls) + 1 == n:
        return a
    return _quotient(a, cls, deterministic=False)


def minimize(
    a: TreeAutomaton, deadline=None, guard: Optional[ResourceGuard] = None
) -> TreeAutomaton:
    """Minimize a deterministic tree automaton that is complete or trim."""
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    guard = as_guard(guard, deadline)
    a = prune_unreachable(a)
    n = a.n_states
    if n <= 1:
        return a
    cls = _refine(a, [q in a.accepting for q in range(n)], guard, "minimize")
    if max(cls) + 1 == n:
        return a
    return _quotient(a, cls, deterministic=True)
