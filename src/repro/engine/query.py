"""The Query IR: verification questions as first-class data.

A :class:`RaceQuery` or :class:`EquivalenceQuery` carries everything a
backend needs — the program(s), the block correspondence, the bounded
scope — plus a :class:`Limits` bundle saying how hard the caller is
willing to work.  The split matters for identity: :meth:`key` hashes
the *question* (canonical program sources, entry, mapping, scope) and
never the limits, mirroring how ``service.protocol.task_key`` excludes
sandbox limits, so the same key addresses a query in-process, in the
verdict store, and in the fuzz loop's dedup set, and re-running with a
bigger budget still reuses every verdict already decided.

Programs are canonicalized through :func:`repro.lang.printer.
program_source` (which round-trips through the parser), so two ASTs
that print identically — regardless of how they were constructed — are
the same query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from ..lang import ast as A
from .keys import content_key

__all__ = [
    "Limits",
    "RaceQuery",
    "EquivalenceQuery",
    "program_fields",
]


def program_fields(program: A.Program) -> List[str]:
    """All field names the program touches (for replay field seeding).

    The single shared copy — ``core.api`` and ``conformance.oracle``
    used to carry private duplicates of this helper.
    """
    from ..core.readwrite import ReadWriteAnalysis
    from ..lang.blocks import BlockTable

    table = BlockTable(program)
    rw = ReadWriteAnalysis(table)
    fields = set()
    for b in table.all_noncalls:
        for c in rw.access(b).readwrites:
            if c.kind == "field":
                fields.add(c.name)
    return sorted(fields)


@dataclass(frozen=True)
class Limits:
    """How hard to work on a query — never part of its identity.

    ``product_budget=None`` means the solver's own default; the other
    fields mirror the historical ``check_*`` keyword arguments.
    """

    det_budget: int = 50_000
    product_budget: Optional[int] = None
    mso_deadline_s: Optional[float] = 600.0
    node_ceiling: Optional[int] = None
    bounded_deadline_s: Optional[float] = None


def _canonical_source(program: A.Program) -> str:
    from ..lang.printer import program_source

    return program_source(program)


@dataclass(frozen=True)
class RaceQuery:
    """Is ``program`` data-race-free (paper Thm 2)?"""

    program: A.Program
    scope: int = 4
    limits: Limits = field(default_factory=Limits)

    kind = "race"

    def display(self) -> str:
        """The human-facing query string used by ``VerificationResult``."""
        return f"data-race({self.program.name})"

    def payload(self) -> Dict[str, object]:
        """Canonical, JSON-plain identity payload (limits excluded)."""
        return {
            "entry": self.program.entry,
            "scope": self.scope,
            "source": _canonical_source(self.program),
        }

    def key(self) -> str:
        return content_key(self.kind, self.payload())

    def fields(self) -> List[str]:
        return program_fields(self.program)


@dataclass(frozen=True)
class EquivalenceQuery:
    """Are the two programs equivalent under the block correspondence
    (paper Thm 3: bisimilar and conflict-free)?"""

    program: A.Program
    program2: A.Program
    mapping: Mapping[str, Set[str]]
    scope: int = 4
    limits: Limits = field(default_factory=Limits)

    kind = "equiv"

    def display(self) -> str:
        return f"equivalence({self.program.name} vs {self.program2.name})"

    def payload(self) -> Dict[str, object]:
        return {
            "entry": self.program.entry,
            "mapping": {k: sorted(v) for k, v in self.mapping.items()},
            "scope": self.scope,
            "source": _canonical_source(self.program),
            "source2": _canonical_source(self.program2),
        }

    def key(self) -> str:
        return content_key(self.kind, self.payload())

    def fields(self) -> List[str]:
        return sorted(
            set(program_fields(self.program))
            | set(program_fields(self.program2))
        )
