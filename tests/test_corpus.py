"""Every corpus reproducer re-runs through the oracle in CI.

``tests/corpus/`` holds hand-minimized (or fuzz-shrunk) conformance
cases; each entry records what the oracle must observe.  A fixed bug
stays fixed because its reproducer runs here forever; an open one keeps
the suite red until the engines agree again.
"""

from pathlib import Path

import pytest

from repro.conformance import load_corpus, run_entry

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = load_corpus(CORPUS_DIR)

EXPECTED_NAMES = {
    "equiv-identity",
    "guarded-write-overapprox",
    "minimax-fusion",
    "minimax-race",
    "racefree-sizecount",
    "racy-budget-status",
    "racy-parallel-write",
    "rlimit-crash-reproducer",
    "t13-budget-status",
}


def test_corpus_is_seeded():
    names = {e.name for e in ENTRIES}
    assert EXPECTED_NAMES <= names, names


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_corpus_entry(entry):
    result = run_entry(entry)
    expect = entry.expect
    assert len(result.mismatches) == expect.get("mismatches", 0), (
        entry.name,
        [str(m) for m in result.mismatches],
    )
    if "mismatch_kinds" in expect:
        assert sorted(m.kind for m in result.mismatches) == sorted(
            expect["mismatch_kinds"]
        ), (entry.name, [str(m) for m in result.mismatches])
    for key in ("bounded_found", "symbolic_status", "bounded"):
        if key in expect:
            assert result.engines.get(key) == expect[key], (
                entry.name, key, result.engines.get(key),
            )


def test_guarded_overapprox_is_warning_not_mismatch():
    """The over-approximation entry must actually hit the spurious
    witness path — if it stops warning, the entry has gone stale."""
    entry = next(e for e in ENTRIES if e.name == "guarded-write-overapprox")
    result = run_entry(entry)
    assert result.ok
    assert result.engines["interp_race"] is None
    assert result.engines["bounded_found"] is True
    assert any("spurious-witness" in w for w in result.warnings)
